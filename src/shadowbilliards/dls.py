"""Discrete Lagrangian systems over a scatterer: actions, Newton, certificates.

A multivalued Lagrangian assigns to each symbol k a two-point function L_k on
chart coordinates of the scatterer. Chains of symbols and points carry the
discrete action; its gradient vanishes exactly when the tangential part of
the momentum jump vanishes at every collision. Its Hessian, and the Hessian
of every Dirichlet window of a periodic chain, is the chain matrix that
blocktri assembles from the links' second-derivative blocks (block
tridiagonal, cyclic for periodic chains). Every evaluation of the branches
runs by link family: the links of a chain that share a class and slot
dimensions are evaluated together, their endpoints stacked row by row.
Hyperbolicity is certified through uniform sup-norm bounds on inverses of
centered Dirichlet windows, with the Green-function decay rate fitted as a
cross-check.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .blocktri import BlockTridiagonalFactor, inverse_inf_norm, solve_window, split_blocks


class ChainDomainError(ValueError):
    """A link of the chain left the domain of its Lagrangian branch."""


class NewtonError(RuntimeError):
    """Damped Newton on the chain residual failed."""


# ---------------------------------------------------------------------------
# Link evaluators
# ---------------------------------------------------------------------------

class LinkEvaluator:
    """Two-point Lagrangian branch; chart dimensions may differ per slot.

    Links are evaluated by family: the links of one chain that share a class
    and slot dimensions, their endpoints stacked row by row in XM
    (n, dim_minus) and XP (n, dim_plus). One link is the one-row family.
    Subclasses implement, as classmethods returning one row per link:

    - values(links, XM, XP): the branch values, shape (n,);
    - grads(links, XM, XP): (D-, D+), shapes (n, dim_minus) and (n, dim_plus);
    - hessians(links, XM, XP): (D--, D-+, D++), each (n, ., .); a branch
      without a closed form returns difference_hessians() of its gradients;
    - momenta_rows(), where the branch knows its ambient boundary momenta;
    - in_domain(), where its domain is smaller than its chart.

    A branch with no chart coordinates on either slot has no gradient or
    Hessian rows and may leave grads and hessians out.
    """

    dim_minus: int
    dim_plus: int

    @classmethod
    def momenta_rows(cls, links: Sequence["LinkEvaluator"], XM: np.ndarray,
                     XP: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ambient boundary momenta (p-, p+) of every row, each of shape (n, d)."""
        raise NotImplementedError("this branch does not expose ambient momenta")

    @classmethod
    def in_domain(cls, links: Sequence["LinkEvaluator"], XM: np.ndarray,
                  XP: np.ndarray) -> np.ndarray:
        """Whether each row lies in the domain of its branch, shape (n,)."""
        return np.ones(len(links), dtype=bool)

    @staticmethod
    def _blocks(J: np.ndarray, nm: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(D--, D-+, D++) blocks of each symmetrised joint second derivative
        of a stack J, with nm minus-slot coordinates."""
        J = 0.5 * (J + np.swapaxes(J, -1, -2))
        return J[..., :nm, :nm], J[..., :nm, nm:], J[..., nm:, nm:]


_DIFFERENCE_STEP = 1.6e-5   # h of difference_hessians, which steps h/2 and h


def difference_hessians(cls, links: Sequence[LinkEvaluator], XM: np.ndarray,
                        XP: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D--, D-+, D++) of every row from the exact gradients cls.grads.

    Central differences of (D-, D+) in the joint coordinates (XM[r], XP[r]),
    at steps h/2 and h with one Richardson step, symmetrised.
    """
    nm = XM.shape[1]
    Z = np.concatenate([XM, XP], axis=1)

    def jacobian(h):
        J = np.empty((len(links), Z.shape[1], Z.shape[1]))
        for i in range(Z.shape[1]):
            e = np.zeros(Z.shape[1])
            e[i] = h
            up, down = (np.concatenate(cls.grads(links, W[:, :nm], W[:, nm:]), axis=1)
                        for W in (Z + e, Z - e))
            J[:, :, i] = (up - down) / (2 * h)
        return J

    h = _DIFFERENCE_STEP
    return cls._blocks((4.0 * jacobian(h / 2) - jacobian(h)) / 3.0, nm)


@dataclass
class DiscreteLagrangian:
    """Multivalued Lagrangian: one evaluator per symbol, plus metadata.

    energy and scatterer are optional but feed default jump tolerances and
    normal projections in admissibility reports. For zero-dimensional
    scatterers, site_bases(c, i) names the point id a chain visits at site i;
    ambient_endpoints(c) returns the frozen ambient ends of fixed chains.
    """

    links: Mapping[object, LinkEvaluator]
    energy: Optional[float] = None
    scatterer: object = None
    name: str = ""
    site_bases: Optional[Callable] = None
    ambient_endpoints: Optional[Callable] = None

    def link(self, k) -> LinkEvaluator:
        return self.links[k]


class LazyLinks(dict):
    """Symbol table creating branch evaluators on first use."""

    def __init__(self, factory: Callable):
        super().__init__()
        self.factory = factory

    def __missing__(self, key):
        link = self.factory(key)
        self[key] = link
        return link


# ---------------------------------------------------------------------------
# Chain configurations
# ---------------------------------------------------------------------------

@dataclass
class ChainConfiguration:
    """Symbol code plus scatterer points in chart coordinates.

    periodic: points[j] for j in 0..n-1, link j joins x_j to x_{j+1 mod n}.
    fixed: len(code) = len(points) + 1; the outermost slots have no chart
    coordinates, since the boundary branches close over their ambient
    endpoints. Every point has the same chart dimension.
    """

    code: List[object]
    points: List[np.ndarray]
    bc: str = "periodic"

    def __post_init__(self):
        self.points = [np.atleast_1d(np.asarray(x, dtype=float)) for x in self.points]
        if self.bc == "periodic":
            if len(self.code) != len(self.points):
                raise ValueError("periodic chain needs one point per link")
        elif self.bc == "fixed":
            if len(self.code) != len(self.points) + 1:
                raise ValueError("fixed chain needs len(code) = len(points) + 1")
        else:
            raise ValueError("bc must be 'periodic' or 'fixed'")
        if len({x.size for x in self.points}) > 1:
            raise ValueError("chain points must share one chart dimension")

    @property
    def n_links(self) -> int:
        return len(self.code)

    @property
    def n_free(self) -> int:
        return len(self.points)

    def link_endpoints(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.bc == "periodic":
            n = len(self.points)
            return self.points[j % n], self.points[(j + 1) % n]
        left = np.zeros(0) if j == 0 else self.points[j - 1]
        right = np.zeros(0) if j == self.n_links - 1 else self.points[j]
        return left, right

    def with_points(self, new_points) -> "ChainConfiguration":
        return replace(self, points=[np.atleast_1d(np.asarray(x, dtype=float)) for x in new_points])


def _check_domains(dl: DiscreteLagrangian, c: ChainConfiguration):
    """Raise ChainDomainError at the first link outside its branch's domain."""
    for j, ok in enumerate(_per_link(dl, c, "in_domain")):
        if not ok:
            raise ChainDomainError(f"link {j} (symbol {c.code[j]}) left its domain")


def _families(dl: DiscreteLagrangian, c: ChainConfiguration):
    """The chain's links grouped by evaluator class and slot dimensions.

    Yields (class, link indices, links, stacked minus endpoints, stacked
    plus endpoints) per group, in order of first appearance.
    """
    groups: Dict[tuple, list] = {}
    for j, k in enumerate(c.code):
        link = dl.link(k)
        xm, xp = c.link_endpoints(j)
        groups.setdefault((type(link), xm.size, xp.size), []).append((j, link, xm, xp))
    for (cls, _, _), rows in groups.items():
        idx, links, xms, xps = zip(*rows)
        yield cls, idx, links, np.array(xms, dtype=float), np.array(xps, dtype=float)


def _per_link(dl: DiscreteLagrangian, c: ChainConfiguration, method: str) -> list:
    """Family method `method` over the chain, scattered to one entry per link."""
    out: list = [None] * c.n_links
    for cls, idx, links, XM, XP in _families(dl, c):
        res = getattr(cls, method)(links, XM, XP)
        rows = zip(*res) if isinstance(res, tuple) else res
        for j, row in zip(idx, rows):
            out[j] = row
    return out


def chain_action(dl: DiscreteLagrangian, c: ChainConfiguration) -> float:
    """Sum of branch Lagrangians over the chain with the boundary wrap applied."""
    _check_domains(dl, c)
    total = 0.0
    for v in _per_link(dl, c, "values"):
        total += v
    return float(total)


def _site_links(c: ChainConfiguration, i: int) -> Tuple[int, int]:
    """(incoming link, outgoing link) indices of free site i."""
    if c.bc == "periodic":
        n = c.n_free
        return (i - 1) % n, i
    return i, i + 1


def residual(dl: DiscreteLagrangian, c: ChainConfiguration) -> List[np.ndarray]:
    """Gradient of the discrete action at each free site.

    Site i collects D+ of its incoming branch and D- of its outgoing branch,
    i.e. the tangential projection of (p_i^+ - p_i^-); it vanishes exactly at
    the elastic-reflection (tangential momentum conservation) condition.
    """
    grads = _per_link(dl, c, "grads")
    out = []
    for i in range(c.n_free):
        jin, jout = _site_links(c, i)
        out.append(grads[jin][1] + grads[jout][0])
    return out


def residual_norm(res: Sequence[np.ndarray]) -> float:
    """Sup-norm over every block; NaN if any entry is NaN."""
    if not res:
        return 0.0
    return float(np.max(np.abs(np.concatenate(res)), initial=0.0))


def hessian(dl: DiscreteLagrangian, c: ChainConfiguration) -> BlockTridiagonalFactor:
    """The second variation of the chain action: the chain matrix of its link
    Hessians, periodic or fixed as the chain is."""
    return BlockTridiagonalFactor(_per_link(dl, c, "hessians"), c.bc == "periodic")


# ---------------------------------------------------------------------------
# Damped Newton: one driver for every solver of the package
# ---------------------------------------------------------------------------

def damped_newton(state, rn, done, step, trial, iterations: int, trials: int):
    """Damped Newton from state, of residual norm rn, as a generator.

    Per iteration d = step(state), then trial(state, d, lam) at lam = 1, 1/2,
    ... (at most `trials`) until one returns (state', rn') with rn' < rn; None
    is a refused trial. Returns (state, rn, iterations, status): "converged"
    once done(state, rn), "did not converge" after `iterations` steps, or
    "stalled". Generator callbacks pass their yields on to the consumer
    (singular._lockstep); run() drives a Newton whose callbacks do not yield.
    """
    it = 0
    while not done(state, rn):
        if it == iterations:
            return state, rn, it, "did not converge"
        d = step(state)
        if inspect.isgenerator(d):
            d = yield from d
        lam = 1.0
        for _ in range(trials):
            out = trial(state, d, lam)
            if inspect.isgenerator(out):
                out = yield from out
            if out is not None and out[1] < rn:
                break
            lam *= 0.5
        else:
            return state, rn, it, "stalled"
        state, rn = out
        it += 1
    return state, rn, it, "converged"


def run(newton):
    """What a damped_newton whose callbacks do not yield returns."""
    try:
        newton.send(None)
    except StopIteration as stop:
        return stop.value
    raise TypeError("a Newton callback yielded: drive it from its consumer")


@dataclass
class NewtonResult:
    chain: ChainConfiguration
    residual_inf: float
    smallest_singular_value: float
    iterations: int
    converged: bool


_NEWTON_HALVINGS = 40      # step halvings per Newton iteration before NewtonError
_NEWTON_TOL = 1e-10        # sup-norm residual of a converged chain


def newton_chain(dl: DiscreteLagrangian, c0: ChainConfiguration,
                 allow_singular: bool = False) -> NewtonResult:
    """Damped Newton on the chain residual, each step one solve of the chain matrix.

    Runs damped_newton to a sup-norm residual of 1e-10 in at most 60
    iterations of at most 41 trials (40 halvings). The start chain and the
    returned chain must lie in the domains of their branches (else
    ChainDomainError); the line search does not check the trials. A chain
    without free coordinates is already critical and is returned unchanged.
    A singular Hessian raises unless allow_singular is set, in which case the
    minimal-norm step is taken (useful on unreduced symmetric systems, whose
    critical chains come in group orbits). A non-finite Hessian raises
    LinAlgError.
    """
    if c0.n_free == 0 or all(x.size == 0 for x in c0.points):
        return NewtonResult(c0, 0.0, np.inf, 0, True)
    _check_domains(dl, c0)

    def step(state):
        c, res = state
        H = hessian(dl, c)
        try:
            return H.solve([-r for r in res])
        except np.linalg.LinAlgError as exc:
            if not allow_singular:
                raise NewtonError("singular chain Hessian") from exc
            flat, *_ = np.linalg.lstsq(H.matrix, -np.concatenate(res), rcond=None)
            return split_blocks(flat, H.dims)

    def trial(state, d, lam):
        c = state[0].with_points([x + lam * s for x, s in zip(state[0].points, d)])
        res = residual(dl, c)
        return (c, res), residual_norm(res)

    res = residual(dl, c0)
    (c, _), rn, it, status = run(damped_newton(
        (c0, res), residual_norm(res), lambda _, rn: rn <= _NEWTON_TOL, step, trial,
        60, _NEWTON_HALVINGS + 1))
    if status == "stalled":
        raise NewtonError(f"no descent after {_NEWTON_HALVINGS} halvings (|r| = {rn:.2e})")
    _check_domains(dl, c)
    sigma = float(np.linalg.svd(hessian(dl, c).matrix, compute_uv=False)[-1])
    return NewtonResult(c, rn, sigma, it, status == "converged")


# ---------------------------------------------------------------------------
# Window certificates (sup-norm hyperbolicity) and Green-function decay
# ---------------------------------------------------------------------------

def _windows(dl: DiscreteLagrangian, c: ChainConfiguration, center: int,
             half_widths: Sequence[int]) -> List[list]:
    """Link blocks of the Dirichlet windows of the periodic extension of the
    chain centered at site `center`: for half-width W, the open chain of links
    center-W-1 ... center+W, taken mod n."""
    if c.bc != "periodic":
        raise ValueError("window certificates act on periodic chains")
    H = _per_link(dl, c, "hessians")
    n = len(H)
    return [[H[i % n] for i in range(center - W - 1, center + W + 1)] for W in half_widths]


@dataclass
class CertificateResult:
    windows: Tuple[int, ...]
    norms: Tuple[float, ...]
    stabilized: bool
    value: Optional[float]
    rel_change: float


def hyperbolicity_certificate(dl: DiscreteLagrangian, c: ChainConfiguration,
                              windows: Sequence[int] = (1, 2, 4, 8, 16)) -> CertificateResult:
    """Sup-norm bounds C_W of inverses of Dirichlet windows centered at site 0.

    The certificate is the stabilized value of C_W over a geometric range of
    half-widths W: the last two bounds agree to 5% relative. Growth without
    stabilization signals a kernel direction (an unreduced symmetry) or
    non-hyperbolicity. The half-widths must be strictly increasing integers
    >= 0 (else ValueError): a repeated or shrinking window certifies nothing.
    """
    widths = tuple(int(W) for W in windows)
    if not widths or widths != tuple(windows) or widths[0] < 0 \
            or any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError(f"windows must be strictly increasing integers >= 0, got {windows}")
    norms = [inverse_inf_norm(links) for links in _windows(dl, c, 0, widths)]
    rel = abs(norms[-1] - norms[-2]) / max(norms[-2], 1e-300) if len(norms) > 1 else np.inf
    stab = rel <= 0.05
    return CertificateResult(widths, tuple(norms), stab,
                             norms[-1] if stab else None, float(rel))


def linear_fit(A: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, float]:
    """Least-squares coefficients of y ~ A @ coef, and the R^2 of the fit."""
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef, r2


@dataclass
class GreenDecayFit:
    lam: float
    r_squared: float
    offsets: np.ndarray
    norms: np.ndarray


def green_decay(dl: DiscreteLagrangian, c: ChainConfiguration, j: int = 0,
                half_width: int = 24) -> GreenDecayFit:
    """Exponential decay fit of the window Green function at block j.

    Solves the window system once against all unit loads at the center block
    (an identity block there, zeros elsewhere), records for each block the
    largest column norm of its response, and fits log-norm against distance on
    the inner half of the window (edge effects excluded), leaving out
    responses at or below 1e-14 of the largest (round-off). lam > 0 with a
    good fit supports the hyperbolic verdict.
    """
    links, = _windows(dl, c, j, [half_width])
    nwin = 2 * half_width + 1
    centre = half_width
    m = links[0][2].shape[0]
    rhs = np.zeros((nwin, m, m))
    rhs[centre] = np.eye(m)
    x = solve_window(links, rhs)
    responses = np.array([np.linalg.norm(xi, axis=0).max(initial=0.0) for xi in x])
    offsets = np.abs(np.arange(nwin) - centre)
    inner = offsets <= half_width // 2
    keep = inner & (responses > 1e-14 * max(responses.max(), 1e-300))
    xs = offsets[keep].astype(float)
    ys = np.log(responses[keep])
    if xs.size < 3 or np.ptp(xs) == 0:
        return GreenDecayFit(0.0, 0.0, offsets, responses)
    coef, r2 = linear_fit(np.vstack([np.ones_like(xs), -xs]).T, ys)
    return GreenDecayFit(float(coef[1]), r2, offsets, responses)


# ---------------------------------------------------------------------------
# Admissibility and symmetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionReport:
    site: int
    admissible: bool
    straight_reflection: bool


def momentum_jumps(dl: DiscreteLagrangian, c: ChainConfiguration) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """(site, p^-, p^+) ambient momenta around each free site, from one
    momenta_rows() call per family."""
    moms = _per_link(dl, c, "momenta_rows")
    out = []
    for i in range(c.n_free):
        jin, jout = _site_links(c, i)
        out.append((i, moms[jout][0], moms[jin][1]))
    return out


def admissible(dl: DiscreteLagrangian, c: ChainConfiguration,
               attracting: bool = False) -> List[CollisionReport]:
    """Per-collision jump condition, with the head-on filter for attracting flows.

    The jump condition needs ||p^- - p^+|| at or above 1e-6 sqrt(2E) (1e-6
    without an energy); attracting singular scenarios additionally reject
    straight reflections, where the normal projections of the velocities
    satisfy u^+ = -u^- to within an angle of 1e-6.
    """
    jump_tol = 1e-6 * np.sqrt(2.0 * dl.energy) if dl.energy else 1e-6
    reports = []
    for i, p_minus, p_plus in momentum_jumps(dl, c):
        dp = p_minus - p_plus
        jn = float(np.linalg.norm(dp))
        straight = False
        if jn >= jump_tol:
            um, up = p_minus, p_plus
            if dl.scatterer is not None and getattr(dl.scatterer, "dim", 0) > 0:
                x = c.points[i] if c.points[i].size else None
                if x is not None:
                    um = dl.scatterer.normal_coordinates(x, p_minus)
                    up = dl.scatterer.normal_coordinates(x, p_plus)
            num = float(np.linalg.norm(um)) * float(np.linalg.norm(up))
            if num > 0:
                cosang = float(um @ up) / num
                straight = bool(np.arccos(np.clip(-cosang, -1.0, 1.0)) < 1e-6)
        ok = jn >= jump_tol and not (attracting and straight)
        reports.append(CollisionReport(i, ok, straight))
    return reports


def tangent_momenta(dl: DiscreteLagrangian, c: ChainConfiguration) -> List[np.ndarray]:
    """y_i = D+ L at the incoming slot of each site (chart covectors)."""
    grads = _per_link(dl, c, "grads")
    return [grads[_site_links(c, i)[0]][1] for i in range(c.n_free)]


def noether_values(dl: DiscreteLagrangian, c: ChainConfiguration,
                   generator: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """<u(x_i), y_i> per site; constant along critical chains of a symmetric DLS."""
    ys = tangent_momenta(dl, c)
    return np.array([float(np.asarray(generator(x)) @ y) for x, y in zip(c.points, ys)])


def symmetry_field(c: ChainConfiguration,
                   generator: Callable[[np.ndarray], np.ndarray]) -> List[np.ndarray]:
    return [np.asarray(generator(x), dtype=float) for x in c.points]


def variational_consistency(dl: DiscreteLagrangian, c: ChainConfiguration) -> Dict[str, float]:
    """Compare residual and Hessian against finite differences of chain_action.

    Steps are 1e-6 for the gradient and 4e-5 for the Hessian. Returns
    relative errors and structural checks; criterion 2 of the acceptance gate
    checks them.
    """
    fd_step = 1e-6
    res = residual(dl, c)
    n = c.n_free
    dims = [x.size for x in c.points]
    grad_fd = []
    for i in range(n):
        g = np.zeros(dims[i])
        for a in range(dims[i]):
            pts = [x.copy() for x in c.points]
            pts[i][a] += fd_step
            fp = chain_action(dl, c.with_points(pts))
            pts[i][a] -= 2 * fd_step
            fm = chain_action(dl, c.with_points(pts))
            g[a] = (fp - fm) / (2 * fd_step)
        grad_fd.append(g)
    gnorm = max(1e-12, max((np.max(np.abs(g)) if g.size else 0.0) for g in grad_fd))
    grad_err = max((np.max(np.abs(g - r)) if g.size else 0.0)
                   for g, r in zip(grad_fd, res)) / gnorm

    M = hessian(dl, c).matrix
    N = M.shape[0]
    offs = np.concatenate([[0], np.cumsum(dims)])
    Mfd = np.zeros_like(M)
    flat = np.concatenate([x for x in c.points]) if N else np.zeros(0)

    def act(v):
        pts = split_blocks(v, dims)
        return chain_action(dl, c.with_points(pts))

    h2 = fd_step * 40
    for a in range(N):
        for b in range(a, N):
            ea = np.zeros(N)
            eb = np.zeros(N)
            ea[a] = h2
            eb[b] = h2
            val = (act(flat + ea + eb) - act(flat + ea - eb)
                   - act(flat - ea + eb) + act(flat - ea - eb)) / (4 * h2 * h2)
            Mfd[a, b] = Mfd[b, a] = val
    hnorm = max(np.max(np.abs(Mfd)), 1e-12)
    hess_err = float(np.max(np.abs(M - Mfd)) / hnorm)

    sym_err = float(np.max(np.abs(M - M.T))) if N else 0.0
    sparsity_ok = True
    ndiag = len(dims)
    for i in range(ndiag):
        for j in range(ndiag):
            gap = min(abs(i - j), ndiag - abs(i - j)) if c.bc == "periodic" else abs(i - j)
            if gap > 1:
                blk = M[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                if blk.size and np.max(np.abs(blk)) > 0:
                    sparsity_ok = False
    return {"grad_rel_error": float(grad_err), "hess_rel_error": hess_err,
            "symmetry_error": sym_err, "tridiagonal": float(sparsity_ok)}
