"""Discrete Lagrangian systems over a scatterer: actions, Newton, certificates.

A multivalued Lagrangian assigns to each symbol k a two-point function L_k on
chart coordinates of the scatterer. Chains of symbols and points carry the
discrete action; its gradient vanishes exactly when the tangential part of
the momentum jump vanishes at every collision. Its Hessian, and the Hessian
of every Dirichlet window of a periodic chain, is the chain matrix that
blocktri assembles from the links' second-derivative blocks (block
tridiagonal, cyclic for periodic chains). A chain's points are one array,
and every evaluation of the branches runs by link family: the links of a
chain that share a class and which of their slots have a site are evaluated
together, their endpoints gathered row by row from the points. The families
of a code, its layout, are built once per Lagrangian.
Hyperbolicity is certified through uniform sup-norm bounds on inverses of
centered Dirichlet windows, with the Green-function decay rate fitted as a
cross-check.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .blocktri import BlockTridiagonalFactor, LinkBlocks, inverse_inf_norm, solve_window


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
    and which of their slots have a site (so slot dimensions), their
    endpoints stacked row by row in XM (n, dim_minus) and XP (n, dim_plus).
    One link is the one-row family; per-link constants that a class stacks
    through family_constants are kept on a layout's Family.
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
    layouts keeps the link families (layout) of every (code, bc) evaluated
    under this Lagrangian, so its symbol table must not change after a first
    evaluation.
    """

    links: Mapping[object, LinkEvaluator]
    energy: Optional[float] = None
    scatterer: object = None
    name: str = ""
    site_bases: Optional[Callable] = None
    ambient_endpoints: Optional[Callable] = None
    layouts: Dict[tuple, list] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

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
# Chain configurations and their family layouts
# ---------------------------------------------------------------------------

@dataclass
class ChainConfiguration:
    """Symbol code plus scatterer points in chart coordinates.

    points is one array (n_free, m): row i is the chart point of site i, and
    every site has the same chart dimension m (a sequence of equal-size points
    is stacked; unequal sizes raise ValueError). periodic: link j joins x_j to
    x_{j+1 mod n}. fixed: len(code) = n_free + 1, link j joins x_{j-1} to
    x_j, and the outermost slots have no chart coordinates, since the boundary
    branches close over their ambient endpoints.
    """

    code: List[object]
    points: np.ndarray
    bc: str = "periodic"

    def __post_init__(self):
        P = self.points
        if not (isinstance(P, np.ndarray) and P.ndim == 2):
            rows = [np.ravel(np.asarray(x, dtype=float)) for x in P]
            if len({x.size for x in rows}) > 1:
                raise ValueError("chain points must share one chart dimension")
            P = np.array(rows).reshape(len(rows), rows[0].size if rows else 0)
        self.points = np.asarray(P, dtype=float)
        if self.bc == "periodic":
            if len(self.code) != len(self.points):
                raise ValueError("periodic chain needs one point per link")
        elif self.bc == "fixed":
            if len(self.code) != len(self.points) + 1:
                raise ValueError("fixed chain needs len(code) = len(points) + 1")
        else:
            raise ValueError("bc must be 'periodic' or 'fixed'")

    @property
    def n_links(self) -> int:
        return len(self.code)

    @property
    def n_free(self) -> int:
        return len(self.points)

    def with_points(self, points: np.ndarray) -> "ChainConfiguration":
        """The same code at points, an array shaped like self.points."""
        return ChainConfiguration(self.code, points, self.bc)


class Family(tuple):
    """The links of one family of a chain layout, in chain order.

    To the evaluators any sequence of links is a family; this one also keeps
    the constants its link class stacks from the links (family_constants),
    so a layout stacks them once.
    """

    constants = None


def family_constants(links: Sequence[LinkEvaluator], stack: Callable):
    """stack(links): the per-link constants of a family, as arrays. A Family
    keeps them, so each layout stacks them once; any other sequence of links
    (one link, a plain list) stacks them on every call."""
    if not isinstance(links, Family):
        return stack(links)
    if links.constants is None:
        links.constants = stack(links)
    return links.constants


@dataclass
class LayoutFamily:
    """One family of a layout: the links of a chain that share a class and
    which of their slots have a site. idx holds the links' places in the
    code; minus and plus the rows of the chain's points at their slots, None
    where the slot has no site (the outermost slots of a fixed chain)."""

    cls: type
    links: Family
    idx: np.ndarray
    minus: Optional[np.ndarray]
    plus: Optional[np.ndarray]


def layout(dl: DiscreteLagrangian, c: ChainConfiguration) -> List[LayoutFamily]:
    """The families of the chain's links, in order of first appearance: built
    on its Lagrangian's first evaluation of its (code, bc) and kept there.
    Site i is the plus slot of its incoming link and the minus slot of its
    outgoing link."""
    key = (tuple(c.code), c.bc)
    if key not in dl.layouts:
        n = c.n_links
        groups: Dict[tuple, list] = {}
        for j, k in enumerate(c.code):
            link = dl.link(k)
            lo, hi = (j, (j + 1) % n) if c.bc == "periodic" else (j - 1, j if j < n - 1 else -1)
            groups.setdefault((type(link), lo >= 0, hi >= 0), []).append((j, link, lo, hi))
        families = []
        for (cls, has_minus, has_plus), rows in groups.items():
            idx, links, lo, hi = zip(*rows)
            families.append(LayoutFamily(cls, Family(links), np.array(idx),
                                         np.array(lo) if has_minus else None,
                                         np.array(hi) if has_plus else None))
        dl.layouts[key] = families
    return dl.layouts[key]


def _families(dl: DiscreteLagrangian, c: ChainConfiguration):
    """(family, XM, XP) per family of the chain's layout: the minus and plus
    endpoints of its rows, each slot gathered by one fancy index (no
    columns where the slot has no site)."""
    P = c.points
    for fam in layout(dl, c):
        empty = np.zeros((len(fam.links), 0))
        yield (fam, empty if fam.minus is None else P[fam.minus],
               empty if fam.plus is None else P[fam.plus])


def _evaluate(fam: LayoutFamily, method: str, XM: np.ndarray, XP: np.ndarray):
    """The family's class method `method` on its rows. A family without chart
    coordinates on either slot has empty gradient and Hessian rows."""
    if method in ("grads", "hessians") and not (XM.shape[1] or XP.shape[1]):
        k = len(fam.links)
        return (np.zeros((k, 0)),) * 2 if method == "grads" else (np.zeros((k, 0, 0)),) * 3
    return getattr(fam.cls, method)(fam.links, XM, XP)


def _per_link(dl: DiscreteLagrangian, c: ChainConfiguration, method: str) -> list:
    """Family method `method` over the chain, scattered to one entry per link."""
    out: list = [None] * c.n_links
    for fam, XM, XP in _families(dl, c):
        res = _evaluate(fam, method, XM, XP)
        rows = zip(*res) if isinstance(res, tuple) else res
        for j, row in zip(fam.idx.tolist(), rows):
            out[j] = row
    return out


def _per_site(dl: DiscreteLagrangian, c: ChainConfiguration, method: str):
    """The rows (minus, plus) of the pair-valued family method `method`
    scattered to the sites: row i of the first holds the minus row of site
    i's outgoing link, row i of the second the plus row of its incoming link."""
    at: list = [np.zeros((c.n_free, 0)), np.zeros((c.n_free, 0))]
    for fam, XM, XP in _families(dl, c):
        for side, sites, rows in zip((0, 1), (fam.minus, fam.plus),
                                     _evaluate(fam, method, XM, XP)):
            if sites is not None:
                if at[side].shape[1:] != rows.shape[1:]:
                    at[side] = np.empty((c.n_free,) + rows.shape[1:])
                at[side][sites] = rows
    return at


def _check_domains(dl: DiscreteLagrangian, c: ChainConfiguration):
    """Raise ChainDomainError at the first link outside its branch's domain."""
    ok = np.empty(c.n_links, dtype=bool)
    for fam, XM, XP in _families(dl, c):
        ok[fam.idx] = fam.cls.in_domain(fam.links, XM, XP)
    bad = np.flatnonzero(~ok)
    if bad.size:
        j = int(bad[0])
        raise ChainDomainError(f"link {j} (symbol {c.code[j]}) left its domain")


def chain_action(dl: DiscreteLagrangian, c: ChainConfiguration) -> float:
    """Sum of branch Lagrangians over the chain with the boundary wrap applied,
    added in link order."""
    _check_domains(dl, c)
    values = np.empty(c.n_links)
    for fam, XM, XP in _families(dl, c):
        values[fam.idx] = fam.cls.values(fam.links, XM, XP)
    total = 0.0
    for v in values.tolist():
        total += v
    return float(total)


def residual(dl: DiscreteLagrangian, c: ChainConfiguration) -> np.ndarray:
    """Gradient of the discrete action at each free site, shaped like c.points.

    Site i collects D+ of its incoming branch and D- of its outgoing branch,
    i.e. the tangential projection of (p_i^+ - p_i^-); it vanishes exactly at
    the elastic-reflection (tangential momentum conservation) condition.
    """
    d_minus, d_plus = _per_site(dl, c, "grads")
    return d_plus + d_minus


def residual_norm(res: np.ndarray) -> float:
    """Sup-norm over every entry; NaN if any entry is NaN."""
    return float(np.max(np.abs(res), initial=0.0))


def link_hessians(dl: DiscreteLagrangian, c: ChainConfiguration) -> LinkBlocks:
    """(D--, D-+, D++) of every link, stacked over the links, (n_links, m, m)
    each; the blocks of a slot without a site are zero."""
    blocks = np.zeros((3, c.n_links) + c.points.shape[1:] * 2)
    for fam, XM, XP in _families(dl, c):
        mm, mp, pp = _evaluate(fam, "hessians", XM, XP)
        if fam.minus is not None:
            blocks[0][fam.idx] = mm
        if fam.minus is not None and fam.plus is not None:
            blocks[1][fam.idx] = mp
        if fam.plus is not None:
            blocks[2][fam.idx] = pp
    return blocks[0], blocks[1], blocks[2]


def hessian(dl: DiscreteLagrangian, c: ChainConfiguration) -> BlockTridiagonalFactor:
    """The second variation of the chain action: the chain matrix of its link
    Hessians, periodic or fixed as the chain is."""
    return BlockTridiagonalFactor(link_hessians(dl, c), c.bc == "periodic")


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
    if c0.points.size == 0:
        return NewtonResult(c0, 0.0, np.inf, 0, True)
    _check_domains(dl, c0)

    def step(state):
        c, res = state
        H = hessian(dl, c)
        try:
            return H.solve(-res)
        except np.linalg.LinAlgError as exc:
            if not allow_singular:
                raise NewtonError("singular chain Hessian") from exc
            flat, *_ = np.linalg.lstsq(H.matrix, -res.ravel(), rcond=None)
            return flat.reshape(res.shape)

    def trial(state, d, lam):
        c = state[0].with_points(state[0].points + lam * d)
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
             half_widths: Sequence[int]) -> List[LinkBlocks]:
    """Stacked link blocks of the Dirichlet windows of the periodic extension
    of the chain centered at site `center`: for half-width W, the open chain
    of links center-W-1 ... center+W, taken mod n."""
    if c.bc != "periodic":
        raise ValueError("window certificates act on periodic chains")
    H = link_hessians(dl, c)
    links = [np.arange(center - W - 1, center + W + 1) % c.n_links for W in half_widths]
    return [tuple(b[idx] for b in H) for idx in links]


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
    m = c.points.shape[1]
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
    """(site, p^-, p^+) ambient momenta around each free site: p^- of its
    outgoing link and p^+ of its incoming one, from one momenta_rows() call
    per family."""
    p_minus, p_plus = _per_site(dl, c, "momenta_rows")
    return [(i, p_minus[i], p_plus[i]) for i in range(c.n_free)]


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


def tangent_momenta(dl: DiscreteLagrangian, c: ChainConfiguration) -> np.ndarray:
    """y_i = D+ L at the incoming slot of each site (chart covectors), shaped
    like c.points."""
    return _per_site(dl, c, "grads")[1]


def noether_values(dl: DiscreteLagrangian, c: ChainConfiguration,
                   generator: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """<u(x_i), y_i> per site; constant along critical chains of a symmetric DLS."""
    ys = tangent_momenta(dl, c)
    return np.array([float(np.asarray(generator(x)) @ y) for x, y in zip(c.points, ys)])


def symmetry_field(c: ChainConfiguration,
                   generator: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The generator at every site, shaped like c.points."""
    return np.array([np.asarray(generator(x), dtype=float) for x in c.points])


def variational_consistency(dl: DiscreteLagrangian, c: ChainConfiguration) -> Dict[str, float]:
    """Compare residual and Hessian against finite differences of chain_action.

    Steps are 1e-6 for the gradient and 4e-5 for the Hessian. Returns
    relative errors and structural checks; criterion 2 of the acceptance gate
    checks them.
    """
    fd_step = 1e-6
    res = residual(dl, c)
    P = c.points
    n, m = P.shape
    grad_fd = np.zeros_like(P)
    for i in range(n):
        for a in range(m):
            pts = P.copy()
            pts[i, a] += fd_step
            fp = chain_action(dl, c.with_points(pts))
            pts[i, a] -= 2 * fd_step
            fm = chain_action(dl, c.with_points(pts))
            grad_fd[i, a] = (fp - fm) / (2 * fd_step)
    gnorm = max(1e-12, np.max(np.abs(grad_fd), initial=0.0))
    grad_err = np.max(np.abs(grad_fd - res), initial=0.0) / gnorm

    M = hessian(dl, c).matrix
    N = M.shape[0]
    Mfd = np.zeros_like(M)
    flat = P.ravel()

    def act(v):
        return chain_action(dl, c.with_points(v.reshape(P.shape)))

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
    # largest entry of each site block, and the sites' distance along the chain
    block_max = np.abs(M).reshape(n, m, n, m).max(axis=(1, 3), initial=0.0)
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if c.bc == "periodic":
        gap = np.minimum(gap, n - gap)
    sparsity_ok = not np.any(block_max[gap > 1] > 0)
    return {"grad_rel_error": float(grad_err), "hess_rel_error": hess_err,
            "symmetry_error": sym_err, "tridiagonal": float(sparsity_ok)}
