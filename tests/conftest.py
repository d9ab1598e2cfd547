"""Load the package before any test module loads numpy; shared model fixtures.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, and
shadowbilliards sets its one-thread pin on import: importing it here, before
pytest collects the test modules, makes the suite run on the pinned OpenBLAS.

The potentials and the link below are models that only tests build: the
shipped runs fly free or Kepler flights and use the scenarios' own links.
central_diff is the tests' finite-difference helper, and dense_chain_matrix
their reference for the chain matrix (link_stacks stacks such blocks as
the chain matrix takes them), and link_endpoints the one-link
reference for the endpoints of a chain's links. Test modules import them with
`from conftest import ...`. stencil_lyapunov is the flown
finite-difference monodromy that billiard.lyapunov_estimate replaced, kept
as the tests' reference for its exponents. chart_point, chart_jacobian and
link_orbit are the one-chart forms of the tube-chart geometry that
billiard._SiteChart.rows replaced, kept as the tests' reference for its rows.
"""

import sys

import pytest

_NUMPY_BEFORE_PIN = "numpy" in sys.modules

import shadowbilliards  # noqa: E402,F401
import numpy as np  # noqa: E402

from shadowbilliards.billiard import (EventSearchError, GrazingEventError,  # noqa: E402
                                      _FrozenChart, _section_project, _SiteChart,
                                      billiard_trajectory)
from shadowbilliards.dls import LinkEvaluator, difference_hessians  # noqa: E402
from shadowbilliards.dynamics import PhaseState, Potential  # noqa: E402
from shadowbilliards.scatterer import SphereChart  # noqa: E402


def central_diff(f, x, h: float) -> np.ndarray:
    """Central differences of f at x along each coordinate axis.

    Entry i of the last axis is (f(x + h e_i) - f(x - h e_i)) / (2 h): the
    gradient of a scalar f, the Jacobian of a vector f; empty for empty x.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(0)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        col = (f(x + e) - f(x - e)) / (2 * h)
        if i == 0:
            out = np.empty(np.shape(col) + (x.size,))
        out[..., i] = col
    return out


def dense_chain_matrix(blocks, periodic: bool) -> np.ndarray:
    """Reference chain matrix of per-link blocks (D--, D-+, D++), one link at a time.

    Each link's joint block [[D--, D-+], [D-+^T, D++]] is summed onto its
    (minus, plus) sites. Link j of a periodic chain of n links joins sites j
    and j+1 mod n; link j of an open chain of n+1 links joins sites j-1 and j,
    and slots outside the sites 0..n-1 are dropped.
    """
    n = len(blocks) if periodic else len(blocks) - 1
    d = blocks[0][2].shape[0]
    M = np.zeros((n * d, n * d))
    for j, (mm, mp, pp) in enumerate(blocks):
        a, b = (j, (j + 1) % n) if periodic else (j - 1, j)
        for r, c, blk in ((a, a, mm), (a, b, mp), (b, a, mp.T), (b, b, pp)):
            if 0 <= r < n and 0 <= c < n:
                M[r * d:(r + 1) * d, c * d:(c + 1) * d] += blk
    return M


def link_stacks(blocks):
    """Per-link blocks (D--, D-+, D++) stacked over the links, as the chain
    matrix takes them: (n, d, d) each, a slot without chart coordinates (an
    outermost slot of a fixed chain) in zero blocks."""
    d = max(b[2].shape[0] for b in blocks)
    out = np.zeros((3, len(blocks), d, d))
    for j, link in enumerate(blocks):
        for k, blk in enumerate(link):
            if blk.size:
                out[k, j] = blk
    return out[0], out[1], out[2]


@pytest.fixture
def numpy_loaded_before_pin():
    """Whether numpy was already loaded when the package set its pin."""
    return _NUMPY_BEFORE_PIN


class HarmonicPotential(Potential):
    """W(q) = (k/2) |q - center|^2."""

    def __init__(self, k: float = 1.0, center=None):
        self.k = float(k)
        self.center = None if center is None else np.asarray(center, dtype=float)

    def value(self, q):
        r = self._rel(q)
        return 0.5 * self.k * float(r @ r)

    def grad(self, q):
        return self.k * self._rel(q)


class CallablePotential(Potential):
    """Wrap plain callables; gradient by central differences if not supplied."""

    def __init__(self, fn, grad=None):
        self.fn = fn
        self._grad = grad

    def value(self, q):
        return float(self.fn(np.asarray(q, dtype=float)))

    def grad(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 2:   # the user functions take one point: apply them per row
            return np.stack([self.grad(row) for row in q])
        if self._grad is not None:
            return np.asarray(self._grad(q), dtype=float)
        return central_diff(self.fn, q, 1e-6)


class FunctionLink(LinkEvaluator):
    """Link branch given by a plain function of (xm, xp), for synthetic systems.

    Gradients are central differences of the function (step 1e-6), row by
    row; Hessians are difference_hessians of those gradients.
    """

    def __init__(self, fn):
        self.fn = fn

    @classmethod
    def values(cls, links, XM, XP):
        return np.array([float(link.fn(xm, xp)) for link, xm, xp in zip(links, XM, XP)])

    @classmethod
    def grads(cls, links, XM, XP):
        rows = [(central_diff(lambda x: float(link.fn(x, xp)), xm, 1e-6),
                 central_diff(lambda x: float(link.fn(xm, x)), xp, 1e-6))
                for link, xm, xp in zip(links, XM, XP)]
        return (np.array([r[0] for r in rows]).reshape(len(links), XM.shape[1]),
                np.array([r[1] for r in rows]).reshape(len(links), XP.shape[1]))

    @classmethod
    def hessians(cls, links, XM, XP):
        return difference_hessians(cls, links, XM, XP)


def link_endpoints(c, j):
    """Chart points (minus, plus) of link j of chain c, one link at a time:
    link j of a periodic chain joins points j and j+1 mod n; link j of a
    fixed chain joins points j-1 and j, and its outermost slots are empty."""
    if c.bc == "periodic":
        n = c.n_free
        return c.points[j % n], c.points[(j + 1) % n]
    left = np.zeros(0) if j == 0 else c.points[j - 1]
    right = np.zeros(0) if j == c.n_links - 1 else c.points[j]
    return left, right


def chart_base(chart, u):
    """Base point of a site chart at u = (dx, sigma): its reference point
    moved by dx, or a point scatterer's point id."""
    if not chart.x_dim:
        return chart.base_ref
    return np.asarray(chart.base_ref, dtype=float) + np.asarray(u, dtype=float)[:chart.x_dim]


def chart_point(chart, u):
    """One-chart tube point Q(u): the scatterer's tube_point at the base
    point and the sphere chart's value, or a frozen slot's point."""
    if isinstance(chart, _FrozenChart):
        return chart.point
    sigma = np.asarray(u, dtype=float)[chart.x_dim:]
    return chart.scat.tube_point(chart_base(chart, u), chart.sphere.value(sigma), chart.eps)


def chart_jacobian(chart, u):
    """One-chart DQ(u), (d, dim): the scatterer Jacobian beside eps times the
    normal frame times the sphere chart's Jacobian (T - s s^T T) / |v|; a
    frozen slot has no columns."""
    if isinstance(chart, _FrozenChart):
        return np.zeros((chart.point.size, 0))
    sigma = np.asarray(u, dtype=float)[chart.x_dim:]
    x = chart_base(chart, u)
    T = chart.sphere.basis
    v = chart.sphere.center + T @ sigma
    n = np.linalg.norm(v)
    s = v / n
    _, nor = chart.scat.frames(x)
    J = np.empty((chart.scat.space.dim, chart.dim))
    if chart.x_dim:
        J[:, :chart.x_dim] = chart.scat.jacobian(x)
    J[:, chart.x_dim:] = chart.eps * nor @ ((T - np.outer(s, s @ T)) / n)
    return J


def link_orbit(link, um, up):
    """A tube link's connecting orbit between its slots' one-chart tube points."""
    return link.base.ambient_connect(chart_point(link.left, um), chart_point(link.right, up),
                                     link.eps)


def _section_lift(dom, chart, xi, y, E):
    """Phase state on the energy shell at section coordinates (xi, y): the
    momentum J (J^T J)^-1 y plus the outward-normal part that reaches E."""
    q = chart_point(chart, xi)
    J = chart_jacobian(chart, xi)
    _, nor = dom.scatterer.frames(chart_base(chart, xi))
    n_amb = nor @ chart.sphere.value(xi)
    p0 = J @ np.linalg.solve(J.T @ J, y)
    minv = dom.h.mass_inv
    a = 0.5 * float(n_amb @ minv @ n_amb)
    b = float(n_amb @ minv @ p0)
    c0 = 0.5 * float(p0 @ minv @ p0) + dom.h.potential.value(q) - E
    disc = b * b - 4 * a * c0
    if disc < 0:
        raise EventSearchError("section lift infeasible: energy shell unreachable")
    return PhaseState(q, p0 + (-b + np.sqrt(disc)) / (2 * a) * n_amb, 0.0)


def stencil_lyapunov(sc, dom, out_target=1e-3):
    """Lyapunov exponents from a flown 4-point stencil of each bounce map.

    Each column of each bounce's tangent map is a fourth-order central
    difference in the similarity-scaled section coordinates (xi, y/eps), its
    step calibrated so the output moves by about out_target; the exponents
    come from the cyclic block-companion matrix, as in lyapunov_estimate.
    Its error is measured by rerunning it at half the out_target.
    """
    n = len(sc.boundary)
    E = dom.h.energy(sc.boundary[0].ambient, sc.orbits[0].p_minus)
    charts = [_SiteChart(dom.scatterer, bp.x, SphereChart(bp.s), sc.eps) for bp in sc.boundary]
    XI, Y = _section_project(dom, charts, [bp.ambient for bp in sc.boundary],
                             np.array([orbit.p_minus for orbit in sc.orbits]))
    states = list(zip(XI, Y))
    dim = charts[0].dim
    yscale = sc.eps
    links = []
    for i in range(n):
        def evaluate(z):
            state = _section_lift(dom, charts[i], z[:dim], z[dim:] * yscale, E)
            ev = billiard_trajectory(dom, state, 1).events[-1]
            (xi1,), (y1,) = _section_project(dom, [charts[(i + 1) % n]], [ev.q],
                                             ev.p_after[None])
            return np.concatenate([xi1, y1 / yscale])

        z0 = np.concatenate([states[i][0], states[i][1] / yscale])
        D = np.empty((2 * dim, 2 * dim))
        for a in range(2 * dim):
            h = 3e-3 * yscale
            delta = None
            for _ in range(60):
                e = np.zeros(2 * dim)
                e[a] = h
                try:
                    delta = np.linalg.norm(evaluate(z0 + 2 * e) - evaluate(z0 - 2 * e))
                except (ValueError, EventSearchError, GrazingEventError):
                    h *= 0.25
                    continue
                if delta > 4 * out_target:
                    h *= 0.5
                    continue
                break
            if delta is None:
                raise EventSearchError("could not calibrate a finite-difference step")
            if delta > 0:
                h = min(h, h * (4 * out_target / delta))
            e = np.zeros(2 * dim)
            e[a] = h
            vals = [evaluate(z0 + fac * e) for fac in (-2, -1, 1, 2)]
            D[:, a] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        links.append(D)
    m = 2 * dim
    C = np.zeros((n * m, n * m))
    for i in range(n):
        j = (i + 1) % n
        C[j * m:(j + 1) * m, i * m:(i + 1) * m] = links[i]
    mods = np.sort(np.log(np.abs(np.linalg.eigvals(C))))[::-1]
    return np.array([np.mean(mods[k * n:(k + 1) * n]) for k in range(m)])
