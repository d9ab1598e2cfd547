"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run with -s to see them inline) and
asserts both the numerical criterion and its runtime budget.
"""

import time

import numpy as np
import pytest

from shadowbilliards import billiard, bvp, dls, kepler as kp, scenarios, singular, symbolic
from shadowbilliards.billiard import (BilliardDomain, expansion_residual,
                                      lyapunov_estimate, reflect, shadow_error,
                                      shadow_solve)
from shadowbilliards.dynamics import ClassicalHamiltonian, euclidean


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def loglog_slope(xs, ys):
    A = np.vstack([np.log(xs), np.ones(len(xs))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    return float(coef[0])


def test_01_exact_torus_action():
    t0 = time.time()
    scn = scenarios.torus_point_scenario()
    orb = bvp.connect(scn.h, np.zeros(2), np.zeros(2), 0.5, label=(3, 4))
    err = abs(orb.action - 5.0)
    report(1, "exact torus action", err <= 1e-9, f"|S - 5| = {err:.2e}",
           time.time() - t0, 1.0)


def test_02_variational_consistency():
    t0 = time.time()
    cases = []

    tb = scenarios.two_ball_torus_scenario(masses=(1.0, 2.0))
    cases.append(("two-ball torus", tb.dl,
                  tb.chain([(1, 0), (0, 1), (1, -1)],
                           [np.array([0.1]), np.array([0.35]), np.array([0.6])])))

    box = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
    dlb = box.lagrangian()
    cases.append(("two-ball box periodic", dlb,
                  box.periodic_chain([(-1, 1)] * 3,
                                     [np.array([0.55 + 0.02 * i]) for i in range(3)])))

    a, b = np.array([0.15, 0.85]), np.array([0.2, 0.8])
    code = [(0, 0), (-1, 1), (-1, 1), (0, 0)]
    dlf = scenarios.box_fixed_lagrangian(box, a, b, code)
    cases.append(("two-ball box fixed", dlf,
                  scenarios.box_fixed_chain(code, [np.array([0.5 + 0.05 * i])
                                                   for i in range(3)])))

    tp = scenarios.torus_point_scenario()
    sc = shadow_solve(tp.dl, tp.chain([(1, 0), (0, 1)]), 1e-2)
    cases.append(("torus tube-billiard chain", sc.joint_dl, sc.joint_chain))

    worst = {"grad": 0.0, "hess": 0.0, "sym": 0.0}
    ok = True
    for name, dl, chain in cases:
        rep = dls.variational_consistency(dl, chain)
        worst["grad"] = max(worst["grad"], rep["grad_rel_error"])
        worst["hess"] = max(worst["hess"], rep["hess_rel_error"])
        worst["sym"] = max(worst["sym"], rep["symmetry_error"])
        ok = ok and rep["grad_rel_error"] <= 1e-5 and rep["hess_rel_error"] <= 1e-4 \
            and rep["symmetry_error"] == 0.0 and rep["tridiagonal"] == 1.0
    report(2, "variational consistency",
           ok, f"grad {worst['grad']:.1e} <= 1e-5, hess {worst['hess']:.1e} <= 1e-4",
           time.time() - t0, 60.0)


def test_03_reflection_law():
    t0 = time.time()
    rng = np.random.default_rng(42)
    n_samples = 100_000
    h = ClassicalHamiltonian(euclidean(3), mass=[1.0, 2.0, 0.5])
    rng.normal(size=(4 * n_samples, 3))     # discarded: keeps the gate's recorded p and n draws
    p = rng.normal(size=(4 * n_samples, 3))
    n = rng.normal(size=(4 * n_samples, 3))
    # respect the transversal-incidence precondition (grazing draws excluded)
    v = p @ h.mass_inv.T
    cosang = np.abs(np.einsum("bi,bi->b", v, n)) / (
        np.linalg.norm(v, axis=1) * np.linalg.norm(n, axis=1))
    keep = np.where(cosang > 1e-4)[0][:n_samples]
    assert keep.size == n_samples
    p, n = p[keep], n[keep]
    p1 = reflect(h, p, n)
    minv = h.mass_inv
    e0 = 0.5 * np.einsum("bi,ij,bj->b", p, minv, p)
    e1 = 0.5 * np.einsum("bi,ij,bj->b", p1, minv, p1)
    drift = float(np.max(np.abs(e1 - e0) / np.maximum(1.0, np.abs(e0))))
    dp = p1 - p
    nn = n / np.linalg.norm(n, axis=1, keepdims=True)
    ortho = dp - np.einsum("bi,bi->b", dp, nn)[:, None] * nn
    par = float(np.max(np.linalg.norm(ortho, axis=1) / np.linalg.norm(dp, axis=1)))
    ok = drift <= 1e-12 and par <= 1e-10
    report(3, "reflection law", ok,
           f"max |dH| = {drift:.1e} <= 1e-12, off-normal {par:.1e} <= 1e-10",
           time.time() - t0, 10.0)


EPS_SWEEP = [1e-2, 10**-2.5, 1e-3, 10**-3.5]


def _torus_sweep():
    scn = scenarios.torus_point_scenario()
    chain = scn.chain([(1, 0), (0, 1)])
    out = []
    for eps in EPS_SWEEP:
        sc = shadow_solve(scn.dl, chain, eps, tol_factor=1e-12)
        out.append((eps, sc))
    return scn, chain, out


def test_04_shadowing_scaling():
    t0 = time.time()
    scn, chain, solved = _torus_sweep()
    errs = [shadow_error(scn.dl, chain, sc) for _, sc in solved]
    slope = loglog_slope(EPS_SWEEP, errs)
    ok = all(sc.residual_inf <= 1e-10 for _, sc in solved) and 0.9 <= slope <= 1.1
    report(4, "shadowing error scaling", ok, f"slope = {slope:.3f} in [0.9, 1.1]",
           time.time() - t0, 300.0)


def test_05_lyapunov_growth():
    t0 = time.time()
    scn, chain, solved = _torus_sweep()
    lams, counts = [], []
    for eps, sc in solved:
        dom = BilliardDomain(scn.h, scn.scatterer, eps)
        exps = lyapunov_estimate(sc, dom)
        lams.append(float(np.max(exps)))
        counts.append(int(np.sum(np.abs(exps) >= 0.5 * np.max(np.abs(exps)))))
    x = np.log(1.0 / np.asarray(EPS_SWEEP))
    A = np.vstack([np.ones_like(x), x]).T
    (a, b), *_ = np.linalg.lstsq(A, np.asarray(lams), rcond=None)
    pred = A @ np.array([a, b])
    r2 = 1 - np.sum((lams - pred) ** 2) / np.sum((lams - np.mean(lams)) ** 2)
    codim = scn.scatterer.codim
    ok = b > 0 and r2 >= 0.98 and all(c == codim for c in counts)
    report(5, "lyapunov growth", ok,
           f"b = {b:.3f} > 0, R^2 = {r2:.5f} >= 0.98, large count = {counts} == {codim}",
           time.time() - t0, 300.0)


def test_06_generating_expansion():
    t0 = time.time()
    scn = scenarios.torus_point_scenario()
    s_m = np.array([0.6, 0.8])
    s_p = np.array([-0.8, 0.6])
    eps_list = np.logspace(-2, -4, 9)
    resid = [expansion_residual(scn.dl, (1, 0), 0, s_m, 0, s_p, e) for e in eps_list]
    slope = loglog_slope(eps_list, resid)
    ok = abs(slope - 2.0) <= 0.1
    report(6, "generating-function expansion", ok, f"slope = {slope:.3f} = 2 +- 0.1",
           time.time() - t0, 60.0)


def test_07_hyperbolicity_certificates():
    t0 = time.time()
    # hyperbolic side: the tube-billiard chain of the torus scatterer
    tp = scenarios.torus_point_scenario()
    sc = shadow_solve(tp.dl, tp.chain([(1, 0), (0, 1)]), 1e-2)
    cert = dls.hyperbolicity_certificate(sc.joint_dl, sc.joint_chain,
                                         windows=(1, 2, 4, 8, 16))
    green = dls.green_decay(sc.joint_dl, sc.joint_chain, 0, half_width=16)

    # symmetric side: unreduced two balls on the circle
    tb = scenarios.two_ball_torus_scenario()
    chain = tb.chain([(1, 0), (0, 1)], [np.array([0.25]), np.array([0.25])])
    res = dls.newton_chain(tb.dl, chain)
    cert_sym = dls.hyperbolicity_certificate(tb.dl, res.chain, windows=(1, 2, 4, 8, 16))
    H = dls.hessian(tb.dl, res.chain)
    u = dls.symmetry_field(res.chain, tb.generator)
    hnorm = np.max(np.abs(H.matrix))
    kernel = np.max(np.abs(H.matrix @ np.concatenate(u))) / hnorm

    ok = (cert.stabilized and cert.rel_change <= 0.05
          and not cert_sym.stabilized and cert_sym.norms[-1] > 2 * cert_sym.norms[-2]
          and kernel <= 1e-8
          and green.lam > 0 and green.r_squared >= 0.95)
    report(7, "hyperbolicity certificates", ok,
           f"C_16/C_8 change {cert.rel_change:.2e} <= 0.05, symmetric C_W grows "
           f"({cert_sym.norms[-2]:.1f} -> {cert_sym.norms[-1]:.1f}), kernel {kernel:.1e}, "
           f"green lambda {green.lam:.2f} R^2 {green.r_squared:.3f}",
           time.time() - t0, 120.0)


def test_08_fixed_endpoint_two_balls():
    t0 = time.time()
    scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
    a, b = np.array([0.15, 0.85]), np.array([0.2, 0.8])
    code = [(0, 0), (-1, 1), (-1, 1), (-1, 1), (-1, 1), (0, 0)]
    dl = scenarios.box_fixed_lagrangian(scn, a, b, code)
    rng = np.random.default_rng(8)
    sols = []
    for _ in range(3):
        pts = np.sort(rng.uniform(0.3, 0.7, size=5))
        chain = scenarios.box_fixed_chain(code, [np.array([c]) for c in pts])
        res = dls.newton_chain(dl, chain)
        assert res.converged
        sols.append(np.array([float(x[0]) for x in res.chain.points]))
    spread = max(np.max(np.abs(sols[0] - s)) for s in sols[1:])
    chain = scenarios.box_fixed_chain(code, [np.array([c]) for c in sols[0]])
    solved = dls.newton_chain(dl, chain)
    sc = shadow_solve(dl, solved.chain, 1e-3)
    end_defect = max(float(np.linalg.norm(sc.orbits[0].path[0] - a)),
                     float(np.linalg.norm(sc.orbits[-1].path[-1] - b)))
    ok = spread <= 1e-9 and sc.residual_inf <= 1e-10 and end_defect <= 1e-9
    report(8, "fixed-endpoint two balls", ok,
           f"start spread {spread:.1e}, endpoint defect {end_defect:.1e} <= 1e-9",
           time.time() - t0, 120.0)


def test_09_kepler_cross_checks():
    t0 = time.time()
    z_grid = [(np.array([0.22, 0.0]), np.array([0.0, 0.28])),
              (np.array([0.25, 0.05]), np.array([-0.1, 0.2])),
              (np.array([0.15, 0.1]), np.array([0.2, -0.12]))]
    worst = 0.0
    for h in (-2.0, -1.0, -0.1):
        for n in (1, -2, 3):
            for z in z_grid:
                J = kp.J_n(h, z, n)
                path = kp.sample_orbit(h, z, n, num=200_001)
                r = np.linalg.norm(path, axis=1)
                seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
                integ = np.sqrt(2.0 / r + 2.0 * h)
                Q = float(np.sum(0.5 * (integ[1:] + integ[:-1]) * seg))
                worst = max(worst, abs(J - Q) / abs(J))

    # 2-d brute force over the split against the 1-d minimization
    diff = 0.0
    for (k, a1, a2, E) in (((2, 2), 0.5, 0.5, -0.8), ((1, 2), 0.4, 0.6, -1.0)):
        z = z_grid[0]
        res = kp.three_body_lagrangian(k, z, a1, a2, E)
        lo, hi = kp.split_feasible_interval(z, a1, a2, E)
        pad = 1e-9 * (hi - lo)
        ts = np.linspace(lo + pad, hi - pad, 3001)
        vals = [a1 * kp.J_n(t, z, k[0])
                + a2 * kp.J_n((E - a1 * t) / a2, z, k[1]) for t in ts]
        i = int(np.argmin(vals))
        aa, bb = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]

        def g(t, k=k, a1=a1, a2=a2, E=E, z=z):
            return a1 * kp.J_n(t, z, k[0]) \
                + a2 * kp.J_n((E - a1 * t) / a2, z, k[1])

        invphi = (np.sqrt(5) - 1) / 2
        c1, c2 = bb - invphi * (bb - aa), aa + invphi * (bb - aa)
        f1, f2 = g(c1), g(c2)
        for _ in range(140):
            if f1 < f2:
                bb, c2, f2 = c2, c1, f1
                c1 = bb - invphi * (bb - aa)
                f1 = g(c1)
            else:
                aa, c1, f1 = c1, c2, f2
                c2 = aa + invphi * (bb - aa)
                f2 = g(c2)
        diff = max(diff, abs(res.value - g(0.5 * (aa + bb))))
    ok = worst <= 1e-6 and diff <= 1e-9
    report(9, "kepler closed forms", ok,
           f"J_n vs quadrature {worst:.1e} <= 1e-6, split brute force {diff:.1e} <= 1e-9",
           time.time() - t0, 120.0)


def test_10_symbolic_dynamics():
    t0 = time.time()
    verts = [symbolic.OrbitVertex(i, 0, 0, np.array([np.cos(i), np.sin(i)]),
                                  np.array([np.cos(i + 1), np.sin(i + 1)]))
             for i in range(3)]
    complete = symbolic.CollisionGraph(verts, np.ones((3, 3), dtype=int))
    ent = symbolic.entropy(complete)
    err_ln3 = abs(ent.value - np.log(3.0))

    counts_ok = True
    scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    g = symbolic.build_graph(scn.graph_vertices())
    for n in range(1, 13):
        expected = symbolic.count_paths(g, n)
        if expected <= 2_000_000:
            counts_ok = counts_ok and len(symbolic.paths(g, length=n)) == expected
    ent3 = symbolic.entropy(g)
    ok = err_ln3 <= 1e-10 and counts_ok and ent3.value > 0
    report(10, "symbolic dynamics", ok,
           f"|h - ln 3| = {err_ln3:.1e} <= 1e-10, counts match to n = 12, "
           f"3-center entropy {ent3.value:.3f} > 0",
           time.time() - t0, 10.0)


def test_11_singular_shadowing():
    t0 = time.time()
    scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
    chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
    mu_list = [1e-3, 10**-3.5, 1e-4]
    rows = singular.shadow_experiment(scn.dl, chain, mu_list, alphas=scn.alphas)
    conv = all(r.converged for r in rows)
    slope = loglog_slope([r.mu for r in rows], [r.sup_error for r in rows]) \
        if conv else float("nan")
    ratios = [r.min_distance / r.predicted_r_p for r in rows]
    scale_ok = all(1 / 3 <= r <= 3 for r in ratios)
    ok = conv and slope >= 0.8 and scale_ok
    report(11, "singular-flow shadowing", ok,
           f"converged = {conv}, slope = {slope:.3f} >= 0.8, "
           f"approach ratios = {[f'{r:.2f}' for r in ratios]}",
           time.time() - t0, 600.0)
