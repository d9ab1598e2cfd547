"""Scenario runner and report emitter.

Scenario files are JSON; the `family` field selects a shipped configuration,
`params` feeds it, optional `sweeps`, `gates` and `out` (no other top-level
field) control the pipeline. Reports are CSV tables with named-and-united
header rows plus a JSON summary; output is byte-identical for identical files
and seeds.

The one command, `scenario run`, runs the family's whole pipeline.
Exit codes: 0 success, 1 gate failure, 2 invalid scenario or command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import billiard, dls as dlsmod, kepler as kpmod, scenarios, singular, symbolic
from .billiard import (BilliardDomain, EventSearchError, GrazingEventError, ShadowSolveError,
                       lyapunov_estimate, shadow_error, shadow_solve)
from .bvp import ConnectError


class ScenarioError(ValueError):
    """Scenario file invalid; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

SECTIONS = ("name", "family", "params", "sweeps", "gates", "out")


def _json_type(t) -> str:
    return "object" if t is dict else t.__name__


def _get(obj, path: str, typ, required: bool = True, default=None):
    cur = obj
    trail = "scenario"
    for part in path.split("."):
        if not isinstance(cur, dict):
            raise ScenarioError(f"{trail}: expected object, got {type(cur).__name__}")
        if part not in cur:
            if required:
                raise ScenarioError(f"{trail}.{part}: missing required field")
            return default
        cur = cur[part]
        trail += f".{part}"
    if typ in (int, float) and isinstance(cur, bool):
        raise ScenarioError(f"{trail}: expected {typ.__name__}, got bool")
    if typ is float and isinstance(cur, int):
        cur = float(cur)
    if typ is not None and not isinstance(cur, typ):
        raise ScenarioError(f"{trail}: expected {_json_type(typ)}, "
                            f"got {_json_type(type(cur))}")
    return cur


def _num_list(obj, path: str, default: List[float]) -> List[float]:
    """An optional nonempty list of JSON numbers, as floats; default when absent."""
    v = _get(obj, path, list, False, default)
    if not v and v is not default:
        raise ScenarioError(f"scenario.{path}: expected a nonempty list")
    return _numbers(v, path)


def _numbers(v: list, path: str) -> List[float]:
    out = []
    for i, x in enumerate(v):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ScenarioError(f"scenario.{path}[{i}]: expected number")
        out.append(float(x))
    return out


def _int_lists(obj, path: str, width: int, default=None) -> List[tuple]:
    """A nonempty list of lists of `width` JSON integers (chain codes,
    revolution pairs), each as a tuple; required unless a default is given."""
    v = _get(obj, path, list, default is None, default)
    if not v:
        raise ScenarioError(f"scenario.{path}: expected a nonempty list")
    out = []
    for i, k in enumerate(v):
        if not isinstance(k, list) or len(k) != width:
            raise ScenarioError(f"scenario.{path}[{i}]: expected a list of {width} integers")
        for j, x in enumerate(k):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ScenarioError(f"scenario.{path}[{i}][{j}]: expected integer")
        out.append(tuple(k))
    return out


def _require(ok: bool, path: str, expected: str) -> None:
    """A value the field's type admits but no run can use; exit 2 naming it."""
    if not ok:
        raise ScenarioError(f"scenario.{path}: expected {expected}")


def _positive(values: Sequence[float], path: str) -> None:
    for i, x in enumerate(values):
        _require(x > 0, f"{path}[{i}]", "a positive number")


def _point(v, path: str) -> np.ndarray:
    """A planar position: a list of 2 JSON numbers, as a float array."""
    _require(isinstance(v, list) and len(v) == 2, path, "a list of 2 numbers")
    return np.asarray(_numbers(v, path))


def _two_masses(cfg) -> List[float]:
    masses = _num_list(cfg, "params.masses", [1.0, 1.0])
    _require(len(masses) == 2, "params.masses", "2 entries, one per ball")
    _positive(masses, "params.masses")
    return masses


def _windows(cfg) -> List[int]:
    """sweeps.windows: certificate half-widths, two or more increasing integers >= 0."""
    windows = _num_list(cfg, "sweeps.windows", [1, 2, 4, 8, 16])
    _require(len(windows) >= 2, "sweeps.windows", "at least two half-widths")
    for i, w in enumerate(windows):
        _require(w >= 0 and w == int(w), f"sweeps.windows[{i}]", "a nonnegative integer")
        _require(i == 0 or w > windows[i - 1], f"sweeps.windows[{i}]",
                 f"a half-width above sweeps.windows[{i - 1}] = {windows[i - 1]:g}")
    return [int(w) for w in windows]


def load_scenario(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from exc
    _get(data, "name", str)
    extra = [key for key in data if key not in SECTIONS]
    if extra:
        raise ScenarioError(f"scenario.{extra[0]}: unknown field; allowed: {', '.join(SECTIONS)}")
    family = _get(data, "family", str)
    if family not in FAMILIES:
        raise ScenarioError(f"scenario.family: unknown family {family!r}; "
                            f"known: {sorted(FAMILIES)}")
    _get(data, "params", dict)
    _get(data, "sweeps", dict, False)
    _get(data, "gates", dict, False)
    _get(data, "out", str, False)
    return data


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, (int, float, np.integer, np.floating))
                              else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def loglog_slope(xs, ys):
    """Slope of log ys against log xs, and the R^2 of that fit."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    coef, r2 = dlsmod.linear_fit(np.vstack([lx, np.ones_like(lx)]).T, ly)
    return float(coef[0]), r2


# ---------------------------------------------------------------------------
# Family pipelines
# ---------------------------------------------------------------------------

def run_torus_point(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    dim = int(_get(cfg, "params.dim", int, False, 2))
    _require(dim >= 1, "params.dim", "a positive integer")
    periods = _num_list(cfg, "params.periods", [1.0] * dim)
    _require(len(periods) == dim, "params.periods", f"{dim} entries, one per dimension")
    _positive(periods, "params.periods")
    E = _get(cfg, "params.energy", float, False, 0.5)
    _require(E > 0, "params.energy", "a positive number")
    code = _int_lists(cfg, "params.code", dim)
    for i, k in enumerate(code):
        _require(any(k), f"params.code[{i}]", "a nonzero winding")
    eps_list = _num_list(cfg, "sweeps.eps", [1e-2, 10**-2.5, 1e-3, 10**-3.5])
    tube = min(periods) / 2
    for i, eps in enumerate(eps_list):
        _require(0 < eps < tube, f"sweeps.eps[{i}]",
                 f"a positive number below the tube radius min(periods)/2 = {tube:g}")
    windows = _windows(cfg)
    slope_gate = _num_list(cfg, "gates.error_slope", [0.9, 1.1])
    if len(slope_gate) != 2:
        raise ScenarioError("scenario.gates.error_slope: expected [low, high]")
    lyap_gate = _get(cfg, "gates.lyapunov", bool, False, True)
    lyap_r2_gate = _get(cfg, "gates.lyap_r2", float, False, 0.98)
    cert_gate = _get(cfg, "gates.certificate", bool, False, True)

    scn = scenarios.torus_point_scenario(dim, periods, E)
    chain = scn.chain(code)
    reports = dlsmod.admissible(scn.dl, chain)
    if not all(r.admissible for r in reports):
        raise ScenarioError("params.code: inadmissible chain (parallel consecutive windings)")

    def one_eps(eps):
        """(eps, error, exponents, shadow chain), or the failure's report line."""
        try:
            sc = shadow_solve(scn.dl, chain, eps)
            err = shadow_error(scn.dl, chain, sc)
            exps = lyapunov_estimate(sc, BilliardDomain(scn.h, scn.scatterer, eps))
        except (EventSearchError, GrazingEventError, ShadowSolveError, ConnectError) as exc:
            return f"eps={eps:.3e}: {type(exc).__name__}: {exc}"
        return eps, err, exps, sc

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        outcomes = list(pool.map(one_eps, eps_list))
    # a failed eps is left out of the tables and fits
    failures = [r for r in outcomes if isinstance(r, str)]
    results = [r for r in outcomes if not isinstance(r, str)]
    if not results:
        return {"failures": failures}
    eps_list = [r[0] for r in results]

    rows = [(eps, err) for eps, err, _, _ in results]
    write_csv(out / "shadow_errors.csv",
              ["eps[tube radius]", "sup_error[length]"], rows)
    slope, slope_r2 = loglog_slope([r[0] for r in rows], [r[1] for r in rows])

    lrows = [(eps, *exps) for eps, _, exps, _ in results]
    nex = len(results[0][2])
    write_csv(out / "lyapunov.csv",
              ["eps[tube radius]"] + [f"exponent_{i}[per bounce]" for i in range(nex)],
              lrows)
    lam_max = [float(np.max(e)) for _, _, e, _ in results]
    lx = np.log(1.0 / np.asarray(eps_list))
    (a_fit, b_fit), lyap_r2 = dlsmod.linear_fit(np.vstack([np.ones_like(lx), lx]).T,
                                                np.asarray(lam_max))
    big = [int(np.sum(np.abs(e) >= 0.5 * np.max(np.abs(e)))) for _, _, e, _ in results]

    sc0 = results[0][3]
    cert = dlsmod.hyperbolicity_certificate(sc0.joint_dl, sc0.joint_chain, windows)
    write_csv(out / "certificate.csv", ["half_width[sites]", "C_W[sup-norm bound]"],
              list(zip(cert.windows, cert.norms)))
    green = dlsmod.green_decay(sc0.joint_dl, sc0.joint_chain, 0, half_width=16)
    write_csv(out / "green.csv", ["offset[sites]", "response_norm[chart units]"],
              list(zip(green.offsets.tolist(), green.norms.tolist())))

    dom0 = BilliardDomain(scn.h, scn.scatterer, eps_list[0])
    run0 = billiard.replay(sc0, dom0)
    # surface[index] is always 0, the tube: the column keeps the file's layout
    ev_rows = [(ev.t, *ev.q.tolist(), *ev.p_before.tolist(), *ev.p_after.tolist(), 0)
               for ev in run0.events]
    d = scn.h.dim
    write_csv(out / "events.csv",
              ["t[time]"] + [f"q{i}[length]" for i in range(d)]
              + [f"p_before_{i}[momentum]" for i in range(d)]
              + [f"p_after_{i}[momentum]" for i in range(d)] + ["surface[index]"],
              ev_rows)

    report = {
        "error_slope": slope, "error_slope_r2": slope_r2,
        "lyapunov_fit": {"a": float(a_fit), "b": float(b_fit), "r2": lyap_r2},
        "large_exponent_counts": big,
        "certificate": {"windows": list(cert.windows), "norms": list(cert.norms),
                        "stabilized": cert.stabilized, "rel_change": cert.rel_change},
        "green": {"lambda": green.lam, "r2": green.r_squared},
    }
    if not (slope_gate[0] <= slope <= slope_gate[1]):
        failures.append(f"error slope {slope:.3f} outside {slope_gate}")
    if lyap_gate and not (b_fit > 0 and lyap_r2 >= lyap_r2_gate):
        failures.append(f"lyapunov fit b={b_fit:.3f}, r2={lyap_r2:.4f}")
    if cert_gate and not cert.stabilized:
        failures.append("certificate did not stabilize")
    report["failures"] = failures
    return report


def run_two_ball_torus(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    masses = _two_masses(cfg)
    E = _get(cfg, "params.energy", float, False, 0.5)
    _require(E > 0, "params.energy", "a positive number")
    period = _get(cfg, "params.period", float, False, 1.0)
    _require(period > 0, "params.period", "a positive number")
    code = _int_lists(cfg, "params.code", 2)
    for i, k in enumerate(code):
        _require(k[0] != k[1], f"params.code[{i}]", "two different windings")
    pts = _num_list(cfg, "params.points", [0.0] * len(code))
    _require(len(pts) == len(code), "params.points",
             f"{len(code)} entries, one per code entry")
    windows = _windows(cfg)
    expect_divergent = _get(cfg, "gates.expect_divergent_certificate", bool, False, True)

    scn = scenarios.two_ball_torus_scenario(masses, E, period)
    chain = scn.chain(code, pts)
    # translation symmetry makes the Hessian singular: take minimal-norm steps
    res = dlsmod.newton_chain(scn.dl, chain, allow_singular=True)
    cert = dlsmod.hyperbolicity_certificate(scn.dl, res.chain, windows)
    H = dlsmod.hessian(scn.dl, res.chain).matrix
    Hu = H @ np.concatenate(dlsmod.symmetry_field(res.chain, scn.generator))
    kernel_defect = np.max(np.abs(Hu)) / max(np.max(np.abs(H)), 1e-300)
    noe = dlsmod.noether_values(scn.dl, res.chain, scn.generator)
    green = dlsmod.green_decay(scn.dl, res.chain, 0, half_width=16)

    write_csv(out / "certificate.csv", ["half_width[sites]", "C_W[sup-norm bound]"],
              list(zip(cert.windows, cert.norms)))
    res_blocks = dlsmod.residual(scn.dl, res.chain)
    write_csv(out / "chain.csv",
              ["site[index]", "position[chart]", "residual_norm[momentum]"],
              [(i, float(x[0]), float(np.linalg.norm(r)))
               for i, (x, r) in enumerate(zip(res.chain.points, res_blocks))])

    report = {
        "newton": {"converged": res.converged, "residual": res.residual_inf,
                   "sigma_min": res.smallest_singular_value},
        "certificate": {"windows": list(cert.windows), "norms": list(cert.norms),
                        "stabilized": cert.stabilized, "rel_change": cert.rel_change},
        "kernel_defect": float(kernel_defect),
        "noether_spread": float(np.ptp(noe)) if len(noe) else 0.0,
        "green_lambda": green.lam,
    }
    failures = []
    if expect_divergent:
        if cert.stabilized:
            failures.append("certificate stabilized despite unreduced symmetry")
        if kernel_defect > 1e-8:
            failures.append(f"symmetry vector not in kernel: defect {kernel_defect:.2e}")
    report["failures"] = failures
    return report


def run_two_ball_box(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    masses = _two_masses(cfg)
    E = _get(cfg, "params.energy", float, False, 0.5)
    _require(E > 0, "params.energy", "a positive number")
    code = _int_lists(cfg, "params.code", 2)
    per_code = _int_lists(cfg, "params.periodic_code", 2, [[-1, 1], [-1, 1], [-1, 1]])
    n_starts = int(_get(cfg, "params.random_starts", int, False, 3))
    _require(n_starts >= 1, "params.random_starts", "a positive integer")

    scn = scenarios.two_ball_box_scenario(masses, E)
    lo, hi = scn.box
    ends = []
    for name in ("endpoint_a", "endpoint_b"):
        x = _point(_get(cfg, f"params.{name}", list), f"params.{name}")
        for i in range(2):
            _require(lo < x[i] < hi, f"params.{name}[{i}]", f"a position inside the box "
                     f"({lo:g}, {hi:g})")
        ends.append(x)
    a, b = ends
    eps = _get(cfg, "params.eps", float, False, 1e-3)
    room = min(min(x.min() - lo, hi - x.max()) for x in ends)
    _require(0 < eps < room, "params.eps",
             f"a positive number below {room:g}, the endpoints' distance to the walls")

    dl = scenarios.box_fixed_lagrangian(scn, a, b, code)
    rng = np.random.default_rng(seed)
    solutions = []
    for _ in range(n_starts):
        pts = np.sort(rng.uniform(0.25, 0.75, size=len(code) - 1))
        chain = scenarios.box_fixed_chain(code, pts[:, None])
        res = dlsmod.newton_chain(dl, chain)
        solutions.append(res)
    spread = 0.0
    for res in solutions[1:]:
        spread = max(spread, float(np.max(np.abs(res.chain.points - solutions[0].chain.points))))

    dl_eps = scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=eps)
    sc = shadow_solve(dl_eps, solutions[0].chain, eps)
    end_defect = max(float(np.linalg.norm(sc.orbits[0].path[0] - a)),
                     float(np.linalg.norm(sc.orbits[-1].path[-1] - b)))

    # periodic pair-collision chain: odd collision counts are nondegenerate
    dl_per = scn.lagrangian()
    per_chain = scn.periodic_chain(per_code, [0.55 + 0.02 * i for i in range(len(per_code))])
    per_res = dlsmod.newton_chain(dl_per, per_chain)
    write_csv(out / "periodic_chain.csv",
              ["site[index]", "position[chart]"],
              [(i, float(x[0])) for i, x in enumerate(per_res.chain.points)])

    res_blocks = dlsmod.residual(dl, solutions[0].chain)
    write_csv(out / "chain.csv",
              ["site[index]", "position[chart]", "residual_norm[momentum]"],
              [(i, float(x[0]), float(np.linalg.norm(r)))
               for i, (x, r) in enumerate(zip(solutions[0].chain.points, res_blocks))])
    write_csv(out / "shadow_boundary.csv",
              ["site[index]", "base[chart]", "direction[normal frame]"],
              [(i, float(np.atleast_1d(bp.x)[0]), float(bp.s[0]))
               for i, bp in enumerate(sc.boundary)])

    report = {
        "newton": {"converged": all(r.converged for r in solutions),
                   "start_spread": spread,
                   "sigma_min": solutions[0].smallest_singular_value},
        "shadow": {"residual": sc.residual_inf, "endpoint_defect": end_defect},
        "periodic_chain": {"converged": per_res.converged,
                           "collisions": len(per_code),
                           "sigma_min": per_res.smallest_singular_value},
    }
    failures = []
    if not all(r.converged for r in solutions):
        failures.append("newton failed from some start")
    if spread > 1e-8:
        failures.append(f"distinct critical points from random starts: {spread:.2e}")
    if end_defect > 1e-9:
        failures.append(f"endpoints not preserved: {end_defect:.2e}")
    if len(per_code) % 2 == 1 and not (per_res.converged
                                       and per_res.smallest_singular_value > 1e-8):
        failures.append("odd periodic chain not nondegenerate")
    report["failures"] = failures
    return report


def run_ncenter(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    raw = _get(cfg, "params.centers", list)
    _require(bool(raw), "params.centers", "a nonempty list")
    centers = np.array([_point(c, f"params.centers[{i}]") for i, c in enumerate(raw)])
    n = len(centers)
    alphas = _num_list(cfg, "params.alphas", [1.0] * n)
    _require(len(alphas) == n, "params.alphas", f"{n} entries, one per center")
    _positive(alphas, "params.alphas")
    E = _get(cfg, "params.energy", float, False, 0.5)
    _require(E > 0, "params.energy", "a positive number")
    code = _int_lists(cfg, "params.code", 2)
    for i, k in enumerate(code):
        for j in range(2):
            _require(0 <= k[j] < n, f"params.code[{i}][{j}]", f"a center index in 0..{n - 1}")
        _require(k[0] != k[1], f"params.code[{i}]", "a link between two different centers")
        end = code[i - 1][1]
        _require(k[0] == end, f"params.code[{i}][0]",
                 f"{end}, the center where the previous link ends")
    mu_list = _num_list(cfg, "sweeps.mu", [1e-3, 10**-3.5, 1e-4])
    _positive(mu_list, "sweeps.mu")
    min_slope = _get(cfg, "gates.min_slope", float, False, 0.8)

    scn = scenarios.ncenter_scenario(centers, alphas, E)
    chain = scn.chain(code)
    report: Dict = {}
    failures = []

    g = symbolic.build_graph(scn.graph_vertices())
    ent = symbolic.entropy(g)
    (out / "graph.txt").write_text(g.dump() + "\n")
    report["entropy"] = ent.value

    rows = singular.shadow_experiment(scn.dl, chain, mu_list, alphas=np.asarray(alphas))
    write_csv(out / "mu_table.csv",
              ["mu[perturbation]", "sup_error[length]", "converged[0/1]",
               "min_distance[length]", "predicted_r_p[length]"],
              [(r.mu, r.sup_error, int(r.converged), r.min_distance,
                r.predicted_r_p) for r in rows])
    ok = [r for r in rows if r.converged]
    slope = float("nan")
    if len(ok) >= 2:
        slope, _ = loglog_slope([r.mu for r in ok], [r.sup_error for r in ok])
    ratios = [r.min_distance / r.predicted_r_p for r in ok]
    report.update({"converged": [bool(r.converged) for r in rows],
                   "error_slope": slope,
                   "min_distance_ratios": [float(r) for r in ratios]})
    failed = [f"mu={r.mu:.3e}: {r.reason}" for r in rows if not r.converged]
    if failed:
        failures.append("shadow experiment failed to converge at some mu ("
                        + "; ".join(failed) + ")")
    if not (slope >= min_slope):
        failures.append(f"error slope {slope:.3f} below gate")
    if ratios and not all(1 / 3 <= r <= 3 for r in ratios):
        failures.append("minimum approach distance off the predicted scale")
    report["failures"] = failures
    return report


def run_kepler_grid(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    E = _get(cfg, "params.energy", float, False, -0.7)
    _require(E < 0, "params.energy", "a negative number")
    a1 = _get(cfg, "params.alpha1", float, False, 0.5)
    a2 = _get(cfg, "params.alpha2", float, False, 0.5)
    _require(a1 > 0, "params.alpha1", "a positive number")
    _require(a2 > 0, "params.alpha2", "a positive number")
    _require(abs(a1 + a2 - 1.0) <= 1e-12, "params.alpha2", "1 - alpha1: mass fractions sum to 1")
    ks = _int_lists(cfg, "params.revolutions", 2)
    for i, k in enumerate(ks):
        for j in range(2):
            _require(k[j] != 0, f"params.revolutions[{i}][{j}]", "a nonzero integer")
    zs = []
    for i, pair in enumerate(_get(cfg, "params.endpoints", list)):
        path = f"params.endpoints[{i}]"
        _require(isinstance(pair, list) and len(pair) == 2, path, "a pair of points")
        z = (_point(pair[0], path + "[0]"), _point(pair[1], path + "[1]"))
        _require(min(np.linalg.norm(z[0]), np.linalg.norm(z[1])) > 0, path,
                 "two points off the center at the origin")
        _require(np.linalg.norm(z[1] - z[0]) > 1e-12 * max(map(np.linalg.norm, z)), path,
                 "two distinct points, more than 1e-12 of their radius apart")
        try:
            kpmod.split_feasible_interval(z, a1, a2, E)
        except kpmod.FeasibilityError as exc:
            raise ScenarioError(f"scenario.{path}: expected a pair reachable at energy "
                                f"{E:g} ({exc})") from exc
        zs.append(z)
    _require(bool(zs), "params.endpoints", "a nonempty list")
    rows, failures = [], []
    for k in ks:
        for i, z in enumerate(zs):
            try:
                res = kpmod.three_body_lagrangian(k, z, a1, a2, E)
            except kpmod.FeasibilityError as exc:
                failures.append(f"revolutions {list(k)} at params.endpoints[{i}]: {exc}")
                continue
            com = kpmod.commensurability_check(k, res.split.h1, res.split.h2)
            rows.append((k[0], k[1], z[0][0], z[0][1], z[1][0], z[1][1],
                         res.split.h1, res.split.h2, res.value, res.tau,
                         int(com.risk)))
    write_csv(out / "kepler_table.csv",
              ["k1[revolutions]", "k2[revolutions]", "xm_x[length]", "xm_y[length]",
               "xp_x[length]", "xp_y[length]", "h1[energy]", "h2[energy]",
               "L[action]", "tau[time]", "early_collision_risk[0/1]"],
              rows)
    return {"rows": len(rows), "failures": failures}


FAMILIES = {
    "torus_point": run_torus_point,
    "two_ball_torus": run_two_ball_torus,
    "two_ball_box": run_two_ball_box,
    "ncenter": run_ncenter,
    "kepler_grid": run_kepler_grid,
}


def run_scenario(path: str, out_dir: Optional[str] = None, jobs: int = 1,
                 seed: int = 0) -> int:
    """Execute a scenario file; returns the process exit code."""
    try:
        cfg = load_scenario(path)
        out = Path(out_dir if out_dir is not None else cfg.get("out", "out/" + cfg["name"]))
        out.mkdir(parents=True, exist_ok=True)
        report = FAMILIES[cfg["family"]](cfg, out, jobs, seed)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    report["name"] = cfg["name"]
    report["family"] = cfg["family"]
    report["seed"] = seed
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True,
                                                default=float) + "\n")
    failures = report.get("failures", [])
    for f in failures:
        print(f"GATE FAIL: {f}", file=sys.stderr)
    print(f"{cfg['name']}: {'ok' if not failures else 'FAILED'} "
          f"(reports in {out})")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shadowbilliards",
        description="Collision chains, certificates and shadowing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sc = sub.add_parser("scenario", help="full scenario pipelines")
    sc_sub = p_sc.add_subparsers(dest="action", required=True)
    p = sc_sub.add_parser("run", help="run the declared pipeline")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="worker pool size")
    p.add_argument("--seed", type=int, default=0, help="seed for random starts")

    args = parser.parse_args(argv)
    return run_scenario(args.scenario, args.out, args.jobs, args.seed)


if __name__ == "__main__":
    sys.exit(main())
