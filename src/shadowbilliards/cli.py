"""Scenario runner and report emitter.

Scenario files are JSON; the `family` field selects a shipped configuration,
`params` feeds it, optional `sweeps`, `tolerances` and `gates` control the
pipeline. Reports are CSV tables with named-and-united header rows plus a
JSON summary; output is byte-identical for identical files and seeds.
Exit codes: 0 success, 1 gate failure, 2 invalid scenario.
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
from .billiard import BilliardDomain, lyapunov_estimate, shadow_error, shadow_solve


class ScenarioError(ValueError):
    """Scenario file invalid; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def _get(obj, path: str, typ, required: bool = True, default=None):
    cur = obj
    trail = "scenario"
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
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
        raise ScenarioError(f"{trail}: expected {typ.__name__}, got {type(cur).__name__}")
    return cur


def _num_list(obj, path: str, required: bool = True, default=None) -> Optional[List[float]]:
    v = _get(obj, path, list, required, default)
    if v is None:
        return default
    if not v and v is not default:
        raise ScenarioError(f"scenario.{path}: expected a nonempty list")
    out = []
    for i, x in enumerate(v):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ScenarioError(f"scenario.{path}[{i}]: expected number")
        out.append(float(x))
    return out


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
    family = _get(data, "family", str)
    if family not in FAMILIES:
        raise ScenarioError(f"scenario.family: unknown family {family!r}; "
                            f"known: {sorted(FAMILIES)}")
    _get(data, "params", dict)
    return data


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and (np.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, (int, float, np.integer, np.floating))
                              else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def loglog_slope(xs, ys):
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def linfit_against(xs, ys):
    """Fit ys = a + b * xs; returns (a, b, r_squared)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    A = np.vstack([np.ones_like(xs), xs]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# Family pipelines
# ---------------------------------------------------------------------------

def run_torus_point(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    dim = int(_get(cfg, "params.dim", int, False, 2))
    periods = _num_list(cfg, "params.periods", False, [1.0] * dim)
    E = _get(cfg, "params.energy", float, False, 0.5)
    code_raw = _get(cfg, "params.code", list)
    code = [tuple(int(v) for v in k) for k in code_raw]
    eps_list = _num_list(cfg, "sweeps.eps", False, [1e-2, 10**-2.5, 1e-3, 10**-3.5])
    windows = [int(w) for w in _num_list(cfg, "sweeps.windows", False, [1, 2, 4, 8, 16])]

    scn = scenarios.torus_point_scenario(dim, periods, E)
    chain = scn.chain(code)
    reports = dlsmod.admissible(scn.dl, chain)
    if not all(r.admissible for r in reports):
        raise ScenarioError("params.code: inadmissible chain (parallel consecutive windings)")

    def one_eps(eps):
        sc = shadow_solve(scn.dl, chain, eps)
        err = shadow_error(scn.dl, chain, sc)
        dom = BilliardDomain(scn.h, scn.scatterer, eps)
        exps = lyapunov_estimate(sc, dom)
        return eps, err, exps, sc

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        results = list(pool.map(one_eps, eps_list))

    rows = [(eps, err) for eps, err, _, _ in results]
    write_csv(out / "shadow_errors.csv",
              ["eps[tube radius]", "sup_error[length]"], rows)
    slope, _, slope_r2 = loglog_slope([r[0] for r in rows], [r[1] for r in rows])

    lrows = [(eps, *exps) for eps, _, exps, _ in results]
    nex = len(results[0][2])
    write_csv(out / "lyapunov.csv",
              ["eps[tube radius]"] + [f"exponent_{i}[per bounce]" for i in range(nex)],
              lrows)
    lam_max = [float(np.max(e)) for _, _, e, _ in results]
    a_fit, b_fit, lyap_r2 = linfit_against(np.log(1.0 / np.asarray(eps_list)), lam_max)
    big = [int(np.sum(np.abs(e) >= 0.5 * np.max(np.abs(e)))) for _, _, e, _ in results]

    sc0 = results[0][3]
    cert = dlsmod.hyperbolicity_certificate(sc0.joint_dl, sc0.joint_chain, windows)
    write_csv(out / "certificate.csv", ["half_width[sites]", "C_W[sup-norm bound]"],
              list(zip(cert.windows, cert.norms)))
    green = dlsmod.green_decay(sc0.joint_dl, sc0.joint_chain, 0, half_width=16)
    write_csv(out / "green.csv", ["offset[sites]", "response_norm[chart units]"],
              list(zip(green.offsets.tolist(), green.norms.tolist())))

    dom0 = BilliardDomain(scn.h, scn.scatterer, eps_list[0])
    run0 = billiard.replay(sc0, dom0, n_events=len(sc0.orbits))
    ev_rows = []
    for ev in run0.events:
        ev_rows.append((ev.t, *ev.q.tolist(), *ev.p_before.tolist(),
                        *ev.p_after.tolist(), ev.surface))
    d = scn.h.dim
    write_csv(out / "events.csv",
              ["t[time]"] + [f"q{i}[length]" for i in range(d)]
              + [f"p_before_{i}[momentum]" for i in range(d)]
              + [f"p_after_{i}[momentum]" for i in range(d)] + ["surface[index]"],
              ev_rows)

    report = {
        "error_slope": slope, "error_slope_r2": slope_r2,
        "lyapunov_fit": {"a": a_fit, "b": b_fit, "r2": lyap_r2},
        "large_exponent_counts": big,
        "certificate": {"windows": list(cert.windows), "norms": list(cert.norms),
                        "stabilized": cert.stabilized, "rel_change": cert.rel_change},
        "green": {"lambda": green.lam, "r2": green.r_squared},
    }
    gates = cfg.get("gates", {})
    failures = []
    lohi = gates.get("error_slope", [0.9, 1.1])
    if not (lohi[0] <= slope <= lohi[1]):
        failures.append(f"error slope {slope:.3f} outside {lohi}")
    if gates.get("lyapunov", True):
        if not (b_fit > 0 and lyap_r2 >= gates.get("lyap_r2", 0.98)):
            failures.append(f"lyapunov fit b={b_fit:.3f}, r2={lyap_r2:.4f}")
    if gates.get("certificate", True) and not cert.stabilized:
        failures.append("certificate did not stabilize")
    report["failures"] = failures
    return report


def run_two_ball_torus(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    masses = _num_list(cfg, "params.masses", False, [1.0, 1.0])
    E = _get(cfg, "params.energy", float, False, 0.5)
    period = _get(cfg, "params.period", float, False, 1.0)
    code = [tuple(int(v) for v in k) for k in _get(cfg, "params.code", list)]
    pts = _num_list(cfg, "params.points", False, [0.0] * len(code))
    windows = [int(w) for w in _num_list(cfg, "sweeps.windows", False, [1, 2, 4, 8, 16])]

    scn = scenarios.two_ball_torus_scenario(masses, E, period)
    chain = scn.chain(code, [np.array([c]) for c in pts])
    res = dlsmod.newton_chain(scn.dl, chain)
    cert = dlsmod.hyperbolicity_certificate(scn.dl, res.chain, windows)
    H = dlsmod.hessian(scn.dl, res.chain)
    u_field = dlsmod.symmetry_field(res.chain, scn.symmetry().generator)
    Hu = H.apply(u_field)
    hnorm = max(np.max(np.abs(H.dense())), 1e-300)
    kernel_defect = max(np.max(np.abs(v)) for v in Hu) / hnorm
    noe = dlsmod.noether_values(scn.dl, res.chain, scn.symmetry().generator)
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
    if cfg.get("gates", {}).get("expect_divergent_certificate", True):
        if cert.stabilized:
            failures.append("certificate stabilized despite unreduced symmetry")
        if kernel_defect > 1e-8:
            failures.append(f"symmetry vector not in kernel: defect {kernel_defect:.2e}")
    report["failures"] = failures
    return report


def run_two_ball_box(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    masses = _num_list(cfg, "params.masses", False, [1.0, 1.0])
    E = _get(cfg, "params.energy", float, False, 0.5)
    code = [tuple(int(v) for v in k) for k in _get(cfg, "params.code", list)]
    a = np.asarray(_num_list(cfg, "params.endpoint_a", True), dtype=float)
    b = np.asarray(_num_list(cfg, "params.endpoint_b", True), dtype=float)
    eps = _get(cfg, "params.eps", float, False, 1e-3)
    n_starts = int(_get(cfg, "params.random_starts", int, False, 3))

    scn = scenarios.two_ball_box_scenario(masses, E)
    dl = scenarios.box_fixed_lagrangian(scn, a, b, code)
    rng = np.random.default_rng(seed)
    solutions = []
    for _ in range(max(1, n_starts)):
        pts = np.sort(rng.uniform(0.25, 0.75, size=len(code) - 1))
        chain = scenarios.box_fixed_chain(code, [np.array([c]) for c in pts])
        res = dlsmod.newton_chain(dl, chain)
        solutions.append(res)
    spread = 0.0
    base_pts = np.array([float(x[0]) for x in solutions[0].chain.points])
    for res in solutions[1:]:
        pts = np.array([float(x[0]) for x in res.chain.points])
        spread = max(spread, float(np.max(np.abs(pts - base_pts))))

    dl_eps = scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=eps)
    sc = shadow_solve(dl_eps, solutions[0].chain, eps)
    end_defect = max(float(np.linalg.norm(sc.orbits[0].path[0] - a)),
                     float(np.linalg.norm(sc.orbits[-1].path[-1] - b)))

    # periodic pair-collision chain: odd collision counts are nondegenerate
    per_code_raw = _get(cfg, "params.periodic_code", list, False,
                        [[-1, 1], [-1, 1], [-1, 1]])
    per_code = [tuple(int(v) for v in k) for k in per_code_raw]
    dl_per = scn.lagrangian()
    per_chain = scn.periodic_chain(per_code,
                                   [np.array([0.55 + 0.02 * i])
                                    for i in range(len(per_code))])
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


def run_ncenter(cfg: dict, out: Path, jobs: int, seed: int,
                stage: Optional[str] = None) -> Dict:
    centers = _get(cfg, "params.centers", list)
    centers = np.asarray(centers, dtype=float)
    alphas = _num_list(cfg, "params.alphas", False, [1.0] * len(centers))
    E = _get(cfg, "params.energy", float, False, 0.5)
    code = [tuple(int(v) for v in pair) for pair in _get(cfg, "params.code", list)]
    mu_list = _num_list(cfg, "sweeps.mu", False, [1e-3, 10**-3.5, 1e-4])

    scn = scenarios.ncenter_scenario(centers, alphas, E)
    chain = scn.chain(code)
    report: Dict = {}
    failures = []

    g = symbolic.build_graph(scn.graph_vertices())
    ent = symbolic.entropy(g)
    (out / "graph.txt").parent.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(g.dump() + "\n")
    report["entropy"] = ent.value

    if stage != "graph":
        rows = singular.shadow_experiment(scn.dl, chain, mu_list,
                                          alphas=np.asarray(alphas))
        write_csv(out / "mu_table.csv",
                  ["mu[perturbation]", "sup_error[length]", "converged[0/1]",
                   "min_distance[length]", "predicted_r_p[length]"],
                  [(r.mu, r.sup_error, int(r.converged), r.min_distance,
                    r.predicted_r_p) for r in rows])
        ok = [r for r in rows if r.converged]
        slope = float("nan")
        if len(ok) >= 2:
            slope, _, _ = loglog_slope([r.mu for r in ok], [r.sup_error for r in ok])
        ratios = [r.min_distance / r.predicted_r_p for r in ok]
        report.update({"converged": [bool(r.converged) for r in rows],
                       "error_slope": slope,
                       "min_distance_ratios": [float(r) for r in ratios]})
        failed = [f"mu={r.mu:.3e}: {r.reason}" for r in rows if not r.converged]
        if failed:
            failures.append("shadow experiment failed to converge at some mu ("
                            + "; ".join(failed) + ")")
        if not (slope >= cfg.get("gates", {}).get("min_slope", 0.8)):
            failures.append(f"error slope {slope:.3f} below gate")
        if ratios and not all(1 / 3 <= r <= 3 for r in ratios):
            failures.append("minimum approach distance off the predicted scale")
    report["failures"] = failures
    return report


def run_kepler_grid(cfg: dict, out: Path, jobs: int, seed: int) -> Dict:
    E = _get(cfg, "params.energy", float, False, -0.7)
    a1 = _get(cfg, "params.alpha1", float, False, 0.5)
    a2 = _get(cfg, "params.alpha2", float, False, 0.5)
    ks = [tuple(int(v) for v in k) for k in _get(cfg, "params.revolutions", list)]
    zs = _get(cfg, "params.endpoints", list)
    rows = []
    for k in ks:
        for pair in zs:
            z = (np.asarray(pair[0], dtype=float), np.asarray(pair[1], dtype=float))
            res = kpmod.three_body_lagrangian(k, z, a1, a2, E)
            com = kpmod.commensurability_check(k, res.split.h1, res.split.h2)
            rows.append((k[0], k[1], z[0][0], z[0][1], z[1][0], z[1][1],
                         res.split.h1, res.split.h2, res.value, res.tau,
                         int(com.risk)))
    write_csv(out / "kepler_table.csv",
              ["k1[revolutions]", "k2[revolutions]", "xm_x[length]", "xm_y[length]",
               "xp_x[length]", "xp_y[length]", "h1[energy]", "h2[energy]",
               "L[action]", "tau[time]", "early_collision_risk[0/1]"],
              rows)
    return {"rows": len(rows), "failures": []}


FAMILIES = {
    "torus_point": run_torus_point,
    "two_ball_torus": run_two_ball_torus,
    "two_ball_box": run_two_ball_box,
    "ncenter": run_ncenter,
    "kepler_grid": run_kepler_grid,
}

_STAGE_FAMILIES = {
    "chain": {"two_ball_torus", "two_ball_box", "torus_point"},
    "billiard": {"torus_point", "two_ball_box"},
    "ncenter": {"ncenter"},
    "kepler": {"kepler_grid"},
    "graph": {"ncenter"},
}


def run_scenario(path: str, out_dir: Optional[str] = None, jobs: int = 1,
                 seed: int = 0, stage: Optional[str] = None) -> int:
    """Execute a scenario file; returns the process exit code."""
    try:
        cfg = load_scenario(path)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir if out_dir is not None else cfg.get("out", "out/" + cfg["name"]))
    out.mkdir(parents=True, exist_ok=True)
    runner = FAMILIES[cfg["family"]]
    try:
        if cfg["family"] == "ncenter":
            report = runner(cfg, out, jobs, seed, stage=stage)
        else:
            report = runner(cfg, out, jobs, seed)
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


def _stage_command(stage: str, args) -> int:
    try:
        cfg = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    fam = cfg["family"]
    allowed = _STAGE_FAMILIES.get(stage)
    if allowed is not None and fam not in allowed:
        print(f"scenario error: family {fam!r} does not support this subcommand",
              file=sys.stderr)
        return 2
    return run_scenario(args.scenario, args.out, args.jobs, args.seed, stage=stage)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shadowbilliards",
        description="Collision chains, certificates and shadowing experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker pool size")
        p.add_argument("--seed", type=int, default=0, help="seed for random starts")

    p_sc = sub.add_parser("scenario", help="full scenario pipelines")
    sc_sub = p_sc.add_subparsers(dest="action", required=True)
    add_common(sc_sub.add_parser("run", help="run the declared pipeline"))

    p_chain = sub.add_parser("chain", help="chain solving and certificates")
    ch_sub = p_chain.add_subparsers(dest="action", required=True)
    add_common(ch_sub.add_parser("solve", help="solve the chain of the scenario"))
    add_common(ch_sub.add_parser("certify", help="window certificates of the chain"))

    p_bill = sub.add_parser("billiard", help="tube-billiard shadowing")
    bl_sub = p_bill.add_subparsers(dest="action", required=True)
    add_common(bl_sub.add_parser("shadow", help="shadow sweep of the scenario"))

    p_nc = sub.add_parser("ncenter", help="singular-flow shadowing")
    nc_sub = p_nc.add_subparsers(dest="action", required=True)
    add_common(nc_sub.add_parser("shadow", help="mu sweep of the scenario"))

    p_kep = sub.add_parser("kepler", help="binary-passage tables")
    kp_sub = p_kep.add_subparsers(dest="action", required=True)
    add_common(kp_sub.add_parser("table", help="Lagrangian table over the grid"))

    p_gr = sub.add_parser("graph", help="collision graph tools")
    gr_sub = p_gr.add_subparsers(dest="action", required=True)
    add_common(gr_sub.add_parser("entropy", help="graph dump and entropy"))

    args = parser.parse_args(argv)
    stage = {"scenario": None, "chain": "chain", "billiard": "billiard",
             "ncenter": "ncenter", "kepler": "kepler", "graph": "graph"}[args.command]
    if stage is None:
        return run_scenario(args.scenario, args.out, args.jobs, args.seed)
    return _stage_command(stage, args)


if __name__ == "__main__":
    sys.exit(main())
