"""Per-layer tracing of shadowbilliards from outside the package.

Hooks replace package functions with timing wrappers at run time; no file
under src/ changes. Each hooked function is patched where it is defined and
at every module-level alias that another package module made with
`from x import y`, so calls through either name are seen.

Three kinds of hook:

- span: a timed call recorded as a span (id, name, start, end, parent id);
- group: every function of a module (or of some of its classes), timed and
  counted under one name but not recorded as spans, because these run tens
  of thousands of times per pipeline;
- count: a bare call counter for inner work units (one RK4 step), which
  adds no clock reads and no span.

Self time of a name is its wall time minus the time of hooked calls made
inside it. A hook whose target no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, qualified name, metric name)
SPANS = [
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "load_scenario", "cli.load"),
    ("cli", "write_csv", "cli.write"),
    ("singular", "shadow_experiment", "singular.experiment"),
    ("singular", "_ChainShooting.solve", "singular.solve"),
    ("singular", "_ChainShooting.fly_link", "singular.flight"),
    ("billiard", "shadow_solve", "billiard.shadow_solve"),
    ("billiard", "billiard_trajectory", "billiard.trajectory"),
    ("billiard", "lyapunov_estimate", "billiard.lyapunov"),
    ("billiard", "shadow_error", "billiard.shadow_error"),
    ("dls", "newton_chain", "dls.newton"),
    ("dls", "hessian", "dls.hessian"),
    ("dls", "residual", "dls.residual"),
    ("dls", "hyperbolicity_certificate", "dls.certificate"),
    ("dls", "green_decay", "dls.green"),
    ("blocktri", "BlockTridiagonalFactor.__init__", "blocktri.factor"),
    ("blocktri", "BlockTridiagonalFactor.solve", "blocktri.solve"),
    ("blocktri", "solve_window", "blocktri.solve_window"),
    ("blocktri", "inverse_inf_norm", "blocktri.inverse_norm"),
    ("bvp", "_straight_connect", "bvp.connect.straight"),
    ("bvp", "_kepler_connect", "bvp.connect.kepler"),
    ("bvp", "_shooting_connect", "bvp.connect.shooting"),
    ("bvp", "conjugate_test", "bvp.conjugate"),
    ("dynamics", "_verlet_steps", "dynamics.verlet"),
    ("kepler", "J_n", "kepler.J_n"),
    ("kepler", "three_body_lagrangian", "kepler.lagrangian"),
    ("kepler", "sample_orbit", "kepler.sample_orbit"),
]

COUNTS = [
    ("singular", "_PointCenterKernel.rk4", "singular.rk4_steps"),
]

# (module, metric name, predicate on the names of the module-level functions
# and classes whose methods join the group). For scenarios only the builders
# count: the link evaluators it defines are the work of dls and billiard.
GROUPS = [
    ("scatterer", "scatterer", lambda attr: True),
    ("symbolic", "symbolic", lambda attr: True),
    ("scenarios", "scenarios.build",
     lambda attr: attr.endswith("Scenario") or attr[0].islower() and attr[0] != "_"),
]

PACKAGE = "shadowbilliards"
MODULES = ["billiard", "blocktri", "bvp", "cli", "dls", "dynamics", "kepler",
           "scatterer", "scenarios", "singular", "symbolic"]


def _verlet_rows(args, kwargs) -> int:
    """Trajectory steps of one _verlet_steps(h, q, p, dt, nsteps) call."""
    q = args[1] if len(args) > 1 else kwargs["q"]
    nsteps = args[4] if len(args) > 4 else kwargs["nsteps"]
    rows = len(q) if getattr(q, "ndim", 1) == 2 else 1
    return int(nsteps) * rows


# metric name -> function(tracer, args, kwargs, result) run after a call returns
ON_RETURN = {
    "singular.solve": lambda t, a, k, out: t.counters.update(
        {"singular.newton_iters": int(out[2])}),
    "billiard.shadow_solve": lambda t, a, k, out: t.counters.update(
        {"billiard.shadow_iters": int(out.diagnostics.get("iterations", 0))}),
    "billiard.trajectory": lambda t, a, k, out: t.counters.update(
        {"billiard.events": len(out.events)}),
    "dls.newton": lambda t, a, k, out: t.counters.update(
        {"dls.newton.iters": int(out.iterations)}),
    "dynamics.verlet": lambda t, a, k, out: t.counters.update(
        {"dynamics.verlet.steps": _verlet_rows(a, k)}),
    "kepler.sample_orbit": lambda t, a, k, out: t.counters.update(
        {"kepler.sample_orbit.points": len(out)}),
}


class Tracer:
    """Span and counter store for one traced pipeline run."""

    def __init__(self):
        self.spans = []                  # (id, name, start, end, parent id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.child_calls = Counter()     # (parent name, child name) -> calls
        self.failed = Counter()          # layer -> exceptions that left it
        self.absent = {}                 # hook name -> missing target
        self._stack = []                 # frames: [name, child seconds, id]
        self._next_id = 0
        self._originals = []             # (owner, attribute, original)

    # --- call bookkeeping -------------------------------------------------

    def _wrap(self, name, fn, record):
        on_return = ON_RETURN.get(name)
        layer = name.split(".")[0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_failure(layer, name, parent, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                    self.child_calls[(parent[0], name)] += 1
                if record:
                    self.spans.append((sid, name, t0, t1,
                                       parent[2] if parent is not None else -1))
            if on_return is not None:
                on_return(self, args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_failure(self, layer, name, parent, exc):
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.failed[layer] += 1
        if (name == "blocktri.factor" and parent is not None
                and parent[0] == "blocktri.solve_window"):
            self.counters["blocktri.dense_fallbacks"] += 1

    # --- patching -----------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for mod, qual, name in SPANS:
            self._patch(mods, mod, qual, name, lambda fn, n=name: self._wrap(n, fn, True))
        for mod, qual, name in COUNTS:
            self._patch(mods, mod, qual, name, lambda fn, n=name: self._count(n, fn))
        for mod, name, keep in GROUPS:
            module = mods[mod]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or not keep(attr):
                    continue
                if inspect.isfunction(obj):
                    self._patch(mods, mod, attr, name,
                                lambda fn, n=name: self._wrap(n, fn, False))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("__"):
                            self._patch(mods, mod, f"{attr}.{meth}", name,
                                        lambda fn, n=name: self._wrap(n, fn, False))

    def _patch(self, mods, mod, qual, name, make):
        owner = mods[mod]
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = vars(owner).get(attr) if owner is not None else None
        if not inspect.isfunction(orig):
            self.absent[name] = f"{PACKAGE}.{mod}.{qual}"
            return
        new = make(orig)
        setattr(owner, attr, new)
        self._originals.append((owner, attr, orig))
        if not path:
            for other in mods.values():
                for alias, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, alias, new)
                        self._originals.append((other, alias, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # --- results ------------------------------------------------------------

    def write_spans(self, path: Path):
        rows = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in sorted(self.spans)]
        path.write_text(json.dumps(rows) + "\n")

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters),
                "child_calls": {f"{p}>{c}": n for (p, c), n in self.child_calls.items()},
                "failed": dict(self.failed), "absent": dict(self.absent),
                "spans": len(self.spans)}


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(hook):
    return (hook,), lambda s: s["calls"].get(hook, 0)


def _self(*hooks):
    return hooks, lambda s: sum(s["self_s"].get(h, 0.0) for h in hooks)


def _counter(hook, key=None):
    return (hook,), lambda s: s["counters"].get(key or hook, 0)


def _failed(layer, *hooks):
    return hooks, lambda s: s["failed"].get(layer, 0)


def _child_calls(parent, child):
    return (parent, child), lambda s: s["child_calls"].get(f"{parent}>{child}", 0)


def _per(num, den):
    return num[0] + den[0], lambda s: _ratio(num[1](s), den[1](s))


# Per-layer metrics in the order BENCHMARK.json lists them:
# name -> (unit, hook names read, function of one traced run's summary).
LAYER_METRICS = {
    "singular.flights": ("count", *_calls("singular.flight")),
    "singular.rk4_steps": ("count", *_counter("singular.rk4_steps")),
    "singular.newton_iters": ("count", *_counter("singular.solve", "singular.newton_iters")),
    "singular.flights_per_iter": ("ratio", *_per(
        _calls("singular.flight"), _counter("singular.solve", "singular.newton_iters"))),
    "singular.flight_s": ("s", *_self("singular.flight")),
    "singular.experiment_s": ("s", *_self("singular.experiment", "singular.solve")),
    "billiard.shadow_solve.calls": ("count", *_calls("billiard.shadow_solve")),
    "billiard.shadow_iters": ("count", *_counter("billiard.shadow_solve",
                                                 "billiard.shadow_iters")),
    "billiard.shadow_solve_s": ("s", *_self("billiard.shadow_solve")),
    "billiard.trajectory.calls": ("count", *_calls("billiard.trajectory")),
    "billiard.events": ("count", *_counter("billiard.trajectory", "billiard.events")),
    "billiard.trajectory_s": ("s", *_self("billiard.trajectory")),
    "billiard.lyapunov_s": ("s", *_self("billiard.lyapunov")),
    "billiard.shadow_error_s": ("s", *_self("billiard.shadow_error")),
    "billiard.failed": ("count", *_failed("billiard", "billiard.shadow_solve",
                                          "billiard.trajectory", "billiard.lyapunov",
                                          "billiard.shadow_error")),
    "scatterer.calls": ("count", *_calls("scatterer")),
    "scatterer_s": ("s", *_self("scatterer")),
    "dls.newton.calls": ("count", *_calls("dls.newton")),
    "dls.newton.iters": ("count", *_counter("dls.newton", "dls.newton.iters")),
    "dls.newton_s": ("s", *_self("dls.newton")),
    "dls.hessian.calls": ("count", *_calls("dls.hessian")),
    "dls.hessian_s": ("s", *_self("dls.hessian")),
    "dls.residual.calls": ("count", *_calls("dls.residual")),
    "dls.residual_s": ("s", *_self("dls.residual")),
    "dls.newton.accept_share": ("ratio", *_per(
        _counter("dls.newton", "dls.newton.iters"), _child_calls("dls.newton", "dls.residual"))),
    "dls.certificate_s": ("s", *_self("dls.certificate")),
    "dls.green_s": ("s", *_self("dls.green")),
    "blocktri.factor.calls": ("count", *_calls("blocktri.factor")),
    "blocktri.factor_s": ("s", *_self("blocktri.factor")),
    "blocktri.solve.calls": ("count", *_calls("blocktri.solve")),
    "blocktri.solve_s": ("s", *_self("blocktri.solve", "blocktri.solve_window")),
    "blocktri.solves_per_factor": ("ratio", *_per(
        _calls("blocktri.solve"), _calls("blocktri.factor"))),
    "blocktri.dense_fallbacks": ("count", *_counter("blocktri.solve_window",
                                                    "blocktri.dense_fallbacks")),
    "blocktri.inverse_norm_s": ("s", *_self("blocktri.inverse_norm")),
    "bvp.connect.straight.calls": ("count", *_calls("bvp.connect.straight")),
    "bvp.connect.straight_s": ("s", *_self("bvp.connect.straight")),
    "bvp.connect.shooting.calls": ("count", *_calls("bvp.connect.shooting")),
    "bvp.connect.shooting_s": ("s", *_self("bvp.connect.shooting")),
    "bvp.connect.kepler.calls": ("count", *_calls("bvp.connect.kepler")),
    "bvp.conjugate_s": ("s", *_self("bvp.conjugate")),
    "bvp.failed": ("count", *_failed("bvp", "bvp.connect.straight", "bvp.connect.kepler",
                                     "bvp.connect.shooting", "bvp.conjugate")),
    "dynamics.verlet.calls": ("count", *_calls("dynamics.verlet")),
    "dynamics.verlet.steps": ("count", *_counter("dynamics.verlet", "dynamics.verlet.steps")),
    "dynamics.verlet_s": ("s", *_self("dynamics.verlet")),
    "kepler.J_n.calls": ("count", *_calls("kepler.J_n")),
    "kepler.J_n_s": ("s", *_self("kepler.J_n")),
    "kepler.lagrangian.calls": ("count", *_calls("kepler.lagrangian")),
    "kepler.lagrangian_s": ("s", *_self("kepler.lagrangian")),
    "kepler.sample_orbit.calls": ("count", *_calls("kepler.sample_orbit")),
    "kepler.sample_orbit.points": ("count", *_counter("kepler.sample_orbit",
                                                      "kepler.sample_orbit.points")),
    "kepler.sample_orbit_s": ("s", *_self("kepler.sample_orbit")),
    "symbolic_s": ("s", *_self("symbolic")),
    "scenarios.build_s": ("s", *_self("scenarios.build")),
    "cli.load_s": ("s", *_self("cli.load")),
    "cli.write_s": ("s", *_self("cli.write")),
    "cli.bytes_written": ("bytes", *_counter("cli.run_scenario", "cli.bytes_written")),
}


def layer_metrics(summary: dict) -> dict:
    """Per-layer values of one traced run: name -> (unit, value, absent)."""
    absent = set(summary["absent"])
    return {name: (unit, fn(summary), bool(absent.intersection(uses)))
            for name, (unit, uses, fn) in LAYER_METRICS.items()}
