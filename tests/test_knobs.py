"""tools/knobs.py: no parameter with a default in src/ goes unset by every caller,
no public name in src/ goes unnamed, no field of a src/ class (an annotation
or an attribute assigned on self) goes unread, no module imports a name it
never uses, and no public parameter goes unread by its body. Callers are
src/, perfbench/ and the acceptance gate: a setting that only unit tests
pass is a module constant."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "knobs", Path(__file__).resolve().parent.parent / "tools" / "knobs.py")
knobs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(knobs)

# parameters that no caller passes and that stay, each with its reason: the
# paper's general model API
ALLOWED = {
    "dynamics.KeplerPotential.__init__(center)": "position of the attracting center",
    "dynamics.KeplerPotential.__init__(r_min)": "collision radius of the attracting center",
    "cli.main(argv)": "command line of a call from Python instead of the shell",
    "symbolic.paths(periodic)": "periodic codes of the graph; waits for ROADMAP item 2",
    "symbolic.build_graph(no_straight_reflection)": "head-on filter; waits for ROADMAP item 2",
    "scenarios.two_ball_box_scenario(box)": "model parameter of a scenario builder",
    "scenarios.square_centers(side)": "model parameter of a scenario builder",
}


# public names that only their own unit tests use: none, every public name
# has a caller in src/, perfbench/ or the acceptance gate
UNREFERENCED = {}


# public parameters that their body never reads and that stay, each with its reason
_RUNNER = ("the FAMILIES dispatch signature (cfg, out, jobs, seed) that "
           "run_scenario calls every family runner with")
UNREAD = {
    "cli.run_torus_point(seed)": _RUNNER + "; the family draws nothing at random",
    "cli.run_two_ball_torus(jobs)": _RUNNER + "; jobs waits for ROADMAP item 8",
    "cli.run_two_ball_torus(seed)": _RUNNER + "; the family draws nothing at random",
    "cli.run_two_ball_box(jobs)": _RUNNER + "; jobs waits for ROADMAP item 8",
    "cli.run_ncenter(jobs)": _RUNNER + "; jobs waits for ROADMAP item 8",
    "cli.run_ncenter(seed)": _RUNNER + "; the family draws nothing at random",
    "cli.run_kepler_grid(jobs)": _RUNNER + "; jobs waits for ROADMAP item 8",
    "cli.run_kepler_grid(seed)": _RUNNER + "; the family draws nothing at random",
    "dls.LinkEvaluator.in_domain(rows)": "protocol default: every row in the domain",
    "dls.LinkEvaluator.in_domain(XP)": "protocol default: every row in the domain",
    "dynamics.ClassicalHamiltonian.velocity(q)": "the H_p(q, p) signature of a Hamiltonian",
    "scenarios.TwoBallTorusScenario.generator(x)": "symmetry callback of dls.symmetry_field, "
                                                   "constant on the translation orbit",
}


def test_every_public_parameter_is_read_or_allowed():
    assert sorted(set(knobs.unread_parameters()) - set(UNREAD)) == []


def test_unread_allowlist_names_only_unread_parameters():
    assert sorted(set(UNREAD) - set(knobs.unread_parameters())) == []


def test_unread_parameter_scan_rules(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "def f(a, b, *, c=0):\n"
        "    return a + (lambda: c)()\n"
        "def abstract(a):\n"
        "    \"\"\"doc\"\"\"\n"
        "    raise NotImplementedError\n"
        "def _private(a):\n"
        "    pass\n"
        "class Base:\n"
        "    def m(self, x, y):\n"
        "        y = x\n"
        "    @staticmethod\n"
        "    def s(z):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def k(cls, w):\n"
        "        return cls\n"
        "    def _hidden(self, v):\n"
        "        pass\n"
        "class Sub(Base):\n"
        "    def m(self, x, y):\n"
        "        pass\n"
        "class _Priv:\n"
        "    def m(self, u):\n"
        "        pass\n")
    assert knobs.unread_parameters(tmp_path) == [
        "m.f(b)", "m.Base.m(y)", "m.Base.s(z)", "m.Base.k(w)"]


def test_every_public_name_is_used_or_allowed():
    assert sorted(set(knobs.unreferenced()) - set(UNREFERENCED)) == []


def test_unreferenced_allowlist_names_only_unreferenced_names():
    assert sorted(set(UNREFERENCED) - set(knobs.unreferenced())) == []


def test_no_unused_imports():
    assert knobs.unused_imports() == []


def test_no_unread_fields():
    assert knobs.unread_fields() == []


def test_name_scan_rules(tmp_path):
    for top in ("src", "perfbench", "tests"):
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "from typing import List, Tuple\n"
        "import os.path\n"
        "__all__ = ['Tuple']\n"
        "def alone(n):\n"
        "    return alone(n - 1)\n"
        "def used():\n"
        "    return os.getcwd()\n"
        "def hooked():\n"
        "    pass\n"
        "def _private():\n"
        "    return used()\n"
        "class Pub:\n"
        "    def meth(self):\n"
        "        return Pub()\n"
        "    def _hidden(self):\n"
        "        return self.other\n"
        "    def other(self):\n"
        "        pass\n"
        "class _Priv:\n"
        "    def meth2(self):\n"
        "        pass\n")
    (tmp_path / "perfbench" / "p.py").write_text("HOOKS = [('m', 'm.hooked')]\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("from m import Pub\n")
    (tmp_path / "tests" / "test_m.py").write_text("alone(3)\nPub().meth()\n")
    assert knobs.unreferenced(tmp_path) == ["m.alone", "m.Pub.meth"]
    assert knobs.unused_imports(tmp_path) == ["m.List"]


def test_field_scan_rules(tmp_path):
    for top in ("src", "perfbench", "tests"):
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    by_src: int\n"
        "    by_test: int\n"
        "    by_getattr: int\n"
        "    written: int = 0\n"
        "    unread: list = field(default_factory=list)\n"
        "    def touch(self):\n"
        "        self.written = 1\n"
        "        return self.by_src\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    alone: int\n"
        "class Plain:\n"
        "    plain: int\n"
        "    def __init__(self):\n"
        "        self.kept, self.dropped = 1, 2\n"
        "        self.by_test: int = 3\n"
        "        other.elsewhere = self.kept\n")
    (tmp_path / "perfbench" / "p.py").write_text("getattr(a, 'by_getattr')\n")
    (tmp_path / "tests" / "test_m.py").write_text("A(1, 2, 3).by_test\n")
    # written is a field and assigned on self: listed once
    assert knobs.unread_fields(tmp_path) == ["m.A.written", "m.A.unread", "m.B.alone",
                                             "m.Plain.plain", "m.Plain.dropped"]


def test_every_default_is_passed_somewhere():
    assert sorted(set(knobs.never_passed()) - set(ALLOWED)) == []


def test_allowlist_names_only_unpassed_parameters():
    assert sorted(set(ALLOWED) - set(knobs.never_passed())) == []


def test_scan_rules(tmp_path):
    for top in ("src", "perfbench", "tests"):
        (tmp_path / top).mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "def f(a, kw=1, pos=2, unset=3, fwd=4):\n"
        "    return f(a, kw=kw, pos=pos, unset=unset, fwd=fwd)\n"
        "def g(a, **kw):\n"
        "    return f(a, **kw)\n"
        "class C:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        pass\n"
        "    def m(self, z=0):\n"
        "        return C(1)\n")
    (tmp_path / "perfbench" / "p.py").write_text("f(0, 1, 2)\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("f(0, kw=1)\ng(0, fwd=5)\n")
    # unit tests pass nothing
    (tmp_path / "tests" / "t.py").write_text("f(0, unset=1)\nC(1, 2).m(z=2)\n")
    got = {f"{q}({p})": who for q, p, who in knobs.scan(tmp_path)}
    acc = "tests/test_acceptance.py"
    assert got == {"m.f(kw)": ["perfbench", acc], "m.f(pos)": ["perfbench"], "m.f(unset)": [],
                   "m.f(fwd)": [acc], "m.C.__init__(x)": ["src"],
                   "m.C.__init__(y)": [], "m.C.m(z)": []}
