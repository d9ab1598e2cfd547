"""tools/knobs.py: no parameter with a default in src/ goes unset by every caller,
no public name in src/ goes unnamed, and no module imports a name it never uses."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "knobs", Path(__file__).resolve().parent.parent / "tools" / "knobs.py")
knobs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(knobs)

# never-passed parameters that stay, each with its reason
ALLOWED = {
    "scenarios.two_ball_box_scenario(box)": "model parameter of a scenario builder",
    "scenarios.square_centers(side)": "model parameter of a scenario builder",
}


# public names that only their own unit tests use: the paper's general model
UNREFERENCED = {
    "dynamics.HarmonicPotential": "model potential beyond the shipped free flights",
    "dynamics.CallablePotential": "model potential given by plain functions",
    "dls.FunctionLink": "link branch given by a plain function, for synthetic systems",
    "dls.routh_reduce": "Routh reduction of a symmetric discrete Lagrangian",
    "singular.flow_singular": "singular flow from one state, for perturbations phi",
    "dynamics.flow_segment": "flow of a general Hamiltonian from one state",
    "bvp.twist": "twist condition of a connecting orbit",
    "bvp.boundary_momenta_check": "first-variation check of a connector's momenta",
    "scenarios.TwoBallTorusScenario.reduced_mass": "mass of the reduced pair passage",
}


def test_every_public_name_is_used_or_allowed():
    assert sorted(set(knobs.unreferenced()) - set(UNREFERENCED)) == []


def test_unreferenced_allowlist_names_only_unreferenced_names():
    assert sorted(set(UNREFERENCED) - set(knobs.unreferenced())) == []


def test_no_unused_imports():
    assert knobs.unused_imports() == []


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


def test_every_default_is_passed_somewhere():
    assert sorted(set(knobs.never_passed()) - set(ALLOWED)) == []


def test_allowlist_names_only_unpassed_parameters():
    assert sorted(set(ALLOWED) - set(knobs.never_passed())) == []


def test_scan_rules(tmp_path):
    for top in knobs.CALLERS:
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
    (tmp_path / "tests" / "t.py").write_text(
        "f(0, kw=1)\nf(0, 1, 2)\ng(0, fwd=5)\nC(1).m(z=2)\n")
    got = {f"{q}({p})": who for q, p, who in knobs.scan(tmp_path)}
    assert got == {"m.f(kw)": ["tests"], "m.f(pos)": ["tests"], "m.f(unset)": [],
                   "m.f(fwd)": ["tests"], "m.C.__init__(x)": ["src", "tests"],
                   "m.C.__init__(y)": [], "m.C.m(z)": ["tests"]}
