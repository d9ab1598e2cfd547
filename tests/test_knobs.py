"""tools/knobs.py: no parameter with a default in src/ goes unset by every caller."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "knobs", Path(__file__).resolve().parent.parent / "tools" / "knobs.py")
knobs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(knobs)

# never-passed parameters that stay, each with its reason
ALLOWED = {
    "cli.run_ncenter(stage)": "run_scenario reaches it through **kw and a FAMILIES "
                              "lookup, which the scan does not follow",
    "scenarios.two_ball_box_scenario(box)": "model parameter of a scenario builder",
    "scenarios.square_centers(side)": "model parameter of a scenario builder",
}


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
