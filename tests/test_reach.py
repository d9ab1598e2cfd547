"""tools/reach.py: which lines of a module are in-function executable lines,
and which lines are error paths or gate-failure lines. Only the line rules,
on a small module in a temporary directory: no scenario runs."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "tools" / "reach.py")
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)

MODULE = (
    "X = 1\n"                                   # 1  module body
    "def f(a,\n"                                # 2  prologue
    "      b):\n"                               # 3
    "    if a:\n"                               # 4
    "        raise ValueError(\n"               # 5  raise
    "            f'bad {a}')\n"                 # 6  its continuation
    "    try:\n"                                # 7
    "        b = 1 / b\n"                       # 8
    "    except ZeroDivisionError as exc:\n"    # 9  except handler
    "        b = 0\n"                           # 10 its body
    "    failures = []\n"                       # 11
    "    failures.append(\n"                    # 12 gate failure
    "        'gate')\n"                         # 13 its continuation
    "    other = []\n"                          # 14
    "    other.append(b)\n"                     # 15 not a gate
    "    return b\n"                            # 16
    "class C:\n"                                # 17 class body
    "    Y = 2\n"                               # 18
    "    def m(self):\n"                        # 19 prologue
    "        return self.Y\n"                   # 20
)


def test_executable_lines_are_function_bodies(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    lines = reach.executable_lines(path)
    assert {4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20} <= lines
    assert not lines & {1, 2, 3, 17, 18, 19}


def test_error_lines_cover_raises_handlers_and_gate_failures(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    assert reach.error_lines(path) == {5, 6, 9, 10, 12, 13}
