"""Compare two output trees of `shadowbilliards scenario run`.

    python3 tools/compare_outputs.py OLD NEW

Lists the files only one tree has. For each CSV column and JSON field
(list indices dropped, so `certificate.norms[]` groups the whole list) whose
numbers differ, prints how many numbers moved, out of how many, with the
largest absolute and relative move (relative to the old value), and each
old -> new pair when at most three moved. Any other difference (a header,
a row count, a string, a text line) is printed as it is. Standard library
only. Exit code 0 only when the trees are byte-identical, else 1.
"""

from __future__ import annotations

import csv
import difflib
import json
import math
import sys
from pathlib import Path

LIST_AT_MOST = 3    # moved values printed one by one up to this many per group


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _csv_cells(path: Path):
    """Header, row count and (column, "row i") -> text of a one-header CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh)) or [[]]
    header, body = rows[0], rows[1:]
    cells = {(header[j] if j < len(header) else f"#{j}", f"row {i}"): v
             for i, row in enumerate(body) for j, v in enumerate(row)}
    return header, len(body), cells


def _json_leaves(value, field="", where="", out=None):
    """(field, "[i][j]") -> leaf value; list indices move from field to where."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k, v in value.items():
            _json_leaves(v, f"{field}.{k}" if field else k, where, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _json_leaves(v, f"{field}[]", f"{where}[{i}]", out)
    else:
        out[(field, where)] = value
    return out


def compare_cells(old: dict, new: dict):
    """Moved numbers grouped by field, and the other differences as lines."""
    groups, other = {}, []
    for key in sorted(set(old) | set(new)):
        field, where = key
        at = f"{field} {where}".rstrip()
        if key not in new or key not in old:
            side, value = ("old", old[key]) if key in old else ("new", new[key])
            other.append(f"{at}: only in {side} ({value!r})")
            continue
        a, b = old[key], new[key]
        g = groups.setdefault(field, {"count": 0, "moved": []})
        g["count"] += 1
        if repr(a) == repr(b):
            continue
        x, y = _number(a), _number(b)
        if x is not None and y is not None and x != y:
            g["moved"].append((where, x, y))
        else:
            other.append(f"{at}: {a!r} -> {b!r}")
    return {f: g for f, g in groups.items() if g["moved"]}, other


def _move_lines(name: str, groups: dict):
    lines = []
    for field, g in groups.items():
        moved = g["moved"]
        big = max(abs(y - x) for _, x, y in moved)
        rel = max((abs(y - x) / abs(x) if x else (0.0 if y == x else math.inf))
                  for _, x, y in moved)
        lines.append(f"{name} {field}: {len(moved)} of {g['count']} numbers moved, "
                     f"max abs {big:.3g}, max rel {rel:.3g}")
        if len(moved) <= LIST_AT_MOST:
            lines += [f"    {where + ': ' if where else ''}{x!r} -> {y!r}"
                      for where, x, y in moved]
    return lines


def compare_file(name: str, old: Path, new: Path):
    """Report lines for two files of the same relative name that differ."""
    if old.suffix == ".csv":
        h0, n0, c0 = _csv_cells(old)
        h1, n1, c1 = _csv_cells(new)
        lines = [f"{name}: header {h0} -> {h1}"] if h0 != h1 else []
        if n0 != n1:
            lines.append(f"{name}: {n0} -> {n1} rows")
        groups, other = compare_cells(c0, c1)
    elif old.suffix == ".json":
        lines = []
        groups, other = compare_cells(_json_leaves(json.loads(old.read_text())),
                                      _json_leaves(json.loads(new.read_text())))
    else:
        diff = difflib.unified_diff(old.read_text().splitlines(), new.read_text().splitlines(),
                                    "old", "new", lineterm="", n=0)
        return [f"{name}: text differs"] + ["    " + d for d in diff]
    lines += _move_lines(name, groups) + [f"{name} {o}" for o in other]
    return lines or [f"{name}: bytes differ, values equal"]


def compare_trees(old: Path, new: Path):
    """All report lines for two trees, and whether they are byte-identical."""
    files0 = {p.relative_to(old).as_posix() for p in old.rglob("*") if p.is_file()}
    files1 = {p.relative_to(new).as_posix() for p in new.rglob("*") if p.is_file()}
    lines = [f"missing: {f}" for f in sorted(files0 - files1)]
    lines += [f"extra: {f}" for f in sorted(files1 - files0)]
    for f in sorted(files0 & files1):
        if (old / f).read_bytes() != (new / f).read_bytes():
            lines += compare_file(f, old / f, new / f)
    return lines, not lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines, same = compare_trees(Path(args[0]), Path(args[1]))
    print("\n".join(lines) if lines else "byte-identical")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
