"""tools/compare_outputs.py: differences between two output trees of scenario run."""

import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_outputs)


def tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


CSV = "site[index],x[length],tag[-]\n0,1.0,a\n1,2.0,b\n2,-4.0,c\n"
REPORT = {"name": "run", "certificate": {"norms": [10.0, 20.0, 30.0, 40.0]}, "slope": 1.0}


def test_identical_trees_exit_zero(tmp_path, capsys):
    files = {"a/chain.csv": CSV, "a/report.json": json.dumps(REPORT), "graph.txt": "x -> y\n"}
    old = tree(tmp_path / "old", files)
    new = tree(tmp_path / "new", files)
    assert compare_outputs.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.strip() == "byte-identical"


def test_moves_grouped_by_column_and_field(tmp_path, capsys):
    old = tree(tmp_path / "old", {"chain.csv": CSV, "report.json": json.dumps(REPORT),
                                  "gone.txt": "1\n", "graph.txt": "x -> y\n"})
    report = {"name": "run2", "certificate": {"norms": [10.0, 20.5, 30.0, 40.0 + 1e-12]},
              "slope": 1.0}
    new = tree(tmp_path / "new", {
        "chain.csv": "site[index],x[length],tag[-]\n0,1.0,a\n1,2.5,b\n2,-4.0000001,z\n",
        "report.json": json.dumps(report), "new.txt": "2\n", "graph.txt": "x -> z\n"})
    assert compare_outputs.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "missing: gone.txt" in lines and "extra: new.txt" in lines
    i = lines.index("chain.csv x[length]: 2 of 3 numbers moved, max abs 0.5, max rel 0.25")
    assert lines[i + 1:i + 3] == ["    row 1: 2.0 -> 2.5", "    row 2: -4.0 -> -4.0000001"]
    assert "chain.csv tag[-] row 2: 'c' -> 'z'" in lines
    i = lines.index("report.json certificate.norms[]: 2 of 4 numbers moved, "
                    "max abs 0.5, max rel 0.025")
    assert lines[i + 1] == "    [1]: 20.0 -> 20.5"
    assert "report.json name: 'run' -> 'run2'" in lines
    assert not any(line.startswith("report.json slope") for line in lines)
    assert "graph.txt: text differs" in lines and "    +x -> z" in lines


def test_missing_json_field_and_row_count(tmp_path, capsys):
    old = tree(tmp_path / "old", {"r.json": '{"a": 1, "b": [1, 2]}', "t.csv": CSV})
    new = tree(tmp_path / "new", {"r.json": '{"a": 1, "b": [1]}', "t.csv": CSV + "3,8.0,d\n"})
    assert compare_outputs.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "r.json b[] [1]: only in old (2)" in lines
    assert "t.csv: 3 -> 4 rows" in lines
    assert "t.csv x[length] row 3: only in new ('8.0')" in lines
