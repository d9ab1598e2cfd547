import json
from pathlib import Path

import pytest

from shadowbilliards import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(p)


class TestValidation:
    def test_missing_field_path(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"name": "x", "family": "torus_point"})
        rc = cli.main(["scenario", "run", "--scenario", path])
        assert rc == 2
        assert "scenario.params" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json",
                     {"name": "x", "family": "nope", "params": {}})
        rc = cli.main(["scenario", "run", "--scenario", path])
        assert rc == 2
        assert "family" in capsys.readouterr().err

    def test_json_syntax_line_numbers(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{\n  "name": "x",\n  broken\n}')
        rc = cli.main(["scenario", "run", "--scenario", path])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_list_entry_path(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {
            "name": "x", "family": "torus_point",
            "params": {"code": [[1, 0], [0, 1]]},
            "sweeps": {"eps": [1e-2, "oops"]},
        })
        rc = cli.main(["scenario", "run", "--scenario", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "sweeps.eps[1]" in capsys.readouterr().err

    def test_boolean_number_rejected(self, tmp_path, capsys):
        cfg = json.loads((SCENARIOS / "two_balls_box.json").read_text())
        cfg["params"]["eps"] = True
        path = write(tmp_path, "bad.json", cfg)
        rc = cli.main(["scenario", "run", "--scenario", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "scenario.params.eps" in capsys.readouterr().err

    def test_boolean_list_entry_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {
            "name": "x", "family": "torus_point",
            "params": {"code": [[1, 0], [0, 1]]},
            "sweeps": {"eps": [1e-2, True]},
        })
        rc = cli.main(["scenario", "run", "--scenario", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "sweeps.eps[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("shipped, sweep", [("torus_point", "eps"),
                                                ("torus_point", "windows"),
                                                ("ncenter_square", "mu")])
    def test_empty_sweep_rejected(self, tmp_path, capsys, shipped, sweep):
        cfg = json.loads((SCENARIOS / f"{shipped}.json").read_text())
        cfg.setdefault("sweeps", {})[sweep] = []
        path = write(tmp_path, "bad.json", cfg)
        rc = cli.main(["scenario", "run", "--scenario", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"scenario.sweeps.{sweep}" in capsys.readouterr().err

    def test_inadmissible_code_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {
            "name": "x", "family": "torus_point",
            "params": {"code": [[1, 0], [2, 0]]},
        })
        rc = cli.main(["scenario", "run", "--scenario", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_wrong_family_for_subcommand(self, tmp_path, capsys):
        path = write(tmp_path, "k.json", {
            "name": "x", "family": "kepler_grid",
            "params": {"revolutions": [[1, 1]],
                       "endpoints": [[[0.3, 0.0], [0.0, 0.35]]]},
        })
        rc = cli.main(["billiard", "shadow", "--scenario", path])
        assert rc == 2


class TestRuns:
    def test_kepler_table_deterministic(self, tmp_path):
        src = str(SCENARIOS / "kepler_grid.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["kepler", "table", "--scenario", src, "--out", str(out1)]) == 0
        assert cli.main(["kepler", "table", "--scenario", src, "--out", str(out2)]) == 0
        assert (out1 / "kepler_table.csv").read_bytes() == \
            (out2 / "kepler_table.csv").read_bytes()

    def test_headers_present(self, tmp_path):
        src = str(SCENARIOS / "kepler_grid.json")
        out = tmp_path / "k"
        cli.main(["kepler", "table", "--scenario", src, "--out", str(out)])
        header = (out / "kepler_table.csv").read_text().splitlines()[0]
        assert "[" in header and "]" in header  # units annotated

    def test_two_ball_torus_report(self, tmp_path):
        src = str(SCENARIOS / "two_balls_torus.json")
        out = tmp_path / "tbt"
        rc = cli.main(["chain", "certify", "--scenario", src, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert not report["certificate"]["stabilized"]
        assert report["kernel_defect"] <= 1e-8
        assert (out / "certificate.csv").exists()

    def test_two_ball_box_seeded(self, tmp_path):
        src = str(SCENARIOS / "two_balls_box.json")
        out = tmp_path / "tbb"
        rc = cli.main(["scenario", "run", "--scenario", src, "--out", str(out),
                       "--seed", "11"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["newton"]["converged"]
        assert report["shadow"]["endpoint_defect"] <= 1e-9
        assert report["periodic_chain"]["converged"]
        assert report["periodic_chain"]["sigma_min"] > 1e-8
        assert (out / "periodic_chain.csv").exists()

    def test_torus_point_full_run(self, tmp_path):
        src = str(SCENARIOS / "torus_point.json")
        out = tmp_path / "tp"
        rc = cli.main(["scenario", "run", "--scenario", src, "--out", str(out),
                       "--jobs", "2"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.9 <= report["error_slope"] <= 1.1
        for name in ("shadow_errors.csv", "lyapunov.csv", "certificate.csv",
                     "green.csv"):
            assert (out / name).exists()

    def test_graph_entropy_stage_only(self, tmp_path):
        src = str(SCENARIOS / "ncenter_square.json")
        out = tmp_path / "g"
        rc = cli.main(["graph", "entropy", "--scenario", src, "--out", str(out)])
        assert rc == 0
        assert (out / "graph.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["entropy"] > 0
        assert not (out / "mu_table.csv").exists()  # sweep not run by this stage

    def test_torus_point_deterministic_csv(self, tmp_path):
        src = str(SCENARIOS / "torus_point.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["scenario", "run", "--scenario", src, "--out", str(out1)])
        cli.main(["scenario", "run", "--scenario", src, "--out", str(out2)])
        for name in ("shadow_errors.csv", "lyapunov.csv", "certificate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ncenter_failure_reason_in_report(self, tmp_path, monkeypatch):
        from shadowbilliards import singular

        def fail(self, *args, **kwargs):
            raise singular.SingularShadowError("no descent (|R| = 1.00e-03)")

        monkeypatch.setattr(singular._ChainShooting, "solve", fail)
        cfg = json.loads((SCENARIOS / "ncenter_square.json").read_text())
        cfg["sweeps"]["mu"] = [1e-3]
        out = tmp_path / "nc"
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "nc.json", cfg),
                       "--out", str(out)])
        assert rc == 1
        failures = json.loads((out / "report.json").read_text())["failures"]
        assert failures[0] == ("shadow experiment failed to converge at some mu "
                               "(mu=1.000e-03: SingularShadowError: no descent "
                               "(|R| = 1.00e-03))")
