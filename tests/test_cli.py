import hashlib
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

    @pytest.mark.parametrize("command", [["chain", "solve"], ["chain", "certify"],
                                         ["billiard", "shadow"], ["ncenter", "shadow"],
                                         ["kepler", "table"], ["graph", "entropy"]])
    def test_removed_alias_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--scenario", str(SCENARIOS / "kepler_grid.json")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_out_must_be_a_string(self, tmp_path, capsys):
        cfg = json.loads((SCENARIOS / "kepler_grid.json").read_text())
        cfg["out"] = 5
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg)])
        assert rc == 2
        assert "scenario.out: expected str, got int" in capsys.readouterr().err

    def test_gates_must_be_an_object(self, tmp_path, capsys):
        cfg = json.loads((SCENARIOS / "two_balls_torus.json").read_text())
        cfg["gates"] = [1]
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "scenario.gates: expected object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("shipped", ["torus_point", "two_balls_torus", "two_balls_box",
                                         "ncenter_square", "kepler_grid"])
    def test_sweeps_must_be_an_object(self, tmp_path, capsys, shipped):
        cfg = json.loads((SCENARIOS / f"{shipped}.json").read_text())
        cfg["sweeps"] = 5
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "scenario.sweeps: expected object, got int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scenario_must_be_an_object(self, tmp_path, capsys):
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", "[1]")])
        assert rc == 2
        assert "scenario: expected object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tolerances", "sweep"])
    def test_unknown_top_level_field_rejected(self, tmp_path, capsys, key):
        cfg = json.loads((SCENARIOS / "kepler_grid.json").read_text())
        cfg[key] = {"newton": 1e-10}
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"scenario.{key}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("shipped, field, value", [
        ("torus_point", "error_slope", [0.9]),
        ("torus_point", "error_slope", "wide"),
        ("torus_point", "lyap_r2", "high"),
        ("torus_point", "lyapunov", 1),
        ("two_balls_torus", "expect_divergent_certificate", "yes"),
        ("ncenter_square", "min_slope", [0.8]),
    ])
    def test_gate_field_checked_before_the_run(self, tmp_path, capsys, monkeypatch,
                                               shipped, field, value):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline ran before the gates were read")

        for name in ("torus_point_scenario", "two_ball_torus_scenario",
                     "ncenter_scenario"):
            monkeypatch.setattr(cli.scenarios, name, no_run)
        cfg = json.loads((SCENARIOS / f"{shipped}.json").read_text())
        cfg.setdefault("gates", {})[field] = value
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"scenario.gates.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("shipped, field, value, message", [
        ("torus_point", "code", [[1, "a"], [0, 1]], "code[0][1]: expected integer"),
        ("torus_point", "code", [1, 0], "code[0]: expected a list of 2 integers"),
        ("torus_point", "code", [[1, 0, 0], [0, 1]], "code[0]: expected a list of 2 integers"),
        ("torus_point", "code", [[1.5, 0], [0, 1]], "code[0][0]: expected integer"),
        ("torus_point", "code", [], "code: expected a nonempty list"),
        ("two_balls_torus", "code", [[1, 0], [0, True]], "code[1][1]: expected integer"),
        ("two_balls_box", "code", [[0, 0], [-1, 1.0], [0, 0]], "code[1][1]: expected integer"),
        ("two_balls_box", "periodic_code", [[-1, 1], "x"],
         "periodic_code[1]: expected a list of 2 integers"),
        ("ncenter_square", "code", [[0, 1], [1, "2"], [2, 3], [3, 0]],
         "code[1][1]: expected integer"),
        ("ncenter_square", "code", [[0, 1, 2], [1, 2], [2, 3], [3, 0]],
         "code[0]: expected a list of 2 integers"),
        ("kepler_grid", "revolutions", [[1, 1], [1, 2.0]], "revolutions[1][1]: expected integer"),
    ], ids=["string", "flat", "length", "float", "empty", "two_balls_torus", "two_balls_box",
            "periodic_code", "ncenter", "ncenter_length", "revolutions"])
    def test_integer_list_field_checked_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                      shipped, field, value, message):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline ran on a malformed integer list")

        for name in ("torus_point_scenario", "two_ball_torus_scenario",
                     "two_ball_box_scenario", "ncenter_scenario"):
            monkeypatch.setattr(cli.scenarios, name, no_run)
        monkeypatch.setattr(cli.kpmod, "three_body_lagrangian", no_run)
        cfg = json.loads((SCENARIOS / f"{shipped}.json").read_text())
        cfg["params"][field] = value
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"scenario.params.{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("shipped, field, value, message", [
        ("kepler_grid", "params.endpoints", [[[0.3, 0.0]]], "endpoints[0]: expected a pair"),
        ("kepler_grid", "params.endpoints", [[[0.3, "a"], [0.0, 0.35]]],
         "endpoints[0][0][1]: expected number"),
        ("kepler_grid", "params.alpha1", 0.6, "alpha2: expected 1 - alpha1"),
        ("kepler_grid", "params.revolutions", [[1, 1], [0, 2]],
         "revolutions[1][0]: expected a nonzero integer"),
        ("kepler_grid", "params.energy", 0.1, "energy: expected a negative number"),
        ("kepler_grid", "params.endpoints", [[[0.0, 0.0], [0.0, 0.35]]],
         "endpoints[0]: expected two points off the center at the origin"),
        ("kepler_grid", "params.endpoints", [[[0.3, 0.0], [0.0, 0.35]], [[0.3, 0.0], [0.3, 0.0]]],
         "endpoints[1]: expected two distinct points"),
        ("kepler_grid", "params.endpoints", [[[0.3, 0.0], [0.3, 1e-15]]],
         "endpoints[0]: expected two distinct points, more than 1e-12 of their radius"),
        ("kepler_grid", "params.endpoints", [[[3.0, 0.0], [0.0, 0.35]]],
         "endpoints[0]: expected a pair reachable at energy -0.9"),
        ("ncenter_square", "params.centers", [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0]],
         "centers[3]: expected a list of 2 numbers"),
        ("ncenter_square", "params.centers", [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
         "centers[0]: expected a list of 2 numbers"),
        ("ncenter_square", "params.alphas", [1.0, 1.0, 1.0], "alphas: expected 4 entries"),
        ("ncenter_square", "params.alphas", [1.0, -1.0, 1.0, 1.0],
         "alphas[1]: expected a positive number"),
        ("ncenter_square", "sweeps.mu", [1e-3, 0.0], "mu[1]: expected a positive number"),
        ("ncenter_square", "params.code", [[0, 1], [1, 7], [7, 3], [3, 0]],
         "code[1][1]: expected a center index in 0..3"),
        ("ncenter_square", "params.code", [[0, 1], [1, 2], [3, 0]],
         "code[2][0]: expected 2, the center where the previous link ends"),
        ("ncenter_square", "params.energy", 0.0, "energy: expected a positive number"),
        ("torus_point", "params.energy", -0.5, "energy: expected a positive number"),
        ("torus_point", "params.periods", [1.0], "periods: expected 2 entries"),
        ("torus_point", "sweeps.eps", [1e-2, 0.0], "eps[1]: expected a positive number below"),
        ("torus_point", "sweeps.eps", [0.5], "eps[0]: expected a positive number below"),
        ("torus_point", "params.code", [[1, 0], [0, 0]], "code[1]: expected a nonzero winding"),
        ("two_balls_box", "params.random_starts", 0,
         "random_starts: expected a positive integer"),
        ("two_balls_box", "params.masses", [1.0, 0.0], "masses[1]: expected a positive number"),
        ("two_balls_box", "params.energy", 0.0, "energy: expected a positive number"),
        ("two_balls_box", "params.endpoint_a", [0.15], "endpoint_a: expected a list of 2"),
        ("two_balls_box", "params.endpoint_a", [0.15, 1.2],
         "endpoint_a[1]: expected a position inside the box"),
        ("two_balls_box", "params.eps", 0.6, "eps: expected a positive number below 0.15"),
        ("two_balls_torus", "sweeps.windows", [1.5, 2],
         "windows[0]: expected a nonnegative integer"),
        ("two_balls_torus", "sweeps.windows", [-1, 2],
         "windows[0]: expected a nonnegative integer"),
        ("torus_point", "sweeps.windows", [2, 2],
         "windows[1]: expected a half-width above sweeps.windows[0] = 2"),
        ("torus_point", "sweeps.windows", [16, 1],
         "windows[1]: expected a half-width above sweeps.windows[0] = 16"),
        ("torus_point", "sweeps.windows", [16], "windows: expected at least two half-widths"),
        ("two_balls_torus", "params.points", [0.25], "points: expected 2 entries"),
        ("two_balls_torus", "params.code", [[1, 0], [1, 1]],
         "code[1]: expected two different windings"),
    ], ids=["kepler_one_point_pair", "kepler_string_coordinate", "kepler_alpha_sum",
            "kepler_zero_revolutions", "kepler_positive_energy", "kepler_endpoint_at_origin",
            "kepler_coincident_endpoints", "kepler_nearly_coincident_endpoints",
            "kepler_endpoint_out_of_reach", "ncenter_center_length",
            "ncenter_spatial_centers", "ncenter_alphas_length", "ncenter_negative_alpha", "ncenter_zero_mu",
            "ncenter_center_index", "ncenter_not_concatenating", "ncenter_zero_energy",
            "torus_negative_energy", "torus_periods_length", "torus_zero_eps",
            "torus_eps_at_tube_radius", "torus_zero_winding", "box_zero_starts",
            "box_zero_mass", "box_zero_energy", "box_endpoint_length",
            "box_endpoint_outside", "box_eps_above_room", "torus2_fractional_window",
            "torus2_negative_window", "torus_repeated_window", "torus_decreasing_windows",
            "torus_one_window", "torus2_points_length", "torus2_equal_windings"])
    def test_unusable_value_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     shipped, field, value, message):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline ran on an unusable value")

        monkeypatch.setattr(cli, "shadow_solve", no_run)
        monkeypatch.setattr(cli.dlsmod, "newton_chain", no_run)
        monkeypatch.setattr(cli.singular, "shadow_experiment", no_run)
        monkeypatch.setattr(cli.kpmod, "three_body_lagrangian", no_run)
        cfg = json.loads((SCENARIOS / f"{shipped}.json").read_text())
        section, key = field.split(".")
        cfg.setdefault(section, {})[key] = value
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "bad.json", cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"scenario.{section}.{message}" in capsys.readouterr().err


class TestRuns:
    def test_kepler_table_deterministic(self, tmp_path):
        src = str(SCENARIOS / "kepler_grid.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["scenario", "run", "--scenario", src, "--out", str(out1)]) == 0
        assert cli.main(["scenario", "run", "--scenario", src, "--out", str(out2)]) == 0
        assert (out1 / "kepler_table.csv").read_bytes() == \
            (out2 / "kepler_table.csv").read_bytes()

    def test_headers_present(self, tmp_path):
        src = str(SCENARIOS / "kepler_grid.json")
        out = tmp_path / "k"
        cli.main(["scenario", "run", "--scenario", src, "--out", str(out)])
        header = (out / "kepler_table.csv").read_text().splitlines()[0]
        assert "[" in header and "]" in header  # units annotated

    def test_two_ball_torus_report(self, tmp_path):
        src = str(SCENARIOS / "two_balls_torus.json")
        out = tmp_path / "tbt"
        rc = cli.main(["scenario", "run", "--scenario", src, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert not report["certificate"]["stabilized"]
        assert report["kernel_defect"] <= 1e-8
        assert (out / "certificate.csv").exists()

    @pytest.mark.parametrize("params", [
        {"points": [0.25, 0.3]},
        {"masses": [1.0, 2.0], "code": [[1, -1], [-1, 1]]}], ids=["points", "masses"])
    def test_two_ball_torus_newton_steps_on_the_singular_hessian(self, tmp_path, params):
        # translation symmetry makes every Hessian of this family singular; a
        # start that is not critical needs Newton steps through it
        cfg = json.loads((SCENARIOS / "two_balls_torus.json").read_text())
        cfg["params"].update(params)
        out = tmp_path / "tbt"
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "t.json", cfg),
                       "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["newton"]["converged"]
        assert report["failures"] == []

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

    def test_ncenter_square_run(self, tmp_path):
        from shadowbilliards import scenarios, symbolic

        cfg = json.loads((SCENARIOS / "ncenter_square.json").read_text())
        cfg["sweeps"]["mu"] = [10**-2.85, 10**-2.875]
        out = tmp_path / "nc"
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "nc.json", cfg),
                       "--out", str(out)])
        assert rc == 0
        p = cfg["params"]
        scn = scenarios.ncenter_scenario(p["centers"], p["alphas"], p["energy"])
        graph = symbolic.build_graph(scn.graph_vertices())
        assert (out / "graph.txt").read_text() == graph.dump() + "\n"
        assert json.loads((out / "report.json").read_text())["entropy"] == 1.0986122886681098
        rows = (out / "mu_table.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["1", "1"]

    def test_torus_point_deterministic_csv(self, tmp_path):
        src = str(SCENARIOS / "torus_point.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["scenario", "run", "--scenario", src, "--out", str(out1)])
        cli.main(["scenario", "run", "--scenario", src, "--out", str(out2)])
        for name in ("shadow_errors.csv", "lyapunov.csv", "certificate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_torus_point_failed_eps_reaches_the_report(self, tmp_path, monkeypatch, capsys):
        real = cli.lyapunov_estimate

        def fail_at_1e_3(sc, dom):
            if sc.eps == 1e-3:
                raise cli.EventSearchError("bounce 1 does not close: defect 1.00e-05")
            return real(sc, dom)

        monkeypatch.setattr(cli, "lyapunov_estimate", fail_at_1e_3)
        cfg = json.loads((SCENARIOS / "torus_point.json").read_text())
        cfg["sweeps"]["eps"] = [1e-2, 10**-2.5, 1e-3]
        out = tmp_path / "tp"
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "tp.json", cfg),
                       "--out", str(out)])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == [
            "eps=1.000e-03: EventSearchError: bounce 1 does not close: defect 1.00e-05"]
        assert len(report["large_exponent_counts"]) == 2
        for name in ("shadow_errors.csv", "lyapunov.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert [float(r.split(",")[0]) for r in rows] == [1e-2, 10**-2.5]

    def test_torus_point_every_eps_failed(self, tmp_path, monkeypatch):
        def fail(sc, dom):
            raise cli.EventSearchError("bounce 0 does not close: defect 1.00e-05")

        monkeypatch.setattr(cli, "lyapunov_estimate", fail)
        cfg = json.loads((SCENARIOS / "torus_point.json").read_text())
        cfg["sweeps"]["eps"] = [1e-2, 1e-3]
        out = tmp_path / "tp"
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "tp.json", cfg),
                       "--out", str(out)])
        assert rc == 1
        failures = json.loads((out / "report.json").read_text())["failures"]
        assert [f.split(":")[0] for f in failures] == ["eps=1.000e-02", "eps=1.000e-03"]

    def test_ncenter_failure_reason_in_report(self, tmp_path, monkeypatch):
        from shadowbilliards import singular

        def fail(self):
            raise singular.SingularShadowError("no descent (|R| = 1.00e-03)")
            yield  # a generator, as the Newton it stands in for

        monkeypatch.setattr(singular._ChainShooting, "newton", fail)
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

    def test_kepler_grid_unsynchronized_split_is_a_failure(self, tmp_path, capsys):
        # the (1, 3) polish runs out of steps at tau1 - tau2 = -0.685 (see
        # test_kepler); the (1, 1) row still lands in the table
        cfg = json.loads((SCENARIOS / "kepler_grid.json").read_text())
        cfg["params"].update({"energy": -1.2, "alpha1": 0.7, "alpha2": 0.3,
                              "revolutions": [[1, 3], [1, 1]],
                              "endpoints": [[[0.3, 0.0], [0.0, 0.35]]]})
        out = tmp_path / "kg"
        rc = cli.main(["scenario", "run", "--scenario", write(tmp_path, "kg.json", cfg),
                       "--out", str(out)])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["rows"] == 1
        assert report["failures"] == [
            "revolutions [1, 3] at params.endpoints[0]: energy-split polish did not "
            "converge in 60 steps: |tau1 - tau2| = 6.854e-01"]
        rows = (out / "kepler_table.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["1", "1"]]


# sha256 of every file that `scenario run --seed 0` writes for four shipped
# scenarios, recorded at commit 52a3028. ncenter_square (about 30 s) is left
# to tools/compare_outputs.py. A change that moves an output updates the
# digest here and lists the moved values in CHANGES.md.
SHIPPED_DIGESTS = {
    "kepler_grid": {
        "kepler_table.csv": "55d5b12435805f17e9581689c7f33848601155abec4f5059268c3c1e0abd059b",
        "report.json": "2ced4d0e233f20a5392a4d57c8d7eca34ff49d72bd168662e73d683ee93f4557",
    },
    "torus_point": {
        "certificate.csv": "2e4640a6d68446a8b01f152446eca70cf30caa81440497c5bb902f73898d4acc",
        "events.csv": "a516dd5a0cabf2e6ac7570e885256518d250a71c33d5840f1a9227cb23f77df8",
        "green.csv": "720118eb82ad22ea2a6a3d4933430019ee47e6ef7f22b898a8878a580aeb3d99",
        "lyapunov.csv": "20ccbe9e3a46a94fbe22c9b8d96d58bd05652e73f51999b5f10f51fdb18a6135",
        "report.json": "b1e9d0f1b048afc7cb57b50552bc3462f6f34807016026b9470a80ebbca78fdd",
        "shadow_errors.csv": "22ce502607c1cd243678ec7817ffe93d496e13657b9a5adc8902add5f99de7c6",
    },
    "two_balls_box": {
        "chain.csv": "1e69f0423eb923ddc47cf6847394c38d2afa7f74684e92217b5acb2e2205dfad",
        "periodic_chain.csv": "e739a317000cd969ae152cacc61e758e1810ac549c7f1e40e02942e35579db2e",
        "report.json": "f35357313bba49df1a0a194c70ce2b0fbf143a81a393ea153e88b56699e161d4",
        "shadow_boundary.csv": "c60d10146f7f3b09ec4e42b4758c0ba38bcbb541a57e162ea241be2199152e2e",
    },
    "two_balls_torus": {
        "certificate.csv": "aaed35ac6af4966618b5c1ffda53951b08bb34db6b780b7b8ec256bc9192f317",
        "chain.csv": "5e4483d8675fb00e8f017c45593d4bfee59f8caf2fa6ea668812ebec2b9f9a8b",
        "report.json": "28fd797b19f133832386ea27fa456618999227e09e4469fea47be2dcae30037d",
    },
}


@pytest.mark.parametrize("shipped", sorted(SHIPPED_DIGESTS))
def test_shipped_outputs_byte_identical(tmp_path, shipped):
    out = tmp_path / shipped
    assert cli.main(["scenario", "run", "--scenario", str(SCENARIOS / f"{shipped}.json"),
                     "--out", str(out), "--seed", "0"]) == 0
    written = {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.rglob("*")) if f.is_file()}
    assert written == SHIPPED_DIGESTS[shipped]
