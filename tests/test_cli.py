import csv
import json
import os
import threading

import numpy as np
import pytest

from qbattery.cli import main, parse_number_list, write_csv
from qbattery.states import schmidt_gap

from _oracles import csv_module_write


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(*argv):
    return main([str(a) for a in argv])


class TestParseNumberList:
    def test_plain_and_ranges(self):
        assert parse_number_list("1,2,3") == [1.0, 2.0, 3.0]
        assert parse_number_list("0:30", integer=True) == list(range(31))
        vals = parse_number_list("0:1:0.1")
        assert len(vals) == 11
        assert np.isclose(vals[-1], 1.0)

    def test_rejects_garbage(self):
        from qbattery.cli import UsageError

        with pytest.raises(UsageError):
            parse_number_list("1,two")
        with pytest.raises(UsageError):
            parse_number_list("1:0")

    def test_item_count_is_checked_before_expanding(self, monkeypatch):
        from qbattery.cli import UsageError

        with pytest.raises(UsageError, match="past 1000000 items"):
            parse_number_list("0:1e12")  # would fill memory if it were expanded
        for text in ("0:1e30", "0:1e27:1e-3"):  # counts past Decimal's 28 digits
            with pytest.raises(UsageError, match="past 1000000 items"):
                parse_number_list(text)
        monkeypatch.setattr("qbattery.cli.MAX_LIST_ITEMS", 3)
        assert parse_number_list("0:2") == [0.0, 1.0, 2.0]
        for text in ("0:3", "0:1,2:3", "0:1,2,3"):
            with pytest.raises(UsageError, match="past 3 items"):
                parse_number_list(text)


class TestWriteCsv:
    def test_matches_the_csv_module(self, tmp_path):
        """One %-format per file writes the bytes csv.writer wrote, CRLF
        line ends included."""
        header = ["name", "x", "y", "i", "j", "flag", "other"]
        rows = [
            ("G_p", 0.1, np.float64(-2.5e-17), 3, np.int64(-7), True, False),
            ("L", 1.0, np.float64(np.nan), 0, np.int64(2**40), False, True),
            ("G", 1e300, np.float64(np.inf), -12, np.int64(0), True, True),
        ]
        write_csv(tmp_path / "new.csv", header, rows)
        csv_module_write(tmp_path / "old.csv", header, rows)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\r\n") == 4


class TestSweepCommand:
    def test_direct_quantity_matches_closed_form(self, tmp_path):
        out = tmp_path / "gp.csv"
        code = run(
            "sweep", "--seed", 1, "--output", out, "--quantity", "G_p",
            "--entanglements", "0:1:0.1", "--collisions", "0", "--threads", 2,
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 11
        for row in rows:
            want = 3.0 * (1.0 - schmidt_gap(float(row["E"])))
            assert abs(float(row["value"]) - want) <= 1e-9
            assert row["quantity"] == "G_p"

    def test_empty_entanglement_list_is_usage_error(self, tmp_path):
        code = run(
            "sweep", "--seed", 1, "--output", tmp_path / "x.csv",
            "--entanglements", "", "--collisions", "0",
        )
        assert code == 2

    def test_missing_seed_is_usage_error(self, tmp_path):
        code = run("sweep", "--output", tmp_path / "x.csv", "--collisions", "0")
        assert code == 2

    def test_figure_grid_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(
            "sweep", "--seed", 1, "--output", out, "--quantity", "G_p",
            "--entanglements", "0.0,0.2,0.4,0.6,0.8", "--collisions", "0:30",
            "--threads", 4,
        )
        assert code == 0
        assert len(read_csv(out)) == 5 * 31

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "m.csv"
        run("sweep", "--seed", 7, "--output", out, "--collisions", "0",
            "--entanglements", "0.5")
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 7
        assert manifest["config"]["model"]["delta_t"] == 0.2
        assert manifest["outputs"] == [str(out)]
        assert "version" in manifest and "wall_time_s" in manifest

    def test_invalid_quantity_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--seed", 1, "--output", tmp_path / "x.csv",
                "--quantity", "Z")
        assert exc.value.code == 2

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[model]\ndelta_t = 0.3\n\n[sweep]\nentanglements = 0.4\n"
            "collisions = 0,1\nquantity = G_p\n\n[optimizer]\nseed = 9\n"
        )
        out = tmp_path / "cfg.csv"
        code = run("sweep", "--config", cfg, "--output", out,
                   "--entanglements", "0.6")
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2  # flag E list overrides the file, n list kept
        assert all(float(r["E"]) == 0.6 for r in rows)
        assert all(float(r["delta_t"]) == 0.3 for r in rows)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\ncouplingg = 2\n")
        code = run("sweep", "--config", cfg, "--seed", 1,
                   "--output", tmp_path / "x.csv")
        assert code == 2


class TestTrajectoryCommand:
    def test_markovian_segments_non_increasing(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            "trajectory", "--seed", 3, "--output", out, "--quantity", "G_p",
            "--entanglement", 0.6, "--delta-ts", "0.4", "--collisions", 3,
            "--substeps", 60, "--threads", 1,
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 3 * 60 + 1
        by_collision = {}
        for row in rows:
            by_collision.setdefault(int(row["collision_index"]), []).append(
                float(row["value"])
            )
        for index, seg in by_collision.items():
            if index == 0:
                continue
            assert np.all(np.diff(seg) <= 1e-6), f"segment {index} increases"

    def test_long_collision_dips_then_rises(self, tmp_path):
        out = tmp_path / "dip.csv"
        run(
            "trajectory", "--seed", 3, "--output", out, "--quantity", "G_p",
            "--entanglement", 0.6, "--delta-ts", "1.6", "--collisions", 1,
            "--substeps", 200, "--threads", 1,
        )
        values = [float(r["value"]) for r in read_csv(out)]
        interior = values[1:-1]
        assert min(interior) < values[0] - 1e-4
        assert min(interior) < values[-1] - 1e-4

    def test_single_substep_is_boundary_sweep(self, tmp_path):
        out = tmp_path / "bound.csv"
        run(
            "trajectory", "--seed", 3, "--output", out, "--entanglement", 0.2,
            "--delta-ts", "0.2", "--collisions", 4, "--substeps", 1,
        )
        assert len(read_csv(out)) == 5


class TestBlpCommand:
    # Q_N over delta_t = 0.2 .. 1.8 (step 0.2) recorded from the first
    # verified run at these exact settings (seed 11, 3 starts, 500 evals,
    # 200 grid points); the scan is deterministic, the loose atol only
    # shields against BLAS/library drift.
    FROZEN_SCAN = [
        0.0,
        0.0,
        0.0,
        0.026365622011472065,
        0.41535050288152231,
        0.73619003132032246,
        0.93911925600889079,
        0.99996090312876018,
        0.9999063136173898,
    ]

    def test_scan_against_recorded_values(self, tmp_path):
        out = tmp_path / "blp.csv"
        code = run(
            "blp", "--seed", 11, "--output", out, "--starts", 3,
            "--max-evals", 500, "--threads", 4,
            "--trace-output", tmp_path / "trace.csv",
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 9
        q = np.array([float(r["Q_N"]) for r in rows])
        assert np.allclose(q, self.FROZEN_SCAN, atol=2e-2)
        assert q[0] <= 1e-6  # short windows are Markovian
        assert np.all(np.diff(q) >= -1e-3)  # non-decreasing up to grid noise
        assert q[-2] > 0.99  # full exchange revival by delta_t = 1.6
        # one trace table, every delta_t's grid in command order
        trace = read_csv(tmp_path / "trace.csv")
        assert list(trace[0]) == ["delta_t", "t", "D"]
        assert len([row for row in trace if float(row["delta_t"]) == 0.2]) == 201

    def test_coupling_forced_to_one_unless_overridden(self, tmp_path):
        # model k=3 would show backflow already at delta_t=0.4; the command
        # must fall back to k=1, which is still Markovian there
        cfg = tmp_path / "k.ini"
        cfg.write_text("[model]\nk = 3.0\n")
        out = tmp_path / "k1.csv"
        code = run(
            "blp", "--config", cfg, "--seed", 2, "--output", out,
            "--delta-ts", "0.4", "--starts", 2, "--max-evals", 200,
        )
        assert code == 0
        assert float(read_csv(out)[0]["Q_N"]) <= 1e-6
        # explicit override wins
        out0 = tmp_path / "k0.csv"
        code = run(
            "blp", "--config", cfg, "--seed", 2, "--output", out0,
            "--delta-ts", "1.6", "--k", 0.0, "--starts", 2, "--max-evals", 100,
        )
        assert code == 0
        assert float(read_csv(out0)[0]["Q_N"]) <= 1e-12

    def test_multi_collision_extension_flag(self, tmp_path):
        out = tmp_path / "multi.csv"
        code = run(
            "blp", "--seed", 4, "--output", out, "--delta-ts", "1.0",
            "--collisions", 2, "--starts", 2, "--max-evals", 200,
            "--grid-points", 100, "--trace-output", tmp_path / "mtrace.csv",
        )
        assert code == 0
        assert float(read_csv(out)[0]["Q_N"]) > 1e-4
        assert len(read_csv(tmp_path / "mtrace.csv")) == 2 * 100 + 1

    def test_trace_table_holds_each_lambda_trace(self, tmp_path):
        from dataclasses import replace

        from qbattery.model import ModelParams
        from qbattery.nonmarkov import blp_measure
        from qbattery.optimize import OptimizerSettings

        trace = tmp_path / "T.csv"
        code = run(
            "blp", "--seed", 6, "--output", tmp_path / "b.csv", "--delta-ts", "0.6,1.6",
            "--collisions", 2, "--grid-points", 10, "--starts", 2, "--max-evals", 60,
            "--trace-output", trace,
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "delta_t,t,D"
        want = []
        settings = OptimizerSettings(seed=6, starts=2, max_evals=60)
        for idx, dt in enumerate((0.6, 1.6)):
            result = blp_measure(dt, replace(ModelParams(), delta_t=dt), settings=settings.for_grid_index(idx),
                                 grid_points=10, collisions=2)
            want += ["%.17g,%.17g,%.17g" % (dt, t, d) for t, d in result.lambda_trace]
        assert lines[1:] == want and len(want) == 2 * (2 * 10 + 1)


class TestFitCommand:
    def test_pipeline_on_simulated_sweep(self, tmp_path):
        sweep_out = tmp_path / "gp7.csv"
        run(
            "sweep", "--seed", 1, "--output", sweep_out, "--quantity", "G_p",
            "--entanglements", "0:1:0.05", "--collisions", "7", "--threads", 2,
        )
        fit_out = tmp_path / "fit.json"
        code = run("fit", "--model", "M1", "--input", sweep_out,
                   "--output", fit_out, "--n", 7)
        assert code == 0
        result = json.loads(fit_out.read_text())
        assert result["model"] == "M1"
        assert result["residual"] <= 1e-3
        assert result["converged"] is True
        # parameter echo round trip: rebuild the curve from the JSON params
        c, a = result["params"]["c"], result["params"]["a"]
        for row in read_csv(sweep_out):
            e = float(row["E"])
            assert abs(3 * c * (a - schmidt_gap(e)) - float(row["value"])) <= 1e-2

    def test_missing_column_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        code = run("fit", "--model", "M1", "--input", bad,
                   "--output", tmp_path / "f.json")
        assert code == 2

    def test_malformed_value_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad2.csv"
        bad.write_text("E,value\n0.1,1.0\n0.2,oops\n0.3,0.5\n")
        code = run("fit", "--model", "M1", "--input", bad,
                   "--output", tmp_path / "f.json")
        assert code == 2

    def test_non_finite_value_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad3.csv"
        bad.write_text("E,value\n0.1,1.0\n0.2,nan\n0.3,0.5\n0.4,0.2\n")
        code = run("fit", "--model", "M2", "--input", bad,
                   "--output", tmp_path / "f.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "row 2 of 4 is not finite" in err
        assert not (tmp_path / "f.json").exists()

    def test_unknown_model_is_usage_error(self, tmp_path):
        good = tmp_path / "ok.csv"
        good.write_text("E,value\n0.0,1\n0.5,0.8\n1.0,0.2\n")
        code = run("fit", "--model", "M7", "--input", good,
                   "--output", tmp_path / "f.json")
        assert code == 2

    def test_bootstrap_flag(self, tmp_path):
        sweep_out = tmp_path / "boot_in.csv"
        run("sweep", "--seed", 1, "--output", sweep_out, "--quantity", "G_p",
            "--entanglements", "0:1:0.1", "--collisions", "4")
        fit_out = tmp_path / "boot.json"
        code = run("fit", "--model", "M1", "--input", sweep_out,
                   "--output", fit_out, "--bootstrap", 40)
        assert code == 0
        result = json.loads(fit_out.read_text())
        assert all(v >= 0 for v in result["confidence95"].values())


class TestExitCodes:
    def test_contract_violation_maps_to_exit_3(self, tmp_path, monkeypatch):
        from qbattery.linalg import ContractViolation

        def boom(*args, **kwargs):
            raise ContractViolation("synthetic failure")

        monkeypatch.setattr("qbattery.cli.fine_trajectory", boom)
        code = run(
            "trajectory", "--seed", 1, "--output", tmp_path / "x.csv",
            "--entanglement", 0.5, "--delta-ts", "0.2", "--collisions", 1,
            "--substeps", 2, "--threads", 1,
        )
        assert code == 3


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        argv_base = [
            "sweep", "--seed", 123, "--quantity", "G",
            "--entanglements", "0.3,0.7", "--collisions", "2",
            "--starts", 3, "--max-evals", 150,
        ]
        out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert run(*argv_base, "--output", out1, "--threads", 1) == 0
        assert run(*argv_base, "--output", out4, "--threads", 4) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_blp_threads_identical(self, tmp_path):
        argv_base = [
            "blp", "--seed", 5, "--delta-ts", "0.9,1.1", "--starts", 2,
            "--max-evals", 120, "--grid-points", 120,
        ]
        out1, out4 = tmp_path / "b1.csv", tmp_path / "b4.csv"
        assert run(*argv_base, "--output", out1, "--threads", 1) == 0
        assert run(*argv_base, "--output", out4, "--threads", 4) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_repeat_run_identical(self, tmp_path):
        argv_base = [
            "trajectory", "--seed", 9, "--entanglement", 0.6,
            "--delta-ts", "0.4,1.6", "--collisions", 2, "--substeps", 40,
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(*argv_base, "--output", out1, "--threads", 2) == 0
        assert run(*argv_base, "--output", out2, "--threads", 3) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSerialRun:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--quantity", "G", "--entanglements", "0.3,0.7", "--collisions", "2"),
        ("blp", "--delta-ts", "0.9,1.1", "--grid-points", 20),
    ])
    def test_no_thread_starts(self, tmp_path, monkeypatch, argv):
        """Grid points run in one loop: --threads is accepted, starts no
        thread and is not recorded."""
        def no_thread(self):
            raise AssertionError("a command started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        out = tmp_path / "out.csv"
        assert run(*argv, "--seed", 3, "--starts", 1, "--max-evals", 40, "--threads", 4, "--output", out) == 0
        assert len(read_csv(out)) == 2
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert "threads" not in manifest


class TestRangeItems:
    def test_range_items_are_their_decimal_values(self):
        assert parse_number_list("0:1:0.1") == [
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
        ]


class TestManifests:
    def test_fit_writes_shared_manifest(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("E,value,n\n0.0,1.0,7\n0.5,0.8,7\n1.0,0.2,7\n0.2,9.0,3\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--model", "M1", "--input", data, "--output", out, "--n", 7) == 0
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["outputs"] == [str(out)]
        assert manifest["filters"] == {"n": 7, "quantity": None}
        assert manifest["model"] == "M1" and manifest["input"] == str(data)
        assert manifest["bootstrap"] == 0
        assert "version" in manifest and "wall_time_s" in manifest

    @pytest.mark.parametrize("rows, converged", [
        ("0.5,1.0\n0.5,0.8\n0.5,0.9\n0.5,0.7\n", False),  # one abscissa: singular normal equations
        ("0.0,1.0\n0.5,0.8\n1.0,0.2\n0.7,0.4\n", True),
    ], ids=["singular", "converged"])
    def test_fit_manifest_records_message(self, tmp_path, rows, converged):
        data = tmp_path / "in.csv"
        data.write_text("E,value\n" + rows)
        out = tmp_path / "fit.json"
        assert run("fit", "--model", "M2", "--input", data, "--output", out) == 0
        assert json.loads(out.read_text())["converged"] is converged
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert bool(manifest["message"]) is not converged

    def test_blp_flags_leave_other_sections_at_defaults(self, tmp_path):
        from qbattery.cli import DEFAULTS

        out = tmp_path / "b.csv"
        code = run(
            "blp", "--seed", 1, "--output", out, "--delta-ts", "0.3",
            "--collisions", 2, "--starts", 1, "--max-evals", 20, "--grid-points", 10,
        )
        assert code == 0
        config = json.loads((tmp_path / "b.csv.manifest.json").read_text())["config"]
        assert config["trajectory"] == DEFAULTS["trajectory"]
        assert config["sweep"] == DEFAULTS["sweep"]
        assert config["blp"]["delta_ts"] == "0.3"
        assert config["blp"]["collisions"] == 2

    def test_absent_store_true_flag_keeps_ini_value(self, tmp_path):
        from qbattery.cli import DEFAULTS

        cfg = tmp_path / "ps.ini"
        cfg.write_text("[sweep]\nquantity = L\n")
        out = tmp_path / "ps.csv"
        code = run(
            "sweep", "--config", cfg, "--seed", 1, "--output", out,
            "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0",
        )
        assert code == 0
        config = json.loads((tmp_path / "ps.csv.manifest.json").read_text())["config"]
        assert config["sweep"]["quantity"] == "G_p"
        assert config["trajectory"] == DEFAULTS["trajectory"]


class TestRejectedRuns:
    def assert_rejected(self, tmp_path, capsys, code):
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_zero_threads(self, tmp_path, capsys):
        code = run("sweep", "--seed", 1, "--output", tmp_path / "x.csv",
                   "--collisions", "0", "--entanglements", "0.5", "--threads", 0)
        self.assert_rejected(tmp_path, capsys, code)

    def test_negative_threads(self, tmp_path, capsys):
        code = run("trajectory", "--seed", 1, "--output", tmp_path / "x.csv",
                   "--collisions", 1, "--substeps", 2, "--threads", -3)
        self.assert_rejected(tmp_path, capsys, code)

    def test_trace_output_in_missing_directory(self, tmp_path, capsys):
        code = run(
            "blp", "--seed", 1, "--output", tmp_path / "b.csv", "--delta-ts", "0.4",
            "--starts", 1, "--max-evals", 20, "--grid-points", 10,
            "--trace-output", tmp_path / "missing" / "t.csv",
        )
        self.assert_rejected(tmp_path, capsys, code)

    def test_phase_sweep_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--seed", 1, "--output", tmp_path / "x.csv",
                "--collisions", "0", "--entanglements", "0.5", "--phase-sweep")
        self.assert_rejected(tmp_path, capsys, exc.value.code)

    def test_phase_sweep_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "ps.ini"
        cfg.write_text("[sweep]\nphase_sweep = true\n")
        code = run("sweep", "--config", cfg, "--seed", 1, "--output", tmp_path / "x.csv",
                   "--collisions", "0", "--entanglements", "0.5")
        cfg.unlink()
        self.assert_rejected(tmp_path, capsys, code)

    def test_negative_bootstrap(self, tmp_path, capsys):
        data = tmp_path / "in.csv"
        data.write_text("E,value\n0.0,1.0\n0.5,0.8\n1.0,0.2\n")
        code = run("fit", "--model", "M1", "--input", data,
                   "--output", tmp_path / "f.json", "--bootstrap", -5)
        data.unlink()
        self.assert_rejected(tmp_path, capsys, code)

    def test_overlong_csv_field(self, tmp_path, capsys):
        # the csv module refuses a field over its 131,072-character limit
        data = tmp_path / "in.csv"
        data.write_text("E,value\n0." + "1" * 200_000 + ",1.0\n0.5,0.8\n1.0,0.2\n")
        code = run("fit", "--model", "M1", "--input", data, "--output", tmp_path / "f.json")
        data.unlink()
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("flag, value, column", [("--n", 7, "'n'"), ("--quantity", "G", "'quantity'")])
    def test_missing_filter_column(self, tmp_path, capsys, flag, value, column):
        data = tmp_path / "in.csv"
        data.write_text("E,value\n0.0,1.0\n0.5,0.8\n1.0,0.2\n")
        code = run("fit", "--model", "M1", "--input", data,
                   "--output", tmp_path / "f.json", flag, value)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert column in err and flag in err
        assert not (tmp_path / "f.json").exists()

    def test_zero_max_evals(self, tmp_path, capsys):
        code = run("sweep", "--seed", 1, "--output", tmp_path / "x.csv", "--quantity", "G",
                   "--collisions", "0", "--entanglements", "0.5", "--starts", 2, "--max-evals", 0)
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("argv", [
        ("sweep", "--quantity", "G", "--collisions", "0", "--entanglements", "0.5"),
        ("sweep", "--quantity", "G_p", "--collisions", "0", "--entanglements", "0.5"),
        ("blp", "--delta-ts", "1.6", "--grid-points", 10),
    ])
    def test_impossible_start_count(self, tmp_path, capsys, argv):
        # 10**11 starts once ended in an allocation traceback
        code = run(*argv, "--seed", 1, "--output", tmp_path / "x.csv", "--starts", 100_000_000_000)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "starts must be in [1, 100000], got 100000000000" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("sweep", "--entanglements", "nan", "--collisions", "0"),
        ("trajectory", "--entanglement", "nan", "--collisions", 1, "--substeps", 2),
    ])
    def test_nan_entanglement(self, tmp_path, capsys, argv):
        code = run(*argv, "--seed", 1, "--output", tmp_path / "x.csv")
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("output, folder", [("out", "out"), ("x.csv", "x.csv.manifest.json")])
    def test_output_is_directory(self, tmp_path, capsys, output, folder):
        folder = tmp_path / folder
        folder.mkdir()
        code = run("sweep", "--seed", 1, "--output", tmp_path / output,
                   "--collisions", "0", "--entanglements", "0.5")
        assert list(folder.iterdir()) == []
        folder.rmdir()
        self.assert_rejected(tmp_path, capsys, code)

    def test_input_is_directory(self, tmp_path, capsys):
        folder = tmp_path / "in"
        folder.mkdir()
        code = run("fit", "--model", "M1", "--input", folder, "--output", tmp_path / "f.json")
        folder.rmdir()
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("quantity, collisions", [("G", "-1"), ("L", "-3")])
    def test_negative_collisions(self, tmp_path, capsys, quantity, collisions):
        code = run("sweep", "--seed", 1, "--output", tmp_path / "x.csv", "--quantity", quantity,
                   f"--collisions={collisions}", "--entanglements", "0.5", "--starts", 1, "--max-evals", 20)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert f"collisions must be >= 0, got {collisions}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, kernel", [
        (("sweep", "--couplings", "0.5,-1", "--collisions", "0", "--entanglements", "0.5"),
         "max_work_fixed_entanglement"),
        (("trajectory", "--delta-ts", "0.2,0", "--collisions", 1, "--substeps", 2), "fine_trajectory"),
        (("blp", "--delta-ts", "1.6,0", "--starts", 1, "--max-evals", 20, "--grid-points", 10),
         "blp_measure"),
        (("sweep", "--quantity", "G", "--entanglements", "0.5,1.5", "--collisions", "0"),
         "max_work_fixed_entanglement"),
        (("sweep", "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0:1e12"),
         "max_work_fixed_entanglement"),
        (("trajectory", "--delta-ts", "0.2,1e307", "--collisions", 1, "--substeps", 200), "fine_trajectory"),
        (("trajectory", "--delta-ts", "0.2", "--collisions", 10**400, "--substeps", 2), "fine_trajectory"),
        (("blp", "--delta-ts", "1.6,1e308", "--collisions", 2, "--starts", 1, "--max-evals", 20,
          "--grid-points", 10), "blp_measure"),
    ])
    def test_bad_grid_value_before_any_work(self, tmp_path, capsys, monkeypatch, argv, kernel):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{kernel} ran before every grid point was checked")

        monkeypatch.setattr(f"qbattery.cli.{kernel}", no_work)
        code = run(*argv, "--seed", 1, "--threads", 1, "--output", tmp_path / "x.csv")
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would be a second stderr line
    @pytest.mark.parametrize("argv", [
        ("trajectory", "--collisions", 1, "--substeps", 1),
        ("blp", "--starts", 1, "--max-evals", 1, "--grid-points", 2),
    ], ids=["trajectory", "blp"])
    def test_collision_phase_overflow(self, tmp_path, capsys, argv):
        for delta_t in ("1.7976931348623157e308", "1e17"):  # the phases overflow, or keep no digit
            code = run(*argv, "--seed", 1, "--delta-ts", delta_t, "--output", tmp_path / "x.csv")
            err = capsys.readouterr().err
            assert (code, err.count("\n"), list(tmp_path.iterdir())) == (2, 1, [])
            assert "delta_t" in err

    @pytest.mark.filterwarnings("error")  # as above: a warning would print on stderr
    def test_collision_count_past_the_float_range(self, tmp_path, capsys):
        config = tmp_path / "big.ini"
        config.write_text("[model]\ndelta_t = 1.0\n")
        out = tmp_path / "s.csv"
        code = run("sweep", "--seed", 1, "--config", config, "--quantity", "G_p", "--entanglements", "0.5",
                   "--collisions", "1.7e308", "--output", out)
        assert (code, capsys.readouterr().err) == (0, "")
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert abs(float(row["value"]) - 0.0898202747532375) <= 1e-12  # the steady work

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("qbattery.cli.fine_trajectory", no_memory)
        code = run("trajectory", "--seed", 1, "--output", tmp_path / "x.csv", "--collisions", 1000,
                   "--substeps", 1_000_000)
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("argv", [
        ("sweep", "--output", "", "--collisions", "0", "--entanglements", "0.5"),
        ("blp", "--output", "b.csv", "--trace-output", "", "--delta-ts", "0.4", "--starts", 1,
         "--max-evals", 20, "--grid-points", 10),
    ], ids=["output", "trace"])
    def test_empty_output_path(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self.assert_rejected(tmp_path, capsys, run(*argv, "--seed", 1))

    def test_config_is_directory(self, tmp_path, capsys):
        folder = tmp_path / "cfg"
        folder.mkdir()
        code = run("sweep", "--config", folder, "--seed", 1, "--output", tmp_path / "x.csv",
                   "--collisions", "0", "--entanglements", "0.5")
        folder.rmdir()
        self.assert_rejected(tmp_path, capsys, code)

    def test_trace_file_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "t.csv").mkdir()
        code = run(
            "blp", "--seed", 1, "--output", tmp_path / "b.csv", "--delta-ts", "0.4",
            "--starts", 1, "--max-evals", 20, "--grid-points", 10,
            "--trace-output", tmp_path / "t.csv",
        )
        (tmp_path / "t.csv").rmdir()
        self.assert_rejected(tmp_path, capsys, code)

    def run_with_config(self, tmp_path, ini, *argv):
        """Run with the INI text as --config; the file is gone afterwards."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        code = run(*argv, "--config", cfg, "--seed", 1, "--output", tmp_path / "x.csv")
        cfg.unlink()
        return code

    @pytest.mark.parametrize("flag, ini", [
        (("--collisions", "inf"), ""),
        (("--collisions", "0,-inf"), ""),
        ((), "[sweep]\ncollisions = inf\n"),
    ], ids=["flag", "flag-range", "ini"])
    def test_non_finite_collision_count(self, tmp_path, capsys, flag, ini):
        code = self.run_with_config(tmp_path, ini, "sweep", "--entanglements", "0.5", *flag)
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("ini", [
        "[optimiser]\nstarts = 2\n",  # a misspelled section
        "[modle]\ne1 = 3\n",
        "starts = 2\n",  # no section header
    ], ids=["optimiser", "modle", "no-header"])
    def test_bad_config_layout(self, tmp_path, capsys, ini):
        code = self.run_with_config(tmp_path, ini, "sweep", "--collisions", "0", "--entanglements", "0.5")
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("ini, name", [
        ("[model]\ne1 = abc\n", "[model] e1"),
        ("[optimizer]\nseed = x1\n", "[optimizer] seed"),
        ("[trajectory]\ncollisions = 2.5\n", "[trajectory] collisions"),
        ("[trajectory]\nentanglement = 50%\n", "[trajectory] entanglement"),
    ], ids=["float", "seed", "int", "percent"])
    def test_bad_config_value_is_named(self, tmp_path, capsys, ini, name):
        code = self.run_with_config(tmp_path, ini, "trajectory")
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and name in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", ["t.csv", "./t.csv"])
    def test_trace_file_is_the_output(self, tmp_path, capsys, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        code = run("blp", "--seed", 1, "--output", output, "--delta-ts", "1",
                   "--starts", 1, "--max-evals", 20, "--grid-points", 10, "--trace-output", "t.csv")
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ini, argv", [
        ("", ("trajectory", "--substeps", 0, "--collisions", 1)),
        ("", ("trajectory", "--collisions", -1, "--substeps", 2)),
        ("", ("blp", "--grid-points", 1, "--delta-ts", "0.4,0.8", "--starts", 1, "--max-evals", 20)),
        ("", ("blp", "--collisions", 0, "--delta-ts", "0.4,0.8", "--starts", 1, "--max-evals", 20)),
        ("[sweep]\nquantity = Z\n", ("sweep", "--entanglements", "0.3,0.5", "--collisions", "0")),
        ("[trajectory]\nquantity = Z\n", ("trajectory", "--collisions", 1, "--substeps", 2)),
    ], ids=["substeps", "trajectory-collisions", "grid-points", "blp-collisions", "sweep-quantity",
            "trajectory-quantity"])
    def test_library_check_rejects(self, tmp_path, capsys, ini, argv, threads):
        code = self.run_with_config(tmp_path, ini, *argv, "--threads", threads)
        self.assert_rejected(tmp_path, capsys, code)

    def test_unknown_fit_model(self, tmp_path, capsys):
        data = tmp_path / "in.csv"
        data.write_text("E,value\n0.0,1.0\n0.5,0.8\n1.0,0.2\n0.7,0.4\n")
        code = run("fit", "--model", "M7", "--input", data, "--output", tmp_path / "f.json")
        data.unlink()
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("argv, source", [
        (("fit", "--model", "M1", "--input", "s.csv", "--output", "s.csv"), "s.csv"),
        (("sweep", "--config", "c.ini", "--seed", 1, "--output", "c.ini"), "c.ini"),
        (("sweep", "--config", "c.manifest.json", "--seed", 1, "--output", "./c"), "c.manifest.json"),
        (("blp", "--config", "t.csv", "--seed", 1, "--output", "b.csv", "--trace-output", "t.csv"), "t.csv"),
    ], ids=["fit-input", "config", "manifest-config", "trace-config"])
    def test_output_names_input_or_config(self, tmp_path, capsys, monkeypatch, argv, source):
        monkeypatch.chdir(tmp_path)
        text = (
            "E,value\n0.0,1.0\n0.5,0.8\n1.0,0.2\n" if argv[0] == "fit" else
            "[sweep]\nentanglements = 0.5\ncollisions = 0\n\n[blp]\ndelta_ts = 1\ngrid_points = 10\n\n"
            "[optimizer]\nstarts = 1\nmax_evals = 20\n"
        )
        (tmp_path / source).write_text(text)
        code = run(*argv)
        assert (tmp_path / source).read_text() == text
        (tmp_path / source).unlink()
        self.assert_rejected(tmp_path, capsys, code)

    def test_empty_config_path(self, tmp_path, capsys):
        code = run("sweep", "--config", "", "--seed", 1, "--output", tmp_path / "x.csv",
                   "--collisions", "0", "--entanglements", "0.5")
        assert "config file not found" in capsys.readouterr().err
        assert code == 2 and list(tmp_path.iterdir()) == []

    SOURCE_TEXT = {
        "s.csv": "E,value\n0.0,1.0\n0.5,0.8\n1.0,0.2\n",
        "c.ini": "[sweep]\nentanglements = 0.5\ncollisions = 0\n\n[blp]\ndelta_ts = 1\ngrid_points = 10\n\n"
        "[optimizer]\nstarts = 1\nmax_evals = 20\n",
    }

    @pytest.mark.parametrize("argv, source, link, make_link", [
        (("fit", "--model", "M1", "--input", "s.csv", "--output", "link.csv"), "s.csv", "link.csv", os.symlink),
        (("blp", "--config", "c.ini", "--seed", 1, "--output", "b.csv", "--trace-output", "t.csv"),
         "c.ini", "t.csv", os.symlink),
        (("sweep", "--config", "c.ini", "--seed", 1, "--output", "x.csv"), "c.ini", "x.csv", os.link),
    ], ids=["fit-output-symlink-to-input", "trace-symlink-to-config", "sweep-output-hard-link-to-config"])
    def test_output_links_to_input_or_config(self, tmp_path, capsys, monkeypatch, argv, source, link, make_link):
        monkeypatch.chdir(tmp_path)
        text = self.SOURCE_TEXT[source]
        (tmp_path / source).write_text(text)
        make_link(source, link)
        code = run(*argv)
        assert (tmp_path / source).read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([source, link])
        (tmp_path / link).unlink()
        (tmp_path / source).unlink()
        self.assert_rejected(tmp_path, capsys, code)

    @pytest.mark.parametrize("argv, ini, seed", [
        (("sweep", "--quantity", "G_p", "--seed", -1, "--entanglements", "0.5", "--collisions", "0"), "", "-1"),
        (("blp", "--seed", -3, "--delta-ts", "0.4", "--starts", 1, "--max-evals", 20, "--grid-points", 10),
         "", "-3"),
        (("trajectory", "--collisions", 1, "--substeps", 2), "[optimizer]\nseed = -2\n", "-2"),
    ], ids=["sweep-flag", "blp-flag", "trajectory-ini"])
    def test_negative_seed(self, tmp_path, capsys, argv, ini, seed):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        code = run(*argv, "--config", cfg, "--output", tmp_path / "x.csv")
        cfg.unlink()
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "seed" in err and seed in err
        assert list(tmp_path.iterdir()) == []
