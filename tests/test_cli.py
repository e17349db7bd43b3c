import csv
import errno
import itertools
import json
import math
import os
import shlex
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qbattery.cli as cli
import qbattery.collision as collision
import qbattery.nonmarkov as nonmarkov
from qbattery.cli import DEFAULTS, build_parser, main, parse_number_list, resolve_config, write_csv
from qbattery.ergotropy import ergotropy_after_collisions, max_work_fixed_entanglement
from qbattery.model import ModelParams
from qbattery.optimize import OptimizerSettings
from qbattery.states import fixed_entanglement_state, projector, schmidt_gap

from _oracles import csv_module_write

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


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


def block_rows(blocks):
    """The rows write_csv writes for blocks, as tuples of plain cells."""
    return [
        (*prefix, *row)
        for prefix, columns in blocks
        for row in zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    ]


class TestWriteCsv:
    def assert_matches_the_csv_module(self, tmp_path, header, blocks):
        write_csv(tmp_path / "new.csv", header, blocks)
        rows = block_rows(blocks)
        csv_module_write(tmp_path / "old.csv", header, rows)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\r\n") == len(rows) + 1

    def test_matches_the_csv_module(self, tmp_path):
        """One %-format per block writes the bytes csv.writer wrote, CRLF
        line ends included."""
        header = ["name", "x", "y", "i", "j", "flag", "other"]
        rows = [
            ("G_p", 0.1, np.float64(-2.5e-17), 3, np.int64(-7), True, False),
            ("L", 1.0, np.float64(np.nan), 0, np.int64(2**40), False, True),
            ("G", 1e300, np.float64(np.inf), -12, np.int64(0), True, True),
        ]
        self.assert_matches_the_csv_module(tmp_path, header, [((), list(zip(*rows)))])

    def test_blocks_match_the_csv_module(self, tmp_path, monkeypatch):
        """Constant leading cells of every type, array and sequence columns
        with nan and inf, an empty block, and a block longer than DAMP_CHUNK,
        which goes out DAMP_CHUNK rows at a time."""
        monkeypatch.setattr(cli, "DAMP_CHUNK", 3)
        header = ["q", "dt", "n", "on", "big", "t", "i", "value", "flag", "name"]
        t = np.linspace(0.0, 1.0, 11)
        values = np.array([0.1, -2.5e-17, np.nan, np.inf, -np.inf, 1e300, 5e-324, -0.0, 2.0 / 3.0, 1.0, 0.0])
        blocks = [
            (("G_p", 0.4, 3, True, np.int64(2**40)), (t, np.arange(11), values, t > 0.5, ["a"] * 11)),
            (("L", np.float64(1.2), np.int64(-7), False, np.float64(np.nan)), (t[:2], [0, 1], [np.inf, 0.5],
                                                                               [True, False], ["b", "c"])),
            (("x%d", 1.6, 0, True, 0.0), (t[:0], [], [], [], [])),
            (("G", 1e-300, 1, False, -np.inf), (t[:1], np.arange(1), values[:1], t[:1] > 0.5, ("d",))),
        ]
        self.assert_matches_the_csv_module(tmp_path, header, blocks)


class TestSweepCommand:
    # before any collision, with gap g = schmidt_gap(E): the locally passive
    # state's yield, and the G search's and L's stationary points' maxima
    CLOSED_FORMS = {"G_p": lambda g: 3.0 * (1.0 - g), "G": lambda g: 3.0 * (1.0 + g), "L": lambda g: 6.0 * g}

    @pytest.mark.parametrize("quantity", CLOSED_FORMS)
    def test_direct_quantity_matches_closed_form(self, tmp_path, quantity):
        out = tmp_path / "n0.csv"
        code = run(
            "sweep", "--seed", 1, "--output", out, "--quantity", quantity,
            "--entanglements", "0:1:0.1,0.125:0.875:0.25", "--collisions", "0", "--threads", 2,
        )
        assert code == 0
        rows = read_csv(out)
        assert [float(r["E"]) for r in rows] == [j / 10 for j in range(11)] + [j / 8 for j in (1, 3, 5, 7)]
        for row in rows:
            want = self.CLOSED_FORMS[quantity](schmidt_gap(float(row["E"])))
            assert abs(float(row["value"]) - want) <= 1e-9
            assert row["quantity"] == quantity

    def test_capped_search_reads_unconverged(self, tmp_path):
        """A one-start G search cut off by --max-evals reads converged false;
        the default 24 starts reach the maximum and read true."""
        values = {}
        for cap in (("--starts", 1, "--max-evals", 1), ()):
            out = tmp_path / "g.csv"
            assert run("sweep", "--seed", 1, "--quantity", "G", "--entanglements", "0.5", "--collisions", 1,
                       *cap, "--output", out) == 0
            (row,) = read_csv(out)
            values[cap] = (round(float(row["value"]), 4), row["converged"])
        assert values == {("--starts", 1, "--max-evals", 1): (4.5881, "false"), (): (5.1512, "true")}

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
        assert "seed" not in manifest  # a G_p sweep runs no search
        assert sorted(manifest["config"]) == ["model", "sweep"]
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

    def test_cold_bath_from_config(self, tmp_path):
        # 2 * beta overflows to inf; the populations read 0 and 1.  The value
        # is 0.19950212188104794 in 50-digit arithmetic at the same Lambda; the
        # X-state yield rounds it to the digits below
        cfg = tmp_path / "cold.ini"
        cfg.write_text("[model]\nbeta = 1e308\n")
        out = tmp_path / "cold.csv"
        code = run("sweep", "--config", cfg, "--seed", 1, "--output", out,
                   "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "3")
        assert code == 0
        assert [r["value"] for r in read_csv(out)] == ["0.19950212188104732"]

    def test_g_rows_keep_the_grid_seed_order(self, tmp_path):
        """A sweep makes one call per E for all its (n, k) points, and point
        (i_E, i_n, i_k) of an N x K grid per E still searches with the seed
        of its grid index (i_E*N + i_n)*K + i_k: each row equals the one-point
        record bit for bit, converged included."""
        es, ns, ks = [0.2, 0.5, 0.9], [0, 3, 30], [0.5, 2.0]
        out = tmp_path / "g.csv"
        assert run("sweep", "--seed", 4, "--quantity", "G", "--entanglements", "0.2,0.5,0.9",
                   "--collisions", "0,3,30", "--couplings", "0.5,2", "--starts", 3, "--max-evals", 60,
                   "--output", out) == 0
        settings = OptimizerSettings(starts=3, seed=4, max_evals=60)
        want = []
        for (i_e, e), (i_n, n), (i_k, k) in itertools.product(*map(enumerate, (es, ns, ks))):
            seeded = settings.for_grid_index((i_e * len(ns) + i_n) * len(ks) + i_k)
            record = max_work_fixed_entanglement(e, n, replace(ModelParams(), k=k), "G", seeded)
            want.append((e, n, k, "%.17g" % record.value, str(record.report.converged).lower()))
        got = [(float(r["E"]), int(r["n"]), float(r["k"]), r["value"], r["converged"]) for r in read_csv(out)]
        assert got == want
        assert {row[-1] for row in got} == {"true", "false"}

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\ncouplingg = 2\n")
        code = run("sweep", "--config", cfg, "--seed", 1,
                   "--output", tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize("quantity", ["G_p", "L"])
    def test_memory_is_bounded(self, tmp_path, monkeypatch, quantity):
        """A sweep damps DAMP_CHUNK points at a time: one E over 20,001
        collision counts peaks at about 2.2 MB of Python allocations, mostly
        the parsed counts and the rows, where damping every point at once
        peaks at 13 MB for G_p and 42 MB for L."""
        for module in (collision, cli):
            monkeypatch.setattr(module, "DAMP_CHUNK", 256)
        out = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            code = run("sweep", "--seed", 1, "--quantity", quantity, "--entanglements", 0.6,
                       "--collisions", "0:20000", "--output", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(read_csv(out)) == 20_001
        assert peak < 3e6, peak


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
        """Trajectory's damping at Lambda on its sample grid and sweep G_p's
        at lambda(delta_t)**n agree at every collision boundary, below the
        cut-off (delta_t 0.2) and past it (1.6, set in the INI)."""
        out = tmp_path / "bound.csv"
        assert run(
            "trajectory", "--seed", 3, "--output", out, "--entanglement", 0.2,
            "--delta-ts", "0.2,1.6", "--collisions", 4, "--substeps", 1,
        ) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 5
        for dt in (0.2, 1.6):
            config = tmp_path / "dt.ini"
            config.write_text(f"[model]\ndelta_t = {dt}\n")
            swept = tmp_path / "sweep.csv"
            assert run("sweep", "--seed", 3, "--config", config, "--quantity", "G_p", "--entanglements", 0.2,
                       "--collisions", "0:4", "--output", swept) == 0
            want = [float(r["value"]) for r in read_csv(swept)]
            got = [float(r["value"]) for r in rows if float(r["delta_t"]) == dt]
            assert len(got) == len(want) == 5
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (dt, got, want)

    @pytest.mark.parametrize("substeps", [3, 7])
    def test_boundaries_are_sweep_rows(self, tmp_path, monkeypatch, substeps):
        """At every collision boundary a G_p trajectory writes the text of the
        sweep row at the same (E, n), and blp_measure's Lambda at each
        collision end is the sweep's bit for bit: all three take
        lambda(delta_t)**n from collision.after_collisions.  A running
        product of lambda misses those bits over 60 collisions, and so does
        lambda at (S x delta_t)/S, which for delta_t 0.2 and S = 3 is no
        delta_t."""
        dts, n = (0.2, 0.7, 1.6), 60
        out = tmp_path / "t.csv"
        assert run("trajectory", "--seed", 1, "--output", out, "--entanglement", 0.3, "--delta-ts",
                   ",".join(map(str, dts)), "--collisions", n, "--substeps", substeps) == 0
        rows = read_csv(out)
        for dt in dts:
            config = tmp_path / "dt.ini"
            config.write_text(f"[model]\ndelta_t = {dt}\n")
            swept = tmp_path / "sweep.csv"
            assert run("sweep", "--seed", 1, "--config", config, "--quantity", "G_p", "--entanglements", 0.3,
                       "--collisions", f"0:{n}", "--output", swept) == 0
            want = [row["value"] for row in read_csv(swept)]
            assert [row["value"] for row in rows if float(row["delta_t"]) == dt][::substeps] == want, dt
        lams = []
        distances = nonmarkov._distance_samples
        monkeypatch.setattr(nonmarkov, "_distance_samples", lambda *args: lams.append(args[2]) or distances(*args))
        for dt in dts:
            p = ModelParams(delta_t=dt)
            nonmarkov.blp_measure(p, OptimizerSettings(starts=1, seed=0, max_evals=5), substeps, collisions=n)
            assert lams.pop()[::substeps].tobytes() == collision.after_collisions(p, range(n + 1)).tobytes(), dt

    @pytest.mark.parametrize("quantity, mode, followed, maximum", [
        ("G", "global", 3.5703, 3.9456), ("L", "local", 3.4270, 3.6822),
    ])
    def test_follows_the_recorded_initial_state(self, tmp_path, quantity, mode, followed, maximum):
        """G and L follow one state through time, the n = 0 maximizer
        fixed_entanglement_state(E, 0), which the manifest records; a
        collision boundary reads that state's yield, not the family maximum
        that sweep reports (default model, E = 0.6, n = 5)."""
        out, swept = tmp_path / "t.csv", tmp_path / "s.csv"
        assert run("trajectory", "--seed", 1, "--quantity", quantity, "--entanglement", 0.6, "--delta-ts", "0.2",
                   "--collisions", 5, "--substeps", 3, "--output", out) == 0
        state = json.loads((tmp_path / "t.csv.manifest.json").read_text())["initial_state"]
        assert state == fixed_entanglement_state(0.6, np.zeros(6)).real.tolist()
        value = float(read_csv(out)[-1]["value"])
        assert abs(value - ergotropy_after_collisions(projector(state), 5, ModelParams(), mode)) <= 1e-12
        assert run("sweep", "--seed", 1, "--quantity", quantity, "--entanglements", 0.6, "--collisions", 5,
                   "--output", swept) == 0
        assert abs(value - followed) <= 5e-5 and abs(float(read_csv(swept)[0]["value"]) - maximum) <= 5e-5

    def test_write_memory_is_bounded(self, tmp_path, monkeypatch):
        """The yields are damped, and the rows formatted, DAMP_CHUNK samples at
        a time: 40,001 rows peak at about 1.6 MB of Python allocations, where
        the rows held as one list would take about 7.5 MB and the damped
        (40,001, 4, 4) stack 10 MB."""
        for module in (collision, cli):
            monkeypatch.setattr(module, "DAMP_CHUNK", 256)
        out = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            code = run("trajectory", "--seed", 1, "--collisions", 2000, "--substeps", 20, "--delta-ts", "1.0",
                       "--output", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(read_csv(out)) == 40_001
        assert peak < 4e6, peak


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
            result = blp_measure(replace(ModelParams(), delta_t=dt), settings=settings.for_grid_index(idx),
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

    @pytest.mark.parametrize("cell", ["inf", "1.5", "nan"])
    def test_non_integer_collision_count_is_usage_error(self, tmp_path, capsys, cell):
        # int(float("inf")) raised OverflowError, and 1.5 was truncated to match --n 1
        bad = tmp_path / "bad_n.csv"
        bad.write_text(f"E,n,value\n0.0,1,1.0\n0.5,{cell},0.8\n1.0,1,0.2\n0.2,1,0.4\n")
        code = run("fit", "--model", "M1", "--input", bad, "--n", 1,
                   "--output", tmp_path / "f.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed CSV value near line 3 of {bad}\n"
        assert os.listdir(tmp_path) == ["bad_n.csv"]

    def test_unknown_model_is_usage_error(self, tmp_path):
        good = tmp_path / "ok.csv"
        good.write_text("E,value\n0.0,1\n0.5,0.8\n1.0,0.2\n")
        code = run("fit", "--model", "M7", "--input", good,
                   "--output", tmp_path / "f.json")
        assert code == 2

    # every fit family: M1's closed form, the rate of E in M2 and M4, and M3's rate of E**3
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_bootstrap_flag(self, tmp_path, model):
        sweep_out = tmp_path / "boot_in.csv"
        run("sweep", "--seed", 1, "--output", sweep_out, "--quantity", "G_p",
            "--entanglements", "0:1:0.1", "--collisions", "4")
        fit_out = tmp_path / "boot.json"
        code = run("fit", "--model", model, "--input", sweep_out,
                   "--output", fit_out, "--bootstrap", 40)
        assert code == 0
        result = json.loads(fit_out.read_text())
        assert result["model"] == model
        assert all(v >= 0 for v in result["confidence95"].values())


# The argv shapes of perfbench's commands, each with the namespace it
# parses to.  The values are written out, not derived from DEFAULTS, so a
# change there that renames, retypes or drops a flag fails here.
PARSED = [
    ("sweep --seed 123 --quantity G --entanglements 0.25,0.75 --collisions 0,30 --starts 2 --max-evals 200 "
     "--output sweep.csv --threads 2",
     {"command": "sweep", "config": None, "optimizer.seed": 123, "threads": 2, "output": "sweep.csv",
      "optimizer.starts": 2, "optimizer.max_evals": 200, "sweep.quantity": "G", "sweep.entanglements": "0.25,0.75",
      "sweep.collisions": "0,30", "sweep.couplings": None, "func": "cmd_sweep"}),
    ("sweep --seed 1 --config x16.ini --quantity G_p --entanglements 0.5 --collisions 0:3 --couplings 0.5,1.5 "
     "--output xs16.csv",
     {"command": "sweep", "config": "x16.ini", "optimizer.seed": 1, "threads": 1, "output": "xs16.csv",
      "optimizer.starts": None, "optimizer.max_evals": None, "sweep.quantity": "G_p", "sweep.entanglements": "0.5",
      "sweep.collisions": "0:3", "sweep.couplings": "0.5,1.5", "func": "cmd_sweep"}),
    ("trajectory --seed 5 --quantity L --entanglement 0.37 --delta-ts 0.2,1.8 --collisions 10 --substeps 30 "
     "--output tl.csv --threads 2",
     {"command": "trajectory", "config": None, "optimizer.seed": 5, "threads": 2, "output": "tl.csv",
      "trajectory.quantity": "L", "trajectory.entanglement": 0.37, "trajectory.delta_ts": "0.2,1.8",
      "trajectory.collisions": 10, "trajectory.substeps": 30, "func": "cmd_trajectory"}),
    ("blp --seed 9 --delta-ts 0.6,1.6 --grid-points 200 --starts 1 --max-evals 300 --output b.csv "
     "--trace-output tr.csv",
     {"command": "blp", "config": None, "optimizer.seed": 9, "threads": 1, "output": "b.csv", "optimizer.starts": 1,
      "optimizer.max_evals": 300, "blp.delta_ts": "0.6,1.6", "blp.grid_points": 200, "blp.k": None,
      "blp.collisions": None, "trace_output": "tr.csv", "func": "cmd_blp"}),
    ("blp --seed 1 --k 0.7 --collisions 3 --delta-ts 0.4,1.6 --grid-points 40 --starts 1 --max-evals 60 --output r.csv",
     {"command": "blp", "config": None, "optimizer.seed": 1, "threads": 1, "output": "r.csv", "optimizer.starts": 1,
      "optimizer.max_evals": 60, "blp.delta_ts": "0.4,1.6", "blp.grid_points": 40, "blp.k": 0.7,
      "blp.collisions": 3, "trace_output": None, "func": "cmd_blp"}),
    ("fit --model M4 --input f.csv --output f.json --bootstrap 50",
     {"command": "fit", "model": "M4", "input": "f.csv", "output": "f.json", "n": None, "quantity": None,
      "bootstrap": 50, "func": "cmd_fit"}),
]


class TestParser:
    def test_one_parser_serves_every_command(self):
        parser = build_parser()
        assert build_parser() is parser
        sweep = parser.parse_args(["sweep", "--seed", "1", "--collisions", "3", "--output", "s.csv"])
        blp = parser.parse_args(["blp", "--seed", "2", "--output", "b.csv"])
        assert (sweep.command, getattr(sweep, "sweep.collisions")) == ("sweep", "3")
        assert (blp.command, getattr(blp, "optimizer.seed"), blp.output) == ("blp", 2, "b.csv")
        assert not [name for name in vars(blp) if name.startswith("sweep.")]

    @pytest.mark.parametrize("command, sections", [
        ("sweep", ("optimizer", "sweep")), ("trajectory", ("trajectory",)), ("blp", ("optimizer", "blp")),
    ])
    def test_flags_are_the_sections_keys(self, command, sections):
        """Each key of the command's sections is one flag, --key with - for _,
        of its default's type; the command has no other section flag."""
        parser = build_parser()
        base = [command, "--seed", "1", "--output", "x.csv"]
        dests = {name for name in vars(parser.parse_args(base)) if "." in name} - {"optimizer.seed"}
        assert dests == {f"{section}.{key}" for section in sections for key in DEFAULTS[section]}
        for section in sections:
            for key, default in DEFAULTS[section].items():
                args = parser.parse_args([*base, "--" + key.replace("_", "-"), str(default)])
                value = getattr(args, f"{section}.{key}")
                assert (type(value), value) == (type(default), default)

    @pytest.mark.parametrize("argv, parsed", PARSED,
                             ids=["sweep", "sweep-config", "trajectory", "blp-trace", "blp-k", "fit"])
    def test_argv_shapes_parse_as_before(self, argv, parsed):
        args = vars(build_parser().parse_args(argv.split()))
        assert {**args, "func": args["func"].__name__} == parsed

    def test_workflow_commands_parse(self):
        """Every `qbattery <command> ...` line of the CI workflow, its
        backslash continuations joined and cut at the first shell operator,
        parses: a renamed or retyped flag fails here, not only on a runner."""
        text = WORKFLOW.read_text().replace("\\\n", " ")
        commands = []
        for line in text.splitlines():
            if line.strip().startswith("qbattery ") and "--help" not in line:
                words = shlex.split(line, comments=True)
                end = next((i for i, word in enumerate(words) if word in ("||", "&&", "|", ";")), len(words))
                commands.append(build_parser().parse_args(words[1:end]).command)
        assert sorted(set(commands)) == ["blp", "fit", "sweep", "trajectory"], commands


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

    @pytest.mark.parametrize("writer", ["write_csv", "write_manifest"])
    @pytest.mark.parametrize("argv", [
        ("sweep", "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0"),
        ("trajectory", "--delta-ts", "0.2", "--collisions", 1, "--substeps", 2),
        ("blp", "--delta-ts", "1.6", "--grid-points", 20, "--starts", 1, "--max-evals", 20, "--trace-output", "t.csv"),
    ], ids=["sweep", "trajectory", "blp-trace"])
    def test_failed_write_maps_to_exit_2(self, tmp_path, capsys, monkeypatch, argv, writer):
        """The writer fails on its last call of the run (blp's write_csv on the
        trace, after the output is written); the run leaves no file."""
        real, calls = getattr(cli, writer), []
        passes = argv.count("--trace-output") if writer == "write_csv" else 0

        def disk_full(*args, **kwargs):
            calls.append(args)
            if len(calls) <= passes:
                return real(*args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, writer, disk_full)
        monkeypatch.chdir(tmp_path)
        code = run(*argv, "--seed", 1, "--output", tmp_path / "x.csv")
        assert (code, capsys.readouterr().err) == (2, "error: [Errno 28] No space left on device\n")
        assert os.listdir(tmp_path) == []

    def test_failed_run_keeps_files_that_existed(self, tmp_path, monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        out = tmp_path / "x.csv"
        out.write_text("old\n")
        monkeypatch.setattr(cli, "write_manifest", disk_full)
        assert run("sweep", "--seed", 1, "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0",
                   "--output", out) == 2
        assert os.listdir(tmp_path) == ["x.csv"]


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

    def test_repeat_fit_identical(self, tmp_path):
        """The bootstrap draws take a fixed seed, so a second run of a fit
        writes the same bytes."""
        data = tmp_path / "g.csv"
        assert run("sweep", "--seed", 1, "--quantity", "G_p", "--entanglements", "0:1:0.25", "--collisions", "0,3",
                   "--output", data) == 0
        outs = [tmp_path / "f1.json", tmp_path / "f2.json"]
        for out in outs:
            assert run("fit", "--model", "M4", "--input", data, "--n", 3, "--bootstrap", 10, "--output", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_l_sweep_ignores_search_settings(self, tmp_path):
        """L is read off its stationary points with no search, so its sweep
        ignores --seed, --starts and --max-evals."""
        argv_base = ["sweep", "--quantity", "L", "--entanglements", "0:1:0.25", "--collisions", "0,3,30"]
        out1, out2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        assert run(*argv_base, "--seed", 1, "--output", out1) == 0
        assert run(*argv_base, "--seed", 7, "--starts", 3, "--max-evals", 20, "--output", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_blp_flags_leave_other_sections_at_defaults(self):
        cfg = resolve_config(build_parser().parse_args([
            "blp", "--seed", "1", "--output", "b.csv", "--delta-ts", "0.3",
            "--collisions", "2", "--starts", "1", "--max-evals", "20", "--grid-points", "10",
        ]))
        assert cfg["model"] == DEFAULTS["model"]
        assert cfg["trajectory"] == DEFAULTS["trajectory"]
        assert cfg["sweep"] == DEFAULTS["sweep"]
        assert cfg["optimizer"] == {"starts": 1, "max_evals": 20, "seed": 1}
        assert cfg["blp"] == {**DEFAULTS["blp"], "delta_ts": "0.3", "collisions": 2, "grid_points": 10}

    def test_absent_store_true_flag_keeps_ini_value(self, tmp_path):
        ini = tmp_path / "ps.ini"
        ini.write_text("[sweep]\nquantity = L\ncouplings = 0.5\n\n[trajectory]\nsubsteps = 7\n")
        cfg = resolve_config(build_parser().parse_args([
            "sweep", "--config", str(ini), "--seed", "1", "--output", "ps.csv",
            "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0",
        ]))
        assert cfg["sweep"] == {"quantity": "G_p", "entanglements": "0.5", "collisions": "0", "couplings": "0.5"}
        assert cfg["trajectory"] == {**DEFAULTS["trajectory"], "substeps": 7}

    @pytest.mark.parametrize("argv, sections, replaced", [
        (("sweep", "--quantity", "G", "--entanglements", "0.5", "--collisions", "0", "--starts", 1, "--max-evals", 20),
         ["model", "optimizer", "sweep"], ()),
        (("sweep", "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0"), ["model", "sweep"], ()),
        (("sweep", "--quantity", "L", "--entanglements", "0.5", "--collisions", "0"), ["model", "sweep"], ()),
        (("trajectory", "--delta-ts", "0.2", "--collisions", 1, "--substeps", 2), ["model", "trajectory"],
         ("delta_t",)),
        (("blp", "--delta-ts", "1.6", "--grid-points", 20, "--starts", 1, "--max-evals", 20),
         ["blp", "model", "optimizer"], ("delta_t", "k")),
    ], ids=["sweep-G", "sweep-G_p", "sweep-L", "trajectory", "blp"])
    def test_records_the_settings_that_shaped_the_data(self, tmp_path, argv, sections, replaced):
        """[model] without the keys the command's own section replaces (its
        delta_ts, and blp's k), and the command's own sections; [optimizer]
        and the seed only when a search ran."""
        out = tmp_path / "x.csv"
        assert run(*argv, "--seed", 3, "--output", out) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert sorted(manifest["config"]) == sections
        assert manifest["config"]["model"] == {k: v for k, v in DEFAULTS["model"].items() if k not in replaced}
        assert manifest.get("seed") == (3 if "optimizer" in sections else None)

    @pytest.mark.parametrize("couplings, recorded", [("0.5", False), ("0.5,1.5", False), ("", True), (" , ", True)])
    def test_sweep_couplings_replace_the_model_coupling(self, tmp_path, couplings, recorded):
        """A sweep over --couplings writes rows with those k, so its manifest
        leaves [model] k out; an empty list sweeps [model] k, which it keeps."""
        out = tmp_path / "x.csv"
        assert run("sweep", "--seed", 3, "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0",
                   "--couplings", couplings, "--output", out) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert ("k" in manifest["config"]["model"]) is recorded
        assert manifest["config"]["sweep"]["couplings"] == couplings
        assert {float(row["k"]) for row in read_csv(out)} == ({1.0} if recorded else set(parse_number_list(couplings)))

    @pytest.mark.parametrize("argv, w, tau_star", [
        (("trajectory", "--collisions", 1, "--substeps", 2), 6.0, math.pi / 12.0),
        (("blp", "--grid-points", 4, "--starts", 1, "--max-evals", 5), 2.0, math.pi / 4.0),
        (("blp", "--grid-points", 4, "--starts", 1, "--max-evals", 5, "--k", 0.0), 0.0, None),
    ], ids=["trajectory", "blp", "blp-k0"])
    def test_records_the_cutoff(self, tmp_path, argv, w, tau_star):
        """W = hypot(e2 - h, 2k) and tau* = pi/(2W), with blp's k from [blp];
        at k = 0, where lambda = 1, tau* is null.  [model] k is 3 here."""
        config = tmp_path / "k.ini"
        config.write_text("[model]\nk = 3.0\n")
        assert run(*argv, "--config", config, "--delta-ts", "0.4", "--seed", 3, "--output", tmp_path / "x.csv") == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert (manifest["W"], manifest["tau_star"]) == (w, tau_star)


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

    @pytest.mark.parametrize("argv", [
        ("trajectory", "--collision", 1, "--substep", 2),
        ("blp", "--delta-t", 0.4, "--grid", 4, "--start", 1, "--max", 5),
    ], ids=["trajectory", "blp"])
    def test_abbreviated_flag(self, tmp_path, capsys, argv):
        """A flag is spelled in full: --substep is not taken for --substeps."""
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", 1, "--output", tmp_path / "x.csv")
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
        assert f"collision count must be >= 0, got {collisions}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, kernel", [
        (("sweep", "--couplings", "0.5,-1", "--collisions", "0", "--entanglements", "0.5"),
         "max_work_at_lambdas"),
        (("trajectory", "--delta-ts", "0.2,0", "--collisions", 1, "--substeps", 2), "fine_trajectory"),
        (("blp", "--delta-ts", "1.6,0", "--starts", 1, "--max-evals", 20, "--grid-points", 10),
         "blp_measure"),
        (("sweep", "--quantity", "G", "--entanglements", "0.5,1.5", "--collisions", "0"),
         "max_work_at_lambdas"),
        (("sweep", "--quantity", "G_p", "--entanglements", "0.5", "--collisions", "0:1e12"),
         "max_work_at_lambdas"),
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
        """Past int64, and up to the float range, G_p reads its steady work,
        and each count is written as the integer it is: 1 and 2**63 have no
        common fixed-width integer type, and numpy would make them floats."""
        config = tmp_path / "big.ini"
        config.write_text("[model]\ndelta_t = 1.0\n")
        out = tmp_path / "s.csv"
        code = run("sweep", "--seed", 1, "--config", config, "--quantity", "G_p", "--entanglements", "0.5",
                   "--collisions", "1,9223372036854775808", "--output", out)
        assert (code, [r["n"] for r in read_csv(out)]) == (0, ["1", "9223372036854775808"])
        code = run("sweep", "--seed", 1, "--config", config, "--quantity", "G_p", "--entanglements", "0.5",
                   "--collisions", "100000000000000000000,1e300,1.7e308", "--output", out)
        assert (code, capsys.readouterr().err) == (0, "")
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [10**20, int(1e300), int(1.7e308)]
        assert len({r["value"] for r in rows}) == 1  # byte-equal values
        assert abs(float(rows[0]["value"]) - 0.0898202747532375) <= 1e-12  # the steady work

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
