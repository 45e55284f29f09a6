"""End-to-end command-line behavior: artifacts, exit codes, reproducibility."""

import ast
import collections
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shiftshare
from shiftshare import cli, simulate
from shiftshare.cli import main

SHARES = """unit_id,shift_id,weight
u0,s0,0.0629
u0,s1,0.0391
u0,s2,0.1496
u0,s3,0.2912
u1,s0,0.1020
u1,s1,0.2346
u1,s2,0.1342
u1,s3,0.0800
u2,s0,0.0607
u2,s1,0.0249
u2,s2,0.4950
u2,s3,0.0458
u3,s0,0.2230
u3,s1,0.1190
u3,s2,0.2001
u3,s3,0.2245
u4,s0,0.4200
u4,s1,0.0879
u4,s2,0.1412
u4,s3,0.0054
u5,s0,0.1066
u5,s1,0.2788
u5,s2,0.3910
u5,s3,0.0736
u6,s0,0.2568
u6,s1,0.1941
u6,s2,0.0877
u6,s3,0.3958
u7,s0,0.0206
u7,s1,0.0669
u7,s2,0.0377
u7,s3,0.5241
"""

SHIFTS = """shift_id,value,cluster,exchange_group,p_1
s0,1.9713,east,g0,1.6973
s1,-0.2480,west,g0,-0.3886
s2,1.7111,east,g0,0.6964
s3,0.7926,west,g0,0.8448
"""

UNITS = """unit_id,y,x,w_e,pi_1,placebo
u0,0.6484,0.5364,1.828,-0.5211,0.5430
u1,-0.7243,0.4383,0.896,-1.9226,0.5036
u2,0.7981,0.9137,1.870,-1.1740,-0.9651
u3,0.9417,1.0261,1.252,-0.6739,-1.2555
u4,1.6665,1.1897,1.753,0.1082,0.3347
u5,2.5862,0.8101,1.180,1.5203,-0.4472
u6,2.1752,0.9910,1.574,0.2690,-0.7767
u7,0.9202,0.3875,1.967,0.0914,-0.0803
"""


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, content in (("shares", SHARES), ("shifts", SHIFTS), ("units", UNITS)):
        path = tmp_path / f"{name}.csv"
        path.write_text(content)
        paths[name] = path
    return paths


def io_args(inputs, out):
    return [
        "--shares", str(inputs["shares"]),
        "--shifts", str(inputs["shifts"]),
        "--units", str(inputs["units"]),
        "--out", str(out),
    ]


class TestEstimateCommand:
    def test_shift_framework_reports_both_se_families(self, inputs, tmp_path):
        out = tmp_path / "run"
        code = main(["--quiet", "estimate", "--framework", "shift",
                     "--cluster-shift", "cluster", *io_args(inputs, out)])
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        se = report["estimate"]["se"]
        assert "hc_exposure_robust" in se
        assert "residualized" in se
        assert "cluster_exposure_robust" in se
        assert "residualized_cluster" in se
        assert "conventional_hc" in se
        assert report["framework"] == "shift"
        assert (out / "manifest.json").exists()

    def test_a_shift_that_no_unit_holds_changes_no_report(self, inputs, tmp_path):
        """A shift without shares is dropped with one warning before the shifts are
        residualized, so the report is that of the shifts file without it."""
        argv = ["estimate", "--framework", "shift", "--residualize", "p_1",
                "--cluster-shift", "cluster", "--rotemberg", *io_args(inputs, tmp_path)[:-2]]
        narrow = _run(argv, tmp_path / "narrow")
        inputs["shifts"].write_text(SHIFTS + "s_zero,0.7926,west,g0,0.8448\n")
        wider = _run(argv, tmp_path / "wider")
        assert narrow["exit code"] == wider["exit code"] == 0
        assert wider["estimate.json"] == narrow["estimate.json"]
        dropped = [w[1] for w in wider["warnings"] if "aggregate weight" in w[1]]
        assert dropped == ["dropping 1 shift(s) with zero aggregate weight"]

    def test_rerun_byte_identical(self, inputs, tmp_path):
        args = ["--quiet", "estimate", "--framework", "shift"]
        code = main([*args, *io_args(inputs, tmp_path / "a")])
        assert code == 0
        code = main([*args, *io_args(inputs, tmp_path / "b")])
        assert code == 0
        a = (tmp_path / "a" / "estimate.json").read_bytes()
        b = (tmp_path / "b" / "estimate.json").read_bytes()
        assert a == b

    def test_share_framework_with_rotemberg(self, inputs, tmp_path):
        out = tmp_path / "share"
        code = main(["--quiet", "estimate", "--framework", "share", "--rotemberg",
                     "--report", "csv", *io_args(inputs, out)])
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        assert report["rotemberg"]["alpha_sum"] == pytest.approx(1.0, abs=1e-10)
        assert (out / "estimate.csv").exists()

    def test_malformed_csv_exits_one(self, inputs, tmp_path):
        inputs["shares"].write_text(SHARES.replace("u1,s0,0.1020", "u1,s0,-0.1020"))
        code = main(["--quiet", "estimate", *io_args(inputs, tmp_path / "x")])
        assert code == 1

    def test_unknown_flag_exits_64(self, inputs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--nonsense", *io_args(inputs, tmp_path / "x")])
        assert exc.value.code == 64

    def test_inputs_not_mutated(self, inputs, tmp_path):
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in inputs.items()}
        main(["--quiet", "estimate", "--framework", "shift",
              *io_args(inputs, tmp_path / "r")])
        after = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in inputs.items()}
        assert digests == after


class TestConstructCommand:
    def test_pipeline_artifacts(self, inputs, tmp_path):
        out = tmp_path / "c"
        code = main(["--quiet", "construct", "--complete-shares",
                     "--replace-threshold", "0.03", "--residualize", "p_real",
                     *io_args(inputs, out)])
        assert code == 0
        for name in ("exposure.csv", "completed_shares.csv", "sum_of_shares.csv",
                     "shifts_replaced.csv", "shift_residuals.csv", "manifest.json"):
            assert (out / name).exists(), name
        rows = (out / "exposure.csv").read_text().strip().splitlines()
        assert rows[0] == "unit_id,exposure"
        assert len(rows) == 9

    def test_loo_needs_unit_shifts(self, inputs, tmp_path):
        code = main(["--quiet", "construct", "--loo", *io_args(inputs, tmp_path / "c")])
        assert code == 1

    def test_loo_with_unit_shifts(self, inputs, tmp_path):
        unit_shifts = tmp_path / "ds.csv"
        lines = ["unit_id,shift_id,value"]
        for i in range(8):
            for j in range(4):
                lines.append(f"u{i},s{j},{1.0 + (i + j) % 3 * 0.1}")
        unit_shifts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c2"
        code = main(["--quiet", "construct", "--loo", "--unit-shifts", str(unit_shifts),
                     *io_args(inputs, out)])
        assert code == 0
        assert (out / "loo_instrument.csv").exists()


class TestRiCommand:
    def test_point_test_mode(self, inputs, tmp_path):
        out = tmp_path / "ri"
        code = main(["--quiet", "ri", "--beta0", "2.0", "--draws", "400",
                     "--seed", "7", "--groups", "exchange_group",
                     *io_args(inputs, out)])
        assert code == 0
        payload = json.loads((out / "ri.json").read_text())
        assert payload["beta0"] == 2.0
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["seed"] == 7

    def test_estimate_mode_reproducible(self, inputs, tmp_path):
        args = ["--quiet", "ri", "--draws", "300", "--seed", "3", "--level", "0.9"]
        assert main([*args, *io_args(inputs, tmp_path / "r1")]) == 0
        assert main([*args, *io_args(inputs, tmp_path / "r2")]) == 0
        a = json.loads((tmp_path / "r1" / "ri.json").read_text())
        b = json.loads((tmp_path / "r2" / "ri.json").read_text())
        assert a == b
        assert a["level"] == 0.9

    def test_confidence_set_pieces_in_report(self, inputs, tmp_path):
        args = ["--quiet", "ri", "--draws", "300", "--seed", "3"]
        assert main([*args, *io_args(inputs, tmp_path / "r1")]) == 0
        assert main([*args, *io_args(inputs, tmp_path / "r2")]) == 0
        raw = (tmp_path / "r1" / "ri.json").read_bytes()
        assert raw == (tmp_path / "r2" / "ri.json").read_bytes()
        ci = json.loads(raw)["ci"]
        pieces = ci["intervals"]
        assert pieces and all(len(piece) == 2 for piece in pieces)
        assert [pieces[0][0], pieces[-1][1]] == [ci["lower"], ci["upper"]]


class TestDiagnoseCommand:
    def test_full_battery(self, inputs, tmp_path):
        out = tmp_path / "d"
        code = main(["--quiet", "diagnose", "--concentration", "--cluster", "cluster",
                     "--balance", "placebo", "--residualize", "p_1",
                     "--tables", "--seed", "11", *io_args(inputs, out)])
        assert code == 0
        payload = json.loads((out / "diagnose.json").read_text())
        assert payload["concentration"]["cluster_level"] is True
        assert payload["concentration"]["n"] == 2
        assert "placebo" in payload["balance_unit"]
        assert (out / "diagnose.csv").exists()

    def test_balance_over_one_cluster_exits_two(self, inputs, tmp_path, capsys):
        lines = SHIFTS.strip().splitlines()
        inputs["shifts"].write_text("\n".join([lines[0] + ",one"]
                                              + [line + ",k" for line in lines[1:]]) + "\n")
        code = main(["--quiet", "diagnose", "--balance", "placebo", "--cluster", "one",
                     *io_args(inputs, tmp_path / "d")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: clustered standard errors need at least 2 "
                       "shift clusters"]

    @pytest.mark.parametrize("args, message", [
        (["--concentration", "--cluster", ""], "shift table has no column named ''"),
        (["--icc", ""], "shift table has no column named ''"),
        (["--balance", ""], "units table has no column named ''"),
        (["--balance", "", "--cluster", "cluster"], "units table has no column named ''"),
        (["--autocorr", ""], "--autocorr lags must be integers, got ''"),
        (["--autocorr", "1,"], "--autocorr lags must be integers, got '1,'"),
    ])
    def test_an_empty_name_is_an_unknown_name(self, args, message, inputs, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["--quiet", "diagnose", *args, *io_args(inputs, out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_unknown_balance_column_exits_one(self, inputs, tmp_path):
        code = main(["--quiet", "diagnose", "--balance", "nope",
                     *io_args(inputs, tmp_path / "d")])
        assert code == 1

    def test_non_finite_balance_column_exits_one(self, inputs, tmp_path, capsys):
        inputs["units"].write_text(UNITS.replace(",-1.2555\n", ",nan\n"))
        out = tmp_path / "d"
        code = main(["--quiet", "diagnose", "--balance", "placebo", *io_args(inputs, out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: balance column 'placebo' contains non-finite values"]
        assert not out.exists()


class TestDiagnoseAutocorrelation:
    """``diagnose --autocorr`` on three series of shifts, ids ``s<j>@<period>``."""

    @staticmethod
    def write_panel(directory, periods):
        ids = [f"s{j}@{period}" for j in range(3) for period in periods]
        paths = {name: directory / f"{name}.csv" for name in ("shares", "shifts", "units")}
        paths["units"].write_text(UNITS)
        paths["shifts"].write_text("shift_id,value,period\n" + "".join(
            f"{sid},{(k * 7 % 11 - 5) / 4},{sid.split('@')[1]}\n" for k, sid in enumerate(ids)))
        paths["shares"].write_text("unit_id,shift_id,weight\n" + "".join(
            f"u{i},{sid},{(1 + (i + k) % 5) / 100}\n" for i in range(8)
            for k, sid in enumerate(ids)))
        return paths

    def test_periods_are_read_by_their_trailing_number(self, tmp_path):
        summaries = []
        for labels in (["t0", "t1", "t2", "t3"], ["0", "1", "2", "3"]):
            directory = tmp_path / labels[0]
            directory.mkdir()
            out = directory / "d"
            code = main(["--quiet", "diagnose", "--autocorr", "1,2",
                         *io_args(self.write_panel(directory, labels), out)])
            assert code == 0
            summaries.append(json.loads((out / "diagnose.json").read_text())["shift_summary"])
        lags = summaries[0]["autocorrelations"]
        assert {lag: a["n_pairs"] for lag, a in lags.items()} == {"1": 9, "2": 6}
        assert summaries[0]["icc"] == {}
        assert summaries[0] == summaries[1]

    def test_two_shifts_of_one_series_at_one_period_exit_one(self, tmp_path, capsys):
        paths = self.write_panel(tmp_path, ["2019q1", "2019q2", "2020q1"])
        out = tmp_path / "d"
        assert main(["--quiet", "diagnose", "--autocorr", "1", *io_args(paths, out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: series 's0' has two shifts at one period: '2019q1' and '2020q1'"]
        assert not out.exists()

    def test_non_finite_period_exits_one(self, tmp_path, capsys):
        paths = self.write_panel(tmp_path, ["nan", "1", "2"])
        out = tmp_path / "d"
        assert main(["--quiet", "diagnose", "--autocorr", "1", *io_args(paths, out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: period label 'nan' is not a finite number"]
        assert not out.exists()

    def test_ids_without_a_period_suffix_exit_one(self, inputs, tmp_path, capsys):
        # each shift is then a series of its own, so no pair exists at any lag
        inputs["shifts"].write_text("shift_id,value,period\n" + "".join(
            f"s{j},{j / 4},{j + 1}\n" for j in range(4)))
        out = tmp_path / "d"
        assert main(["--quiet", "diagnose", "--autocorr", "1", *io_args(inputs, out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: no series holds two shifts; shift ids name their series as "
            "<series>@<period>"]
        assert not out.exists()


class TestSimulateCommand:
    def test_coverage_run(self, tmp_path):
        config = tmp_path / "dgp.txt"
        config.write_text(
            "n = 60\nm = 20\nbeta_true = 1.0\n"
            "share_model = dirichlet\nerror_model = iid\n"
        )
        out = tmp_path / "sim"
        code = main(["--quiet", "simulate", "--config", str(config),
                     "--reps", "120", "--seed", "5",
                     "--estimators", "conventional-hc", "--out", str(out)])
        assert code == 0
        rows = (out / "coverage.csv").read_text().strip().splitlines()
        assert rows[0].startswith("estimator,")
        assert rows[1].startswith("conventional-hc,120,")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_coverage_table_is_identical_for_any_cpu_count(self, tmp_path, monkeypatch):
        config = tmp_path / "dgp.txt"
        config.write_text("n = 40\nm = 16\nshare_model = sparse-block\nn_blocks = 4\n"
                          "shift_model = clustered\nn_shift_clusters = 4\n"
                          "error_model = share-correlated\n")
        tables = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["--quiet", "simulate", "--config", str(config), "--reps", "151",
                         "--seed", "2", "--estimators", ",".join(simulate.ESTIMATORS),
                         "--out", str(out)]) == 0
            tables.append((out / "coverage.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_out_that_names_a_file_exits_before_the_run(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text("n = 20\nm = 8\n")
        monkeypatch.setattr(simulate, "run_coverage", None)  # a call would raise TypeError
        assert main(["--quiet", "simulate", "--config", str(config), "--reps", "100000",
                     "--out", str(config)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {config}: File exists"]

    def test_bad_config_key_exits_one(self, tmp_path):
        config = tmp_path / "bad.txt"
        config.write_text("n = 10\nm = 5\nwat = 3\n")
        code = main(["--quiet", "simulate", "--config", str(config),
                     "--reps", "100", "--out", str(tmp_path / "s")])
        assert code == 1

    def test_count_below_one_exits_one(self, tmp_path, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text("n = 20\nm = 20\nn_blocks = 0\n")
        code = main(["--quiet", "simulate", "--config", str(config),
                     "--reps", "10", "--out", str(tmp_path / "s")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: n_blocks must be an integer of at least 1"]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("args, message", [
        (["--reps", "-5"], "at least 1 replication"),
        (["--reps", "0"], "at least 1 replication"),
        (["--estimators", ","], "no estimators given"),
        (["--estimators", "conventional-hc,conventional-hc"], "given more than once"),
        # names are checked before the warning of few replications, which would print
        # two more lines ahead of the error
        (["--reps", "5", "--estimators", ""], "no estimators given"),
        (["--reps", "5", "--estimators", "nope"], "unknown estimator 'nope'"),
    ])
    def test_no_work_exits_one(self, args, message, tmp_path, capsys):
        config = tmp_path / "dgp.txt"
        config.write_text("n = 20\nm = 8\n")
        out = tmp_path / "sim"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--quiet", "simulate", "--config", str(config), *args,
                         "--out", str(out)]) == 1
        assert caught == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--residualize", "p_1"], "--residualize needs --framework shift"),
    (["estimate", "--framework", "share", "--cluster-shift", "cluster"],
     "--cluster-shift needs --framework shift"),
    (["estimate", "--se", "exposure"], "--se exposure needs --framework shift"),
    (["estimate", "--se", "residualized"], "--se residualized needs --framework shift"),
    (["estimate", "--framework", "share", "--residualize", "nonsense", "--cluster-shift",
      "nope", "--se", "exposure"], "--residualize needs --framework shift"),
    (["construct", "--replace-shares"], "--replace-shares needs --replace-threshold"),
    (["construct", "--complete-shares", "--replace-shares"],
     "--replace-shares needs --replace-threshold"),
    (["diagnose", "--cluster", "cluster"], "--cluster needs --concentration or --balance"),
    (["diagnose", "--icc", "cluster", "--cluster", "cluster"],
     "--cluster needs --concentration or --balance"),
    # named files that do not exist: the flag is refused before any input is read
    (["construct", "--initial-shares", "absent.csv"], "--initial-shares needs --decompose"),
    (["construct", "--loo", "--unit-shifts", "ds.csv", "--initial-shares", "absent.csv"],
     "--initial-shares needs --decompose"),
    (["construct", "--unit-shifts", "absent.csv"], "--unit-shifts needs --loo or --decompose"),
    (["ri", "--beta0", "1", "--level", "0.9"],
     "--level needs an interval, which --beta0 does not compute"),
])
def test_a_flag_that_the_path_ignores_exits_one(argv, message, inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, *io_args(inputs, out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"] and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [["construct"], ["estimate", "--framework", "shift"],
                                     ["diagnose", "--concentration"]],
                         ids=["construct", "estimate", "diagnose"])
@pytest.mark.parametrize("terms", ["", ",", "p_1,,", ",cluster", "cluster,,p_1"])
def test_an_empty_residualize_term_exits_one(command, terms, inputs, tmp_path, capsys,
                                             monkeypatch):
    # refused before any input is read
    monkeypatch.setattr(cli, "load_shifts", None)
    out = tmp_path / "out"
    assert main([*command, "--residualize", terms, *io_args(inputs, out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --residualize has an empty term: {terms!r}"]
    assert captured.out == "" and not out.exists()


def write_reference_mirror(path, payload):
    """The report's CSV mirror written row by row with ``csv.writer``: nested keys joined by
    dots in sorted order, lists as JSON text, and ``None`` left to ``csv.writer``."""
    def flatten(value, key):
        if isinstance(value, dict):
            for k in sorted(value):
                yield from flatten(value[k], f"{key}.{k}" if key else k)
        elif isinstance(value, (list, tuple)):
            yield key, json.dumps(value)
        else:
            yield key, value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(flatten(payload, ""))


class TestCsvMirror:
    def test_bytes_equal_a_row_by_row_writer(self, tmp_path):
        payload = {
            "schema_version": 1, "flag": True, "off": False, "missing": None,
            "estimate": {"beta_hat": 0.1 + 0.2, "n": -8, "zero": -0.0,
                         "se": {"hc": float("nan"), "big": float("inf"), "tiny": 5e-324}},
            "top": [{"shift_id": "s0", "beta_j": None}, 2.5, "x"],
            "pair": (1, float("nan")),
            "note": 'a, "quoted" text', "empty": "", "lines": "one\ntwo",
        }
        cli._write_csv_mirror(tmp_path / "mirror.csv", payload)
        write_reference_mirror(tmp_path / "reference.csv", payload)
        mirror = (tmp_path / "mirror.csv").read_bytes()
        assert mirror == (tmp_path / "reference.csv").read_bytes()
        assert b"\r\nmissing,\r\n" in mirror and b"\r\nempty,\r\n" in mirror

    @pytest.mark.parametrize("command, report", [
        (["estimate", "--framework", "shift", "--cluster-shift", "cluster", "--rotemberg",
          "--report", "csv"], "estimate"),
        (["estimate", "--framework", "share", "--report", "csv"], "estimate"),
        (["diagnose", "--concentration", "--cluster", "cluster", "--balance", "placebo",
          "--icc", "cluster", "--residualize", "p_1", "--tables"], "diagnose"),
    ])
    def test_report_mirror_bytes_equal_a_row_by_row_writer(self, command, report, inputs,
                                                           tmp_path, monkeypatch):
        # the payload as the command holds it: the JSON file sorts the keys of the
        # Rotemberg rows, which the mirror writes in their own order
        payloads = []
        write_json = cli._write_json
        monkeypatch.setattr(cli, "_write_json",
                            lambda path, payload: (payloads.append(payload),
                                                   write_json(path, payload)))
        out = tmp_path / "run"
        assert main(["--quiet", *command, *io_args(inputs, out)]) == 0
        write_reference_mirror(tmp_path / "reference.csv", payloads[0])
        assert (out / f"{report}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


class TestShiftFrameworkConsistency:
    def test_residualized_se_equals_exposure_robust(self, inputs, tmp_path):
        # with aggregated spec controls in place, the reported point estimate
        # is shared across routes and the SE reductions are exact
        out = tmp_path / "cons"
        code = main(["--quiet", "estimate", "--framework", "shift",
                     "--residualize", "p_1", "--cluster-shift", "cluster",
                     *io_args(inputs, out)])
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        se = report["estimate"]["se"]
        assert se["residualized"] == pytest.approx(se["hc_exposure_robust"], rel=1e-8)
        assert se["residualized_cluster"] == pytest.approx(
            se["cluster_exposure_robust"], rel=1e-8
        )


class TestFormatsAndFilters:
    def test_json_inputs_end_to_end(self, inputs, tmp_path):
        import csv as csvmod

        # mirror the CSV fixtures as JSON row arrays
        json_paths = {}
        for name, path in inputs.items():
            with open(path, newline="") as fh:
                rows = [dict(r) for r in csvmod.DictReader(fh)]
            jpath = tmp_path / f"{name}.json"
            jpath.write_text(json.dumps(rows))
            json_paths[name] = jpath
        out = tmp_path / "fromjson"
        code = main(["--quiet", "estimate", "--framework", "shift",
                     "--shares", str(json_paths["shares"]),
                     "--shifts", str(json_paths["shifts"]),
                     "--units", str(json_paths["units"]),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        out_csv = tmp_path / "fromcsv"
        code = main(["--quiet", "estimate", "--framework", "shift",
                     *io_args(inputs, out_csv)])
        assert code == 0
        a = json.loads((out / "estimate.json").read_text())
        b = json.loads((out_csv / "estimate.json").read_text())
        assert a == b

    def test_se_filter_conventional_only(self, inputs, tmp_path):
        out = tmp_path / "conv"
        code = main(["--quiet", "estimate", "--framework", "shift",
                     "--se", "conventional", *io_args(inputs, out)])
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        assert set(report["estimate"]["se"]) == {"conventional_hc"}


def complete_share_rows(text):
    """The SHARES fixture with every unit's row rescaled to sum to one."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    totals = {}
    for u, _, w in rows:
        totals[u] = totals.get(u, 0.0) + float(w)
    return "unit_id,shift_id,weight\n" + "".join(
        f"{u},{s},{float(w) / totals[u]!r}\n" for u, s, w in rows
    )


def write_wide_inputs(inputs, n=20, m=8, seed=5):
    """Overwrite the input files with ``n`` units and ``m`` incomplete shifts in
    the fixture's columns, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(m), size=n) * rng.uniform(0.5, 0.95, size=(n, 1))
    d = rng.normal(0.5, 1.0, size=m)
    x = w @ d + 0.3 * rng.normal(size=n)
    y = 1.2 * x + rng.normal(size=n)
    p_1 = rng.normal(size=m)
    units = np.column_stack([y, x, rng.uniform(0.5, 2.0, size=n), rng.normal(size=(n, 2))])
    inputs["shares"].write_text("unit_id,shift_id,weight\n" + "".join(
        f"u{i},s{j},{share!r}\n"
        for i, row in enumerate(w.tolist()) for j, share in enumerate(row)))
    inputs["shifts"].write_text("shift_id,value,cluster,exchange_group,p_1\n" + "".join(
        f"s{j},{value!r},{('east', 'west')[j % 2]},g{j % 2},{p!r}\n"
        for j, (value, p) in enumerate(zip(d.tolist(), p_1.tolist()))))
    inputs["units"].write_text("unit_id,y,x,w_e,pi_1,placebo\n" + "".join(
        f"u{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(units.tolist())))


class TestShiftFrameworkSpecs:
    # The fixture's four shifts and the complement fit cluster and p_1 exactly, which
    # leaves both SEs zero up to round-off; that spec runs on a wider input instead.
    @pytest.mark.parametrize("spec, wide", [("cluster", False), ("cluster,p_1", True),
                                            ("exchange_group", False)],
                             ids=["cluster", "cluster,p_1", "exchange_group"])
    def test_fixed_effect_residualization(self, inputs, tmp_path, spec, wide):
        if wide:
            write_wide_inputs(inputs)
        out = tmp_path / "fe"
        code = main(["--quiet", "estimate", "--framework", "shift", "--residualize", spec,
                     "--cluster-shift", "cluster", *io_args(inputs, out)])
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        assert report["residualization"]["spec"] == spec.split(",")
        se = report["estimate"]["se"]
        assert se["hc_exposure_robust"] > 1e-3
        assert se["residualized"] == pytest.approx(se["hc_exposure_robust"], rel=1e-8)

    @pytest.mark.parametrize("spec", [None, "p_1", "cluster"])
    def test_complete_shares(self, inputs, tmp_path, spec):
        inputs["shares"].write_text(complete_share_rows(SHARES))
        out = tmp_path / "complete"
        flags = [] if spec is None else ["--residualize", spec]
        code = main(["--quiet", "estimate", "--framework", "shift", *flags,
                     *io_args(inputs, out)])
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        assert report["residualization"]["spec"] == ([] if spec is None else [spec])
        assert report["estimate"]["m_shifts"] == 4
        se = report["estimate"]["se"]
        assert se["residualized"] == pytest.approx(se["hc_exposure_robust"], rel=1e-8)

    def test_report_is_the_library_result(self, inputs, tmp_path):
        from shiftshare import estimate_shift_framework, load_inputs

        out = tmp_path / "lib"
        code = main(["--quiet", "estimate", "--framework", "shift", "--residualize", "p_1",
                     "--cluster-shift", "cluster", "--rotemberg", *io_args(inputs, out)])
        assert code == 0
        shares, shifts, dataset = load_inputs(inputs["shares"], inputs["shifts"], inputs["units"])
        result = estimate_shift_framework(shares, shifts, dataset, residualize=("p_1",),
                                          cluster_shift="cluster", with_rotemberg=True)
        report = json.loads((out / "estimate.json").read_text())
        assert report == {**json.loads(json.dumps(result.to_dict())),
                          "schema_version": 1, "framework": "shift"}


def write_positive_covariate(path, factor):
    """Replace the ``p_1`` column of a shifts CSV by ``factor * exp(p_1)``, a
    positive covariate such as import values, in units of ``factor``."""
    lines = path.read_text().strip().splitlines()
    k = lines[0].split(",").index("p_1")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[k] = repr(factor * float(np.exp(float(row[k]))))
    path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")


class TestLargeUnitCovariates:
    # a covariate in 1e10 units (say, import values in dollars) residualizes
    # like the same covariate in units of one
    def test_construct_residuals_do_not_depend_on_units(self, inputs, tmp_path):
        eta = {}
        for factor in (1.0, 1e10):
            write_wide_inputs(inputs)
            write_positive_covariate(inputs["shifts"], factor)
            out = tmp_path / f"x{factor:g}"
            assert main(["--quiet", "construct", "--residualize", "p_1",
                         *io_args(inputs, out)]) == 0
            with open(out / "shift_residuals.csv", newline="") as fh:
                eta[factor] = np.array([float(row["eta_hat"]) for row in csv.DictReader(fh)])
        assert np.max(np.abs(eta[1e10] - eta[1.0])) <= 1e-12 * np.max(np.abs(eta[1.0]))

    def test_diagnose_accepts_large_units(self, inputs, tmp_path):
        write_wide_inputs(inputs)
        write_positive_covariate(inputs["shifts"], 1e10)
        assert main(["--quiet", "diagnose", "--residualize", "p_1", "--concentration",
                     *io_args(inputs, tmp_path / "d")]) == 0
        assert "concentration" in json.loads((tmp_path / "d" / "diagnose.json").read_text())


def test_over_unit_share_row_message(inputs, tmp_path, capsys):
    rows = SHARES.replace("u0,s0,0.0629", "u0,s0,0.5").replace("u0,s1,0.0391", "u0,s1,0.25")
    inputs["shares"].write_text(rows.replace("u0,s2,0.1496", "u0,s2,0.5")
                                .replace("u0,s3,0.2912", "u0,s3,0.25"))
    assert main(["--quiet", "estimate", *io_args(inputs, tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {inputs['shares']}: row sum 1.5 for unit 'u0' exceeds 1 + 1e-09\n"
    )


def value_cells(path, skip=("unit_id", "shift_id", "replaced")):
    import csv as csvmod

    with open(path, newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    return [v for row in rows for k, v in row.items() if k not in skip]


class TestConstructTables:
    def test_every_value_round_trips(self, inputs, tmp_path):
        unit_shifts = tmp_path / "ds.csv"
        lines = ["unit_id,shift_id,value"]
        for i in range(8):
            for j in range(4):
                lines.append(f"u{i},s{j},{1.0 + (i + j) % 3 * 0.1}")
        unit_shifts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "tables"
        code = main(["--quiet", "construct", "--complete-shares", "--replace-threshold", "0.2",
                     "--residualize", "cluster", "--loo", "--decompose",
                     "--initial-shares", str(inputs["shares"]),
                     "--unit-shifts", str(unit_shifts), *io_args(inputs, out)])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["completed_shares.csv", "decomposition.csv", "exposure.csv",
                         "loo_instrument.csv", "shift_residuals.csv", "shifts_replaced.csv",
                         "sum_of_shares.csv"]
        for name in names:
            cells = value_cells(out / name)
            assert cells, name
            for cell in cells:
                assert repr(float(cell)) == cell, (name, cell)
        replaced = value_cells(out / "shifts_replaced.csv", skip=("shift_id", "value"))
        assert set(replaced) <= {"0", "1"}

    def test_unit_shifts_are_read_once(self, inputs, tmp_path, monkeypatch):
        unit_shifts = tmp_path / "ds.csv"
        unit_shifts.write_text("unit_id,shift_id,value\n" + "".join(
            f"u{i},s{j},{(i + j) % 3 * 0.5}\n" for i in range(8) for j in range(4)))
        reads = []

        def counted(path, *args):
            reads.append(path)
            return read(path, *args)
        read = shiftshare.data._read_long_matrix
        monkeypatch.setattr(shiftshare.data, "_read_long_matrix", counted)
        monkeypatch.setattr(cli, "_read_long_matrix", counted)
        out = tmp_path / "once"
        assert main(["--quiet", "construct", "--decompose", "--loo", "--complete-shares",
                     "--initial-shares", str(inputs["shares"]),
                     "--unit-shifts", str(unit_shifts), *io_args(inputs, out)]) == 0
        assert reads.count(unit_shifts) == 1
        assert {"decomposition.csv", "loo_instrument.csv"} <= {p.name for p in out.iterdir()}

    def test_manifest_digests_every_input_file(self, inputs, tmp_path):
        unit_shifts = tmp_path / "ds.csv"
        unit_shifts.write_text("unit_id,shift_id,value\nu0,s0,1.5\n")
        initial = tmp_path / "initial.csv"
        initial.write_text(SHARES.replace("u0,s0,0.0629", "u0,s0,0.05"))
        out = tmp_path / "m"
        assert main(["--quiet", "construct", "--decompose", "--loo",
                     "--initial-shares", str(initial), "--unit-shifts", str(unit_shifts),
                     *io_args(inputs, out)]) == 0
        digests = json.loads((out / "manifest.json").read_text())["input_digests"]
        files = [*inputs.values(), initial, unit_shifts]
        assert digests == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}

    def test_a_report_over_an_input_is_refused(self, inputs, tmp_path, monkeypatch, capsys):
        # construct --shares exposure.csv ... --out . would replace the shares file
        monkeypatch.chdir(tmp_path)
        inputs["shares"].rename("exposure.csv")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(["--quiet", "construct", *io_args({**inputs, "shares": "exposure.csv"},
                                                      ".")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: exposure.csv: --out . would write the report exposure.csv "
                       "over this input"]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        # an input in --out that no report of the run is named after is read as usual
        assert main(["--quiet", "estimate", *io_args({**inputs, "shares": "exposure.csv"},
                                                     ".")]) == 0

    def test_the_manifest_over_a_linked_input_is_refused(self, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        units = inputs["units"].rename(out / "manifest.json")
        link = tmp_path / "units_link.csv"
        link.symlink_to(units)
        before = units.read_bytes()
        assert main(["--quiet", "estimate", *io_args({**inputs, "units": link}, out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {link}: --out {out} would write "
                                                   "the report manifest.json"), err
        assert units.read_bytes() == before
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]

    def test_completed_shares_skip_zeros(self, inputs, tmp_path):
        inputs["shares"].write_text(SHARES.replace("u1,s0,0.1020", "u1,s0,0.0"))
        out = tmp_path / "zeros"
        assert main(["--quiet", "construct", "--complete-shares", *io_args(inputs, out)]) == 0
        rows = (out / "completed_shares.csv").read_text().splitlines()
        assert rows[:3] == ["unit_id,shift_id,weight", "u0,s0,0.0629", "u0,s1,0.0391"]
        assert not any(r.startswith("u1,s0,") for r in rows)
        assert len(rows) == 1 + 31 + 8  # 31 nonzero shares and 8 complements

    def test_unit_shifts_without_data_rows_are_all_zero(self, inputs, tmp_path):
        unit_shifts = tmp_path / "ds.csv"
        unit_shifts.write_text("unit_id,shift_id,value\n")
        out = tmp_path / "empty"
        code = main(["--quiet", "construct", "--loo", "--unit-shifts", str(unit_shifts),
                     *io_args(inputs, out)])
        assert code == 0
        assert set(value_cells(out / "loo_instrument.csv")) == {"0.0"}

    def test_non_numeric_unit_shift_exits_one(self, inputs, tmp_path, capsys):
        unit_shifts = tmp_path / "ds.csv"
        unit_shifts.write_text("unit_id,shift_id,value\nu0,s0,1.0\nu0,s1,abc\n")
        code = main(["--quiet", "construct", "--loo", "--unit-shifts", str(unit_shifts),
                     *io_args(inputs, tmp_path / "bad")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'abc'" in err[0]

    def test_non_finite_unit_shift_exits_one(self, inputs, tmp_path, capsys):
        unit_shifts = tmp_path / "ds.csv"
        unit_shifts.write_text("unit_id,shift_id,value\nu0,s0,1.0\nu0,s1,nan\n")
        out = tmp_path / "bad"
        code = main(["--quiet", "construct", "--loo", "--unit-shifts", str(unit_shifts),
                     *io_args(inputs, out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {unit_shifts}: unit shifts contain non-finite values"]
        assert not out.exists()

    def test_a_shift_named_like_the_complement_exits_one(self, inputs, tmp_path, capsys):
        inputs["shifts"].write_text(SHIFTS.replace("s3,", "__complement__,"))
        inputs["shares"].write_text(SHARES.replace(",s3,", ",__complement__,"))
        out = tmp_path / "out"
        assert main(["--quiet", "construct", "--complete-shares", *io_args(inputs, out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: shift id '__complement__' is reserved for the share that completion adds"]
        assert not out.exists()

    def test_non_finite_initial_share_names_its_file(self, inputs, tmp_path, capsys):
        initial = tmp_path / "initial.csv"
        initial.write_text(SHARES.replace("u3,s2,0.2001", "u3,s2,nan"))
        unit_shifts = tmp_path / "ds.csv"
        unit_shifts.write_text("unit_id,shift_id,value\nu0,s0,1.5\n")
        out = tmp_path / "out"
        assert main(["--quiet", "construct", "--decompose", "--initial-shares", str(initial),
                     "--unit-shifts", str(unit_shifts), *io_args(inputs, out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {initial}: non-finite share at unit 'u3', shift 's2'"]
        assert not out.exists()


def _json_inputs(inputs, directory, edit=lambda name, rows: None) -> dict[str, Path]:
    """The CSV ``inputs`` written as JSON files under ``directory``, each after
    ``edit(name, rows)``."""
    paths = {}
    directory.mkdir(exist_ok=True)
    for name in ("shares", "shifts", "units"):
        lines = inputs[name].read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        edit(name, rows)
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(rows))
    return paths


def _json_inputs_with_a_short_row(inputs, tmp_path):
    def edit(name, rows):
        if name == "units":
            del rows[2]["x"]
    paths = _json_inputs(inputs, tmp_path, edit)
    return ["--format", "json", "--shares", str(paths["shares"]),
            "--shifts", str(paths["shifts"]), "--units", str(paths["units"])]


def test_a_lone_surrogate_exits_one_before_out_is_created(inputs, tmp_path, capsys):
    # "\ud800" was read as an id, and writing the reports then failed with a traceback
    def edit(name, rows):
        for row in rows:
            if row.get("unit_id") == "u0":
                row["unit_id"] = "\ud800"
    paths = _json_inputs(inputs, tmp_path / "json", edit)
    out = tmp_path / "out"
    assert main(["--quiet", "construct", "--format", "json", *io_args(paths, out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {paths['units']}: '\\ud800' is not valid Unicode"]
    assert not out.exists()


@pytest.mark.parametrize("case", ["json_row_missing_key", "negative_draws", "zero_draws",
                                  "missing_config", "non_numeric_config",
                                  "non_integer_lag", "nan_beta0", "csv_short_row",
                                  "csv_long_row", "duplicate_share_pair",
                                  "repeated_header_column", "zero_dirichlet_concentration",
                                  "out_is_a_file", "input_is_a_directory",
                                  "csv_not_utf8", "csv_not_utf8_after_blank_lines",
                                  "json_not_json", "config_not_utf8",
                                  "json_nested_too_deeply_shares",
                                  "json_nested_too_deeply_shifts",
                                  "json_nested_too_deeply_units"])
def test_malformed_input_exits_one_with_one_line(case, inputs, tmp_path, capsys):
    out = ["--out", str(tmp_path / "out")]
    config = tmp_path / "dgp.cfg"
    config.write_text("n = abc\n")
    # zero concentration would draw all-zero shares, so every replication would fail
    zero = tmp_path / "zero.cfg"
    zero.write_text("n = 20\nm = 8\ndirichlet_concentration = 0\n")
    # a period column, so that --autocorr gets as far as parsing its lags
    lines = SHIFTS.strip().splitlines()
    inputs["shifts"].write_text("\n".join([lines[0] + ",period"] + [
        f"{line},t{k % 2}" for k, line in enumerate(lines[1:])]) + "\n")
    u2 = "u2,0.7981,0.9137,1.870,-1.1740,-0.9651"
    if case in ("csv_short_row", "csv_long_row"):
        row = u2.rsplit(",", 1)[0] if case == "csv_short_row" else u2 + ",0.5"
        inputs["units"].write_text(UNITS.replace(u2, row))
    if case == "duplicate_share_pair":
        inputs["shares"].write_text(SHARES + "u0,s0,0.01\n")
    if case == "repeated_header_column":
        lines = SHARES.strip().splitlines()
        inputs["shares"].write_text("\n".join([lines[0] + ",weight"]
                                              + [line + ",0.0" for line in lines[1:]]) + "\n")
    argv = {
        "json_row_missing_key": ["estimate", *_json_inputs_with_a_short_row(inputs, tmp_path),
                                 *out],
        "negative_draws": ["ri", "--draws", "-5", *io_args(inputs, tmp_path / "out")],
        "zero_draws": ["ri", "--draws", "0", *io_args(inputs, tmp_path / "out")],
        "missing_config": ["simulate", "--config", str(tmp_path / "absent.cfg"), *out],
        "non_numeric_config": ["simulate", "--config", str(config), *out],
        "non_integer_lag": ["diagnose", "--autocorr", "a", *io_args(inputs, tmp_path / "out")],
        "nan_beta0": ["ri", "--beta0", "nan", *io_args(inputs, tmp_path / "out")],
        "csv_short_row": ["estimate", *io_args(inputs, tmp_path / "out")],
        "csv_long_row": ["estimate", *io_args(inputs, tmp_path / "out")],
        "duplicate_share_pair": ["estimate", *io_args(inputs, tmp_path / "out")],
        "repeated_header_column": ["estimate", *io_args(inputs, tmp_path / "out")],
        "zero_dirichlet_concentration": ["simulate", "--config", str(zero), "--reps", "5",
                                         *out],
        "out_is_a_file": ["estimate", *io_args(inputs, inputs["units"])],
        "input_is_a_directory": ["estimate", *io_args({**inputs, "shares": tmp_path},
                                                      tmp_path / "out")],
        "csv_not_utf8": ["estimate", *io_args(inputs, tmp_path / "out")],
        "csv_not_utf8_after_blank_lines": ["estimate", *io_args(inputs, tmp_path / "out")],
        "json_not_json": ["estimate", "--format", "json",
                          *io_args({**inputs, "shifts": tmp_path / "broken.json"},
                                   tmp_path / "out")],
        "config_not_utf8": ["simulate", "--config", str(config), *out],
        **{f"json_nested_too_deeply_{name}": [
            "estimate", "--format", "json",
            *io_args({**_json_inputs(inputs, tmp_path / "json"), name: tmp_path / "deep.json"},
                     tmp_path / "out")] for name in ("shares", "shifts", "units")},
    }[case]
    # written once the argv above, which reads the inputs, is built
    if case == "csv_not_utf8":
        inputs["shares"].write_bytes(SHARES.encode() + b"u0,s0,\xff\xfe\n")
    if case == "csv_not_utf8_after_blank_lines":
        # past the first block that the header is decoded from
        inputs["shares"].write_bytes(SHARES.encode() + b"\n" * 20000 + b"u0,s0,\xff\xfe\n")
    if case == "json_not_json":
        (tmp_path / "broken.json").write_text("[{")
    if case == "config_not_utf8":
        config.write_bytes(b"n = 20\nm = 8\xff\n")
    if case.startswith("json_nested_too_deeply"):
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main(["--quiet", *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "Traceback" not in err[0]
    if case == "non_numeric_config":
        assert f"{config}:1:" in err[0]
    if case in ("csv_short_row", "csv_long_row"):
        assert f"{inputs['units']}: data row 3 " in err[0]
    if case == "duplicate_share_pair":
        assert f"{inputs['shares']}:" in err[0] and "('u0', 's0')" in err[0]
    if case == "repeated_header_column":
        assert f"{inputs['shares']}: column 'weight' appears more than once" in err[0]
    if case == "zero_dirichlet_concentration":
        assert "dirichlet_concentration" in err[0]
        assert not (tmp_path / "out" / "coverage.csv").exists()
    if case == "out_is_a_file":
        assert err[0] == f"error: {inputs['units']}: File exists"
    if case == "input_is_a_directory":
        assert err[0] == f"error: {tmp_path}: Is a directory"
    if case in ("csv_not_utf8", "csv_not_utf8_after_blank_lines"):
        assert err[0].startswith(f"error: {inputs['shares']}: not utf-8 text (byte 0xff")
    if case == "json_not_json":
        assert err[0].startswith(f"error: {tmp_path / 'broken.json'}: not a JSON file")
    if case == "config_not_utf8":
        assert err[0].startswith(f"error: {config}: not utf-8 text (byte 0xff")
    if case.startswith("json_nested_too_deeply"):
        assert err[0] == f"error: {tmp_path / 'deep.json'}: JSON nested too deeply to read"


def test_one_run_path():
    """``dispatch`` alone reads the three input files and writes the manifest: no command
    loads its own inputs, creates ``--out`` or writes ``manifest.json``."""
    calls = {}
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(getattr(top, "name", None))
    assert calls["load_shifts"] == calls["load_units"] == ["_read_inputs"]
    assert calls["_write_manifest"] == ["dispatch"]
    assert calls["mkdir"] == ["dispatch"]


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats takes about 0.3 s to import, which every CLI call would pay
    src = Path(shiftshare.__file__).resolve().parents[1]
    probe = "import sys, shiftshare.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.strip() == "False"


# Runs ``main`` on the arguments in a fresh interpreter and prints, as JSON, its exit code
# and the scipy modules loaded before and after it.
FRESH_MAIN = """
import json, sys
from shiftshare.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

before = scipy_modules()
print(json.dumps([main(sys.argv[1:]), before, scipy_modules()]))
"""


def run_fresh_main(args):
    src = Path(shiftshare.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", FRESH_MAIN, "--quiet", *args],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("kind", ["construct", "estimate_share", "estimate_shift", "ri",
                                  "diagnose", "simulate"])
def test_commands_load_no_scipy(kind, inputs, tmp_path):
    # scipy takes about 0.2 s to import; only `diagnose --autocorr` needs it (for stdtr)
    config = tmp_path / "dgp.cfg"
    config.write_text("n = 30\nm = 10\n")
    io = io_args(inputs, tmp_path / "out")
    argv = {
        "construct": ["construct", "--complete-shares", "--residualize", "cluster", *io],
        "estimate_share": ["estimate", "--framework", "share", "--rotemberg", *io],
        "estimate_shift": ["estimate", "--framework", "shift", "--residualize", "p_1",
                           "--cluster-shift", "cluster", "--rotemberg", *io],
        "ri": ["ri", "--draws", "200", "--groups", "exchange_group", "--seed", "3", *io],
        "diagnose": ["diagnose", "--concentration", "--cluster", "cluster", "--balance",
                     "placebo", "--icc", "cluster", "--residualize", "p_1", *io],
        "simulate": ["simulate", "--config", str(config), "--reps", "5", "--seed", "2",
                     "--out", str(tmp_path / "out")],
    }[kind]
    code, before, after = run_fresh_main(argv)
    assert (code, before, after) == (0, [], [])


def test_threads_flag_removed(inputs, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "estimate", *io_args(inputs, tmp_path / "t")])
    assert exc.value.code == 64
    assert main(["--quiet", "estimate", *io_args(inputs, tmp_path / "m")]) == 0
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert "threads" not in manifest


# ---------------------------------------------------------------------------
# the input cache: a later run on the same files loads their parsed triplets


def _cache_entries() -> list[Path]:
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "shiftshare").glob("*.triplets"))


def _run(argv, out: Path) -> dict:
    """``main(argv)`` writing into ``out``: its exit code, standard output and error, the
    warnings it raised and the bytes of each file it wrote but the manifest."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    found = {"exit code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
             "warnings": [(w.category, str(w.message), w.filename, w.lineno) for w in caught]}
    if out.is_dir():
        found.update((p.name, p.read_bytes()) for p in sorted(out.iterdir())
                     if p.name != "manifest.json")
    return found


def _every_long_format_file(inputs, directory: Path, fmt: str) -> list[str]:
    """Arguments of a ``construct`` that reads all three long-format files, in ``fmt``; u7
    holds no share, so that the all-zero-row warning is raised."""
    inputs = {**inputs}
    inputs["shares"].write_text("".join(line + "\n" for line in SHARES.splitlines()
                                        if not line.startswith("u7")))
    unit_shifts = directory / "ds.csv"
    unit_shifts.write_text("unit_id,shift_id,value\n" + "".join(
        f"u{i},s{j},{(i + j) % 3 * 0.5}\n" for i in range(8) for j in range(4)))
    inputs["unit_shifts"] = unit_shifts
    if fmt == "json":
        paths = _json_inputs(inputs, directory / "json")
        lines = unit_shifts.read_text().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        paths["unit_shifts"] = directory / "json" / "ds.json"
        paths["unit_shifts"].write_text(json.dumps(rows))
        inputs = paths
    return ["construct", "--format", fmt, "--decompose", "--loo", "--complete-shares",
            "--residualize", "cluster", "--initial-shares", str(inputs["shares"]),
            "--unit-shifts", str(inputs["unit_shifts"]),
            *io_args(inputs, directory)[:-2]]


def _entry_arrays(entry: Path) -> tuple:
    """The three arrays that follow an entry's 32-byte digest."""
    with open(entry, "rb") as fh:
        fh.seek(32)
        return tuple(np.load(fh) for _ in range(3))


def _count_parses(monkeypatch) -> list:
    reads = []
    read = shiftshare.data._read_long_matrix

    def counted(path, *args):
        reads.append(Path(path))
        return read(path, *args)
    monkeypatch.setattr(cli, "_read_long_matrix", counted)
    return reads


class TestInputCache:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_hit_runs_no_parser(self, fmt, inputs, tmp_path, monkeypatch):
        argv = _every_long_format_file(inputs, tmp_path, fmt)
        first = _run(argv, tmp_path / "first")
        assert first["exit code"] == 0
        assert [w[1] for w in first["warnings"]][:1] == [
            "1 all-zero share row(s) retained (first: u7)"]
        # one entry for the shares, read as --shares and as --initial-shares, and one for
        # the unit shifts
        assert len(_cache_entries()) == 2

        def no_parse(*args):
            raise AssertionError("a cached file was parsed")
        for fmt_parsed in ("csv", "json"):
            monkeypatch.setitem(shiftshare.data._LONG_PARSERS, fmt_parsed, no_parse)
        monkeypatch.setattr(shiftshare.data, "_scan_long_matrix", no_parse)
        assert _run(argv, tmp_path / "second") == first

    def test_the_first_run_parses_each_file_once(self, inputs, tmp_path, monkeypatch):
        reads = _count_parses(monkeypatch)
        argv = _every_long_format_file(inputs, tmp_path, "csv")
        assert _run(argv, tmp_path / "first")["exit code"] == 0
        assert sorted(p.name for p in reads) == ["ds.csv", "shares.csv"]
        reads.clear()
        assert _run(argv, tmp_path / "second")["exit code"] == 0
        assert reads == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_read_checks_its_triplets_once(self, fmt, inputs, tmp_path, monkeypatch):
        """``_triplet_order`` runs once for each long-format read, in the reader on a miss
        and on the entry on a hit; of the consumers, only the public ``decompose`` checks the
        unit shifts again, and the leave-one-out shifts take the read's."""
        passes = collections.Counter()
        check = shiftshare.data._triplet_order

        def counted(*args):
            passes[args[-1]] += 1  # what the triplets are
            return check(*args)
        monkeypatch.setattr(shiftshare.data, "_triplet_order", counted)
        monkeypatch.setattr(cli, "_triplet_order", counted)
        construct = _every_long_format_file(inputs, tmp_path, fmt)
        estimate = ["estimate", "--format", fmt, *construct[construct.index("--shares"):]]
        # --shares and --initial-shares ("weight"), --unit-shifts ("value"), and the unit
        # shifts in decompose ("unit shift")
        for argv, expected in ((construct, {"weight": 2, "value": 1, "unit shift": 1}),
                               (estimate, {"weight": 1})):
            for entry in _cache_entries():
                entry.unlink()
            for run in ("miss", "hit"):
                passes.clear()
                assert _run(argv, tmp_path / run)["exit code"] == 0
                assert passes == expected, (argv[0], run)
            assert _cache_entries()

    @pytest.mark.parametrize("change", ["one byte", "reordered units", "other format"])
    def test_a_changed_input_is_a_miss(self, change, inputs, tmp_path, monkeypatch):
        argv = ["estimate", *io_args(inputs, tmp_path)[:-2]]
        first = _run(argv, tmp_path / "first")
        reads = _count_parses(monkeypatch)
        if change == "one byte":
            inputs["shares"].write_text(SHARES.replace("u7,s3,0.5241", "u7,s3,0.5242"))
        elif change == "reordered units":
            header, *rows = UNITS.strip().splitlines()
            inputs["units"].write_text("\n".join([header, *reversed(rows)]) + "\n")
        else:
            argv = ["estimate", "--format", "json",
                    *io_args(_json_inputs(inputs, tmp_path / "json"), tmp_path)[:-2]]
        second = _run(argv, tmp_path / "second")
        assert reads == [Path(argv[argv.index("--shares") + 1])]
        assert len(_cache_entries()) == 2
        if change == "other format":
            assert second == first

    @pytest.mark.parametrize("damage", ["truncated", "empty", "trailing bytes",
                                        "one bit of a value", "huge shape", "negative share",
                                        "unsorted", "float indices", "unit shift non-finite",
                                        "unit shift out of range", "unit shift unsorted"])
    def test_a_damaged_entry_is_a_miss_and_is_rewritten(self, damage, inputs, tmp_path,
                                                        monkeypatch):
        """Damage that the digest catches, and entries that match their digest but not
        what the parsers return or the command checks: the shares' entry of an ``estimate``,
        or the unit shifts' entry of a ``construct`` that reads every long-format file."""
        unit_shift = damage.startswith("unit shift")
        argv = (_every_long_format_file(inputs, tmp_path, "csv") if unit_shift
                else ["estimate", *io_args(inputs, tmp_path)[:-2]])
        first = _run(argv, tmp_path / "first")
        entries = _cache_entries()
        # the construct's shares leave out u7; its unit shifts give all 32 pairs
        [entry] = [e for e in entries if len(entries) == 1 or len(_entry_arrays(e)[0]) == 32]
        written = entry.read_bytes()
        rows, cols, values = _entry_arrays(entry)
        if damage in ("truncated", "empty", "trailing bytes", "one bit of a value"):
            at = len(written) - values.nbytes  # the low byte of the first value's mantissa
            entry.write_bytes({
                "truncated": written[:len(written) // 2], "empty": b"",
                "trailing bytes": written + b"\0",
                "one bit of a value": written[:at] + bytes([written[at] ^ 1])
                + written[at + 1:]}[damage])
        elif damage == "huge shape":  # np.load raises MemoryError
            with open(entry, "r+b") as fh:
                fh.seek(32)
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": "<i8", "fortran_order": False, "shape": (2 ** 50,)})
        else:
            if damage == "negative share":
                values = -values
            elif damage in ("unsorted", "unit shift unsorted"):
                rows, cols, values = rows[::-1], cols[::-1], values[::-1]
            elif damage == "unit shift non-finite":
                values[1] = np.nan
            elif damage == "unit shift out of range":
                rows[-1] = 8  # one past the last unit, with the keys still increasing
            else:
                rows = rows.astype(float)
            with open(entry, "wb") as fh:
                fh.write(cli._digest_of((rows, cols, values)))
                for array in (rows, cols, values):
                    np.save(fh, array)
        reads = _count_parses(monkeypatch)
        assert _run(argv, tmp_path / "second") == first
        assert reads == [Path(argv[argv.index("--unit-shifts" if unit_shift else "--shares")
                                   + 1])]
        assert _cache_entries() == entries and entry.read_bytes() == written

    def test_an_unwritable_cache_leaves_the_run_uncached(self, inputs, tmp_path,
                                                         monkeypatch):
        argv = _every_long_format_file(inputs, tmp_path, "csv")
        first = _run(argv, tmp_path / "first")
        blocked = tmp_path / "not-a-directory"
        blocked.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
        for name in ("second", "third"):
            assert _run(argv, tmp_path / name) == first
        assert blocked.read_text() == ""

    @pytest.mark.parametrize("bad", ["u0,s0,abc", "u0,s9,0.1", "u0,s0,-0.1", "u0,s0,0.99",
                                     "unit shift nan"])
    def test_a_rejected_shares_file_writes_no_entry(self, bad, inputs, tmp_path):
        """A shares file that an ``estimate`` rejects, or a unit-shifts file that a
        ``construct`` rejects after it has cached its shares, leaves no entry of its own."""
        if bad == "unit shift nan":
            argv = _every_long_format_file(inputs, tmp_path, "csv")
            unit_shifts = Path(argv[argv.index("--unit-shifts") + 1])
            unit_shifts.write_text(unit_shifts.read_text().replace("u0,s0,0.0\n", "u0,s0,nan\n"))
        else:
            inputs["shares"].write_text(SHARES.replace("u0,s0,0.0629", bad))
            argv = ["estimate", *io_args(inputs, tmp_path)[:-2]]
        first = _run(argv, tmp_path / "first")
        assert first["exit code"] == 1
        assert first["stderr"].startswith("error: ") and first["stderr"].count("\n") == 1
        # the construct's one entry is its shares', which leave out u7
        assert [len(_entry_arrays(e)[0]) for e in _cache_entries()] == (
            [28] if bad == "unit shift nan" else [])
        assert _run(argv, tmp_path / "second") == first

    def test_the_oldest_entries_go_past_the_cap(self, inputs, tmp_path, monkeypatch):
        argv = ["estimate", *io_args(inputs, tmp_path)[:-2]]
        names = []
        for k in range(3):
            inputs["shares"].write_text(SHARES.replace("u7,s3,0.5241", f"u7,s3,0.524{k}"))
            _run(argv, tmp_path / f"run{k}")
            names += [p for p in _cache_entries() if p not in names]
            if k == 1:  # a hit makes the first entry the newest again
                monkeypatch.setattr(cli, "CACHE_BYTES", 2 * names[0].stat().st_size)
                os.utime(names[0], ns=(0, 0))
                inputs["shares"].write_text(SHARES.replace("u7,s3,0.5241", "u7,s3,0.5240"))
                _run(argv, tmp_path / "hit")
        assert _cache_entries() == sorted([names[0], names[2]])

    def test_the_cache_directory_is_private(self, inputs, tmp_path):
        _run(["estimate", *io_args(inputs, tmp_path)[:-2]], tmp_path / "out")
        directory = Path(os.environ["XDG_CACHE_HOME"]) / "shiftshare"
        assert directory.stat().st_mode & 0o777 == 0o700
        assert [p.name for p in directory.iterdir()] == [p.name for p in _cache_entries()]

    @pytest.mark.parametrize("opening", ["group-writable", "world-readable",
                                         "another user's"])
    def test_a_directory_others_may_use_is_left_alone(self, opening, inputs, tmp_path,
                                                      monkeypatch):
        """A cache directory that another user owns or may read or write is neither read
        nor written, not even an entry in it that matches its digest."""
        argv = ["estimate", *io_args(inputs, tmp_path)[:-2]]
        first = _run(argv, tmp_path / "first")
        [entry] = _cache_entries()
        rows, cols, values = _entry_arrays(entry)
        values = values * 0.5  # planted: still valid shares, so only the owner check fails
        with open(entry, "wb") as fh:
            fh.write(cli._digest_of((rows, cols, values)))
            for array in (rows, cols, values):
                np.save(fh, array)
        planted = entry.read_bytes()
        if opening == "another user's":
            monkeypatch.setattr(os, "getuid", lambda: os.stat(entry.parent).st_uid + 1)
        else:
            entry.parent.chmod(0o770 if opening == "group-writable" else 0o704)
        reads = _count_parses(monkeypatch)
        for name in ("second", "third"):
            assert _run(argv, tmp_path / name) == first
        assert reads == [inputs["shares"]] * 2
        assert _cache_entries() == [entry] and entry.read_bytes() == planted

    def test_the_library_reads_without_the_cache(self, inputs):
        shiftshare.load_inputs(inputs["shares"], inputs["shifts"], inputs["units"])
        shiftshare.data.load_shares(inputs["shares"], [f"u{i}" for i in range(8)],
                                    [f"s{j}" for j in range(4)])
        assert not (Path(os.environ["XDG_CACHE_HOME"]) / "shiftshare").exists()


# ---------------------------------------------------------------------------
# every malformed input ends in one line, and a second run through the cache ends alike

MUTATIONS = ("dropped field", "bad number", "repeated pair", "non-finite value",
             "dropped column", "non-utf-8 byte", "truncated", "byte-order mark",
             "out holds a report's name")
COMMANDS_UNDER_FUZZ = (["estimate", "--report", "text"],
                       ["construct", "--complete-shares", "--replace-threshold", "0.2"])


def _mutated(text: str, fmt: str, mutation: str, k: int, f: int, where: float) -> bytes:
    """The input table ``text`` in ``fmt`` after ``mutation`` at data row ``k``, field
    ``f`` or the byte at fraction ``where`` of the file (each taken modulo its range)."""
    header, *rows = (line.split(",") for line in text.strip().splitlines())
    k, f = k % len(rows), f % len(header)
    if mutation == "dropped field":
        del rows[k][f]
    elif mutation in ("bad number", "non-finite value"):
        rows[k][f] = "1.2.3" if mutation == "bad number" else ("nan", "inf", "-inf")[k % 3]
    elif mutation == "repeated pair":
        rows.append(rows[k])
    elif mutation == "dropped column":
        for row in (header, *rows):
            del row[f]
    if fmt == "csv":
        data = "".join(",".join(row) + "\n" for row in (header, *rows)).encode()
    else:
        data = json.dumps([dict(zip(header, row)) for row in rows], indent=1).encode()
    at = int(where * len(data))
    if mutation == "non-utf-8 byte":
        data = data[:at] + b"\xff" + data[at:]
    elif mutation == "truncated":
        data = data[:at]
    elif mutation == "byte-order mark":
        data = b"\xef\xbb\xbf" + data
    return data


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(["csv", "json"]), target=st.sampled_from(["shares", "shifts", "units"]),
       mutation=st.sampled_from(MUTATIONS), command=st.sampled_from(COMMANDS_UNDER_FUZZ),
       k=st.integers(0, 40), f=st.integers(0, 10), where=st.floats(0.0, 1.0))
def test_a_mutated_input_ends_in_one_line_and_a_rerun_alike(fmt, target, mutation, command,
                                                           k, f, where, tmp_path_factory):
    """Each run exits 0, or 1 or 2 with its one error line; the second, which reads what
    the first left in the cache, gives the same exit code, output, warnings and reports."""
    work = tmp_path_factory.mktemp("fuzz")
    out = work / "out"
    out.mkdir()
    paths = {}
    for name, text in (("shares", SHARES), ("shifts", SHIFTS), ("units", UNITS)):
        paths[name] = work / f"{name}.{fmt}"
        paths[name].write_bytes(_mutated(text, fmt, mutation if name == target else "",
                                         k, f, where))
    if mutation == "out holds a report's name":
        report = "estimate.json" if command[0] == "estimate" else "exposure.csv"
        paths[target] = paths[target].rename(out / report)
    argv = [*command, "--format", fmt, *io_args(paths, out)[:-2]]
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(work / "cache")}):
        first = _run(argv, out)
        second = _run(argv, out)
    assert second == first
    lines = first["stderr"].splitlines()
    if first["exit code"] == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    elif first["exit code"] == 2:
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines
    else:
        assert first["exit code"] == 0 and lines == []
