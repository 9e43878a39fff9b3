"""Unit tests for the command-line interface (run in-process)."""

import csv
import errno
import inspect
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wgqed.cli
from wgqed.cli import (
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    FLAGS,
    build_parser,
    csv_blocks,
    csv_line,
    json_blocks,
    main,
    parse_range,
)
from wgqed.cpw import lambda_ratio_for_freq
from wgqed.dynamics import MAX_SAMPLES, evolve_xstate, propagate
from wgqed.entangle import trajectory_concurrences
from wgqed.model import TWO_PI, WaveguideParams, derive_rates, mhz
from wgqed.states import PrepConfig, RabiConfig, werner_vector


class TestParseRange:
    def test_single_value(self):
        np.testing.assert_allclose(parse_range("1.5"), [1.5])

    def test_inclusive_grid(self):
        np.testing.assert_allclose(parse_range("0.3:0.9:0.2"), [0.3, 0.5, 0.7, 0.9])

    def test_malformed(self):
        for bad in ("1:2", "a:b:c", "2:1:0.5", "1:2:-1"):
            with pytest.raises(ValueError):
                parse_range(bad)

    @pytest.mark.parametrize("spec, n, last", [
        ("0.25:1.0:0.1", 8, 0.95),   # the step does not divide the span: stop is not reached
        ("0.30:1.00:0.05", 15, 1.0),  # (1.0 - 0.3) / 0.05 = 13.999999999999998
        ("1.2:2.0:0.1", 9, 2.0),
        ("0.3:0.9:0.2", 4, 0.9),
    ])
    def test_grid_stops_at_stop(self, spec, n, last):
        grid = parse_range(spec)
        assert len(grid) == n
        assert grid[-1] == pytest.approx(last, abs=1e-12)


class TestRates:
    def test_csv_matches_library(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--range", "1.2:2.0:0.4", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("lambda_ratio,phi_rad,Gamma_a_MHz")
        assert len(lines) == 4  # header + 3 grid points
        row = [float(v) for v in lines[1].split(",")]
        r = derive_rates(WaveguideParams(gamma=mhz(5.0), gamma_nr=mhz(0.03),
                                         lambda_ratio=1.2))
        assert row[2] == pytest.approx(r.gamma_a / TWO_PI, rel=1e-10)
        assert row[5] == pytest.approx(r.g_x / TWO_PI, rel=1e-10)

    def test_json_output(self, tmp_path):
        out = tmp_path / "rates.json"
        assert main(["rates", "--range", "2.0", "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "lambda_ratio"
        assert len(payload["rows"]) == 1

    def test_malformed_range_is_usage_error(self, capsys):
        assert main(["rates", "--range", "nope:1"]) == EXIT_USAGE
        assert "malformed range" in capsys.readouterr().err

    def test_grid_is_one_derive_rates_call(self, monkeypatch, tmp_path):
        # the whole grid in one array call, equal to one call per ratio in every JSON float
        calls = []
        monkeypatch.setattr(wgqed.cli, "derive_rates",
                            lambda p: calls.append(p) or derive_rates(p))
        out = tmp_path / "rates.json"
        assert main(["rates", "--range", "1.2:2.0:0.1", "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        want = []
        for lr in parse_range("1.2:2.0:0.1"):
            r = derive_rates(WaveguideParams(gamma=mhz(5.0), gamma_nr=mhz(0.03), lambda_ratio=lr))
            want.append([lr, r.phi, r.gamma_a / TWO_PI, r.gamma_b / TWO_PI, r.gamma_col / TWO_PI,
                         r.g_x / TWO_PI, r.d_omega1 / TWO_PI, r.d_omega2 / TWO_PI])
        assert json.loads(out.read_text())["rows"] == want

    def test_ratio_not_positive_is_named(self, capsys):
        assert main(["rates", "--range=-1:2:0.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: lambda_ratio must be > 0, got -1.0\n"


class TestEvolve:
    ARGS = ["evolve", "--state", "werner", "--f", "0.9", "--lambda-ratio", "1.5",
            "--t-max", "0.5", "--sample-dt", "0.01"]

    def test_csv_trajectory(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_us,C,a,b,c,d,re_z,im_z,re_w,im_w"
        assert len(lines) == 52  # header + 51 samples
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(0.8)  # Werner concurrence 2f - 1

    def test_json_contains_event_report(self, tmp_path):
        out = tmp_path / "traj.json"
        args = ["evolve", "--state", "werner", "--f", "0.9", "--lambda-ratio",
                "1.5", "--t-max", "0.5", "--sample-dt", "0.001"]
        assert main(args + ["--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert "esd" in payload and "rates" in payload
        assert payload["esd"]["death_times_us"]  # f = 0.9 at ratio 1.5 dies
        assert payload["rates"]["gamma_b"] == pytest.approx(10.03)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--f", "0.9"])
        assert exc.value.code == 2


class TestScan:
    GRID = ["--state", "werner", "--t-max", "2", "--sample-dt", "0.001"]

    def scan_rows(self, tmp_path, f_range, ratios):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--f-range", f_range, "--lambda-ratios", ratios, *self.GRID,
                     "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()[1:]

    def test_grid_is_f_major(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--f-range", "0.8:0.9:0.1", "--lambda-ratios",
                     "1.5,2.0", "--t-max", "0.5", "--sample-dt", "0.01",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f,lambda_ratio,died,revived,t_death,t_revival,C_final"
        cells = [line.split(",")[:2] for line in lines[1:]]
        assert cells == [["0.8", "1.5"], ["0.8", "2"], ["0.9", "1.5"], ["0.9", "2"]]

    def test_grid_round_off_past_the_family_range_is_a_row(self, tmp_path):
        # parse_range("0.09:1.0:0.07")[-1] is 1 + 2e-16, which pseudo-Werner admits as f = 1
        out = tmp_path / "scan.csv"
        assert main(["scan", "--state", "pw", "--f-range", "0.09:1.0:0.07", "--lambda-ratios",
                     "1.5", "--t-max", "0.5", "--sample-dt", "0.01", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 14 and rows[-1].startswith("1,1.5,")

    def test_bad_ratio_list(self, capsys):
        assert main(["scan", "--f-range", "0.8", "--lambda-ratios", "x"]) == EXIT_USAGE

    def test_f_below_the_family_range_is_usage_error(self, capsys):
        # the f column is built as one array; its first f out of range is named
        assert main(["scan", "--f-range", "0.2:0.5:0.1", "--lambda-ratios", "1.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: werner fidelity must be in [0.25, 1], got 0.2\n"

    def test_row_matches_evolve_report(self, tmp_path):
        # each row of a scan, its f column propagated as one stack, equals at 12
        # digits the event report of evolve on that cell alone
        fs, ratios = parse_range("0.7:0.9:0.1"), ["1.3", "1.5"]
        rows = self.scan_rows(tmp_path, "0.7:0.9:0.1", ",".join(ratios))
        want = []
        for f in fs:
            for lr in ratios:
                evolve = tmp_path / "evolve.json"
                assert main(["evolve", "--f", repr(float(f)), "--lambda-ratio", lr, *self.GRID,
                             "--format", "json", "--out", str(evolve)]) == EXIT_OK
                esd = json.loads(evolve.read_text())["esd"]
                deaths, revivals = esd["death_times_us"], esd["revival_times_us"]
                want.append(csv_line([f, float(lr), int(bool(deaths)), int(bool(revivals)),
                                      deaths[0] if deaths else None,
                                      revivals[0] if revivals else None,
                                      esd["final_concurrence"]]))
        assert rows == want
        # f = 0.9 at 1.3 dies near 0.028 us and revives near 0.050 us: every field is set
        assert rows[4].split(",")[:4] == ["0.9", "1.3", "1", "1"] and "" not in rows[4].split(",")

    def test_column_split_into_batches_matches_single_cells(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, wgqed.cli)
        whole = self.scan_rows(tmp_path, "0.7:0.9:0.1", "1.3,1.5")
        singles = {f: self.scan_rows(tmp_path, f, "1.3,1.5") for f in ("0.7", "0.8", "0.9")}
        assert len(calls) == 2 + 3 * 2
        monkeypatch.setattr(wgqed.cli, "MAX_SAMPLES", 2 * 2001 + 1)  # two cells per stack
        calls.clear()
        batched = self.scan_rows(tmp_path, "0.7:0.9:0.1", "1.3,1.5")
        assert calls == [2, 1, 2, 1]
        assert batched == whole == singles["0.7"] + singles["0.8"] + singles["0.9"]

    def test_failed_cells_are_marked_in_f_major_order(self, capsys):
        code = main(["scan", "--f-range", "0.8:0.9:0.1", "--lambda-ratios", "1.5,2.0",
                     "--gamma", "1e300", "--t-max", "1", "--sample-dt", "0.5"])
        assert code == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["0.8,1.5,,,,,", "0.8,2,,,,,", "0.9,1.5,,,,,",
                                        "0.9,2,,,,,"]
        assert err.splitlines() == [
            f"scan cell f={f} lambda_ratio={lr} failed: non-finite state at t = 0.5 us"
            for f in ("0.8", "0.9") for lr in ("1.5", "2.0")]

    @staticmethod
    def spoil_second_cell(monkeypatch):
        """A propagator fault that spoils the state of f = 0.8 wherever a stack holds it."""
        spoiled = werner_vector(parse_range("0.7:0.9:0.1")[1])

        def faulty_propagate(gen, y0, *args):
            states = propagate(gen, y0, *args)
            states[7, [np.array_equal(x, spoiled) for x in y0], 1] = 1.5
            return states

        monkeypatch.setattr(wgqed.dynamics, "propagate", faulty_propagate)

    def test_bad_cell_in_a_stack_is_marked_alone(self, monkeypatch, tmp_path, capsys):
        # a fault that spoils one state of a stack: the stack is redone cell by
        # cell, so only that cell is marked, under its own message
        good = self.scan_rows(tmp_path, "0.7:0.9:0.1", "1.3")
        self.spoil_second_cell(monkeypatch)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--f-range", "0.7:0.9:0.1", "--lambda-ratios", "1.3", *self.GRID,
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert out.read_text().splitlines()[1:] == [good[0], "0.8,1.3,,,,,", good[2]]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("scan cell f=0.7999999999999999 lambda_ratio=1.3 failed: "
                                 "sample at t = 0.007 us: populations sum to")

    def test_failed_stack_derives_its_inputs_once(self, monkeypatch):
        # the cells of a failed stack are redone under their ratio's inputs, not re-derived
        derived = []
        monkeypatch.setattr(wgqed.cli, "derive_rates",
                            lambda p: derived.append(p.lambda_ratio) or derive_rates(p))
        self.spoil_second_cell(monkeypatch)
        assert main(["scan", "--f-range", "0.7:0.9:0.1", "--lambda-ratios", "1.3,1.5",
                     *self.GRID, "--out", os.devnull]) == EXIT_NUMERICAL
        assert derived == [1.3, 1.5]

    def test_one_propagation_per_ratio(self, monkeypatch):
        calls = count_calls(monkeypatch, wgqed.cli)
        assert main(["scan", "--f-range", "0.30:1.00:0.05", "--lambda-ratios", "1.2,1.5,2.0",
                     "--out", os.devnull]) == EXIT_OK
        assert calls == [15, 15, 15]


def count_calls(monkeypatch, module) -> list[int]:
    """Wrap module.evolve_xstate; the list gets the number of states of each call."""
    calls = []

    def counted(x0, *args):
        calls.append(len(np.reshape(x0, (-1, 8))))
        return evolve_xstate(x0, *args)

    monkeypatch.setattr(module, "evolve_xstate", counted)
    return calls


class TestPrepare:
    def test_exact_mode_reports_unit_fidelity(self, tmp_path):
        out = tmp_path / "prep.json"
        assert main(["prepare", "--f", "0.8", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["fidelity_to_target"] == pytest.approx(1.0, abs=1e-9)
        assert np.array(payload["rho_out"]["re"]).shape == (4, 4)

    def test_dissipative_mode_reports_durations(self, tmp_path):
        out = tmp_path / "prep.json"
        assert main(["prepare", "--f", "0.8", "--dissipative",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["gate_durations_us"]) == 2
        assert payload["fidelity_to_target"] > 0.999

    def test_grid_round_off_past_the_family_range_runs(self, tmp_path):
        # pseudo-Werner admits STRUCT_TOL past f = 1, as evolve and scan do
        rho = {}
        for f in ("1", "1.0000000000000002"):
            out = tmp_path / f"prep_{f}.json"
            assert main(["prepare", "--f", f, "--out", str(out)]) == EXIT_OK
            payload = json.loads(out.read_text())["rho_out"]
            rho[f] = np.array(payload["re"]) + 1j * np.array(payload["im"])
        assert np.abs(rho["1"] - rho["1.0000000000000002"]).max() <= 1e-15

    @pytest.mark.parametrize("mode", [[], ["--dissipative"]])
    def test_negative_gamma_nr_is_usage_error(self, mode, tmp_path, capsys):
        out = tmp_path / "prep.json"
        assert main(["prepare", "--f", "0.7", *mode, "--gamma-nr", "-5",
                     "--out", str(out)]) == EXIT_USAGE
        assert "gamma_nr must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestMix:
    ARGS = ["mix", "--gamma-nr", "3", "--pulse", "2", "--sample-dt", "0.01"]

    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_us,rho_gg,rho_ee,abs_rho_eg"
        assert "f_achieved" in capsys.readouterr().out

    def test_stdout_is_one_csv_table(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["t_us", "rho_gg", "rho_ee", "abs_rho_eg"]
        assert len(rows) == 202 and all(len(row) == 4 for row in rows)
        np.array(rows[1:], dtype=float)  # every field is a number

    def test_json_f_achieved(self, tmp_path):
        out = tmp_path / "mix.json"
        assert main(self.ARGS + ["--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["f_achieved"] == pytest.approx(0.5, abs=0.01)


class TestCpw:
    def test_text_report(self, capsys):
        assert main(["cpw", "--width", "20", "--gap", "8", "--freq", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Z0_ohm" in out and "lambda_ratio" in out

    def test_json_report(self, tmp_path):
        out = tmp_path / "cpw.json"
        assert main(["cpw", "--width", "20", "--gap", "8", "--freq", "7",
                     "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["Z0_ohm"] == pytest.approx(48.7, abs=0.5)
        assert payload["lambda_ratio"] == pytest.approx(1.0, abs=0.01)

    def test_overflowing_geometry_sum_is_the_unit_geometry(self, capsys):
        # width + 2 gap overflows; the report depends on gap / width alone
        assert main(["cpw", "--width", "1e308", "--gap", "1e308"]) == EXIT_OK
        huge = capsys.readouterr()
        assert main(["cpw", "--width", "1", "--gap", "1"]) == EXIT_OK
        assert huge == capsys.readouterr()

    def test_csv_report_is_a_one_row_table(self, tmp_path):
        out = tmp_path / "cpw.csv"
        assert main(["cpw", "--width", "20", "--gap", "8", "--freq", "7",
                     "--format", "csv", "--out", str(out)]) == EXIT_OK
        header, row = csv.reader(io.StringIO(out.read_text()))
        assert header == ["Z0_ohm", "eps_eff", "v_ph_m_per_s", "lambda_mm", "lambda_ratio"]
        assert float(row[0]) == pytest.approx(48.7, abs=0.5)


#: one small run of each subcommand; the scan has a cell with no death (a None)
BYTE_RUNS = {
    "rates": ["rates", "--range", "1.2:2.0:0.1"],
    "evolve": ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "0.1",
               "--sample-dt", "0.01"],
    "scan": ["scan", "--f-range", "0.8:0.9:0.1", "--lambda-ratios", "1.2,3.0",
             "--t-max", "0.5", "--sample-dt", "0.005"],
    "prepare": ["prepare", "--f", "0.8", "--dissipative"],
    "mix": ["mix", "--gamma-nr", "3", "--pulse", "2", "--wait", "0.05", "--sample-dt", "0.1"],
    "cpw": ["cpw", "--width", "20", "--gap", "8", "--freq", "7"],
}
#: floats whose text json and %.12g must get exactly right
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e-05, 1e16, 0.1 + 0.2, 1e-7,
                  123456789012.5, -1.5e300, float("nan"), float("inf"), float("-inf")]


class TestEmit:
    @pytest.mark.parametrize("argv, flags", [
        (["rates", "--range", "1.5"], {"range", "gamma", "gamma_nr"}),
        (["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "0.1"],
         {"state", "f", "lambda_ratio", "delta_bare", "g", "gamma", "gamma_nr", "t_max",
          "sample_dt"}),
        (["scan", "--f-range", "0.9", "--lambda-ratios", "1.5", "--t-max", "0.1"],
         {"state", "f_range", "lambda_ratios", "gamma", "gamma_nr", "t_max", "sample_dt"}),
        (["prepare", "--f", "0.8"], {"f", "dissipative", "g", "g_bc", "gamma_nr"}),
        (["mix", "--gamma-nr", "3", "--pulse", "2"],
         {"omega", "pulse", "wait", "flip", "sample_dt", "gamma_nr"}),
        (["cpw", "--width", "20", "--gap", "8"], {"width", "gap", "eps_r", "freq", "x2"}),
    ])
    def test_json_config_lists_every_setting(self, argv, flags, tmp_path):
        out = tmp_path / "out.json"
        if argv[0] != "prepare":  # prepare writes JSON only and has no --format
            argv = argv + ["--format", "json"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["generated_by"].startswith("wgqed ")
        assert set(payload["config"]) == flags

    def test_scan_json_rows_match_csv(self, tmp_path):
        argv = ["scan", "--f-range", "0.8:0.9:0.1", "--lambda-ratios", "1.2,3.0",
                "--t-max", "0.5", "--sample-dt", "0.005"]
        csv_out, json_out = tmp_path / "scan.csv", tmp_path / "scan.json"
        assert main(argv + ["--out", str(csv_out)]) == EXIT_OK
        assert main(argv + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
        header, *rows = csv.reader(io.StringIO(csv_out.read_text()))
        payload = json.loads(json_out.read_text())
        assert payload["columns"] == header
        as_csv = [["" if v is None else f"{float(v):.12g}" for v in row]
                  for row in payload["rows"]]
        assert as_csv == rows
        assert any(v is None for row in payload["rows"] for v in row)

    @pytest.mark.parametrize("block", [1, 2, 3, 9, 10])
    def test_csv_blocks_write_the_same_table(self, block, monkeypatch, tmp_path):
        argv = ["rates", "--range", "1.2:2.0:0.1"]  # header and 9 rows
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        assert main(argv + ["--out", str(whole)]) == EXIT_OK
        monkeypatch.setattr(wgqed.cli, "CSV_BLOCK", block)
        assert main(argv + ["--out", str(blocked)]) == EXIT_OK
        assert blocked.read_bytes() == whole.read_bytes()
        assert len(whole.read_text().splitlines()) == 10

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.integers(-2**53, 2**53), st.none()),
                    min_size=1, max_size=12))
    def test_csv_line_matches_per_value_format(self, row):
        expected = ",".join("" if v is None else f"{float(v):.12g}" for v in row)
        assert csv_line(row) == expected
        assert csv_line(tuple(row)) == expected

    @pytest.mark.parametrize("argv, fmt", [
        (argv, fmt) for argv in BYTE_RUNS.values() for fmt in ("csv", "json")
        if argv[0] != "prepare" or fmt == "json"  # prepare writes JSON only
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_output_is_its_own_reformatting(self, argv, fmt, tmp_path):
        out = tmp_path / "out"
        flags = [] if argv[0] == "prepare" else ["--format", fmt]
        assert main(argv + flags + ["--out", str(out)]) == EXIT_OK
        text = out.read_text()
        if fmt == "json":
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            return
        header, *lines = text.split("\n")[:-1]
        assert header and lines and text.endswith("\n")
        for line in lines:
            assert line == csv_line([float(v) if v else None for v in line.split(",")])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, block", [
        (command, block) for command, n_t in (("evolve", 11), ("mix", 23))
        for block in (1, 2, 3, n_t - 1, n_t, n_t + 1)])
    def test_array_tables_write_the_same_bytes_in_any_block(self, command, block, fmt,
                                                            monkeypatch, tmp_path):
        argv = BYTE_RUNS[command] + ["--format", fmt]
        whole, blocked = tmp_path / "whole", tmp_path / "blocked"
        assert main(argv + ["--out", str(whole)]) == EXIT_OK
        monkeypatch.setattr(wgqed.cli, "CSV_BLOCK", block)
        assert main(argv + ["--out", str(blocked)]) == EXIT_OK
        assert blocked.read_bytes() == whole.read_bytes()
        if fmt == "csv":  # the header and n_t rows: block sizes around n_t as meant
            assert len(whole.read_text().splitlines()) == {"evolve": 11, "mix": 23}[command] + 1

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 11)),
                  elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())),
           st.integers(1, 10))
    def test_array_formatter_matches_json_and_csv_line(self, table, block):
        fields = {"generated_by": "wgqed", "config": {"t_max": 0.5, "out": None},
                  "columns": [f"x{k}" for k in range(table.shape[1])], "f_achieved": -0.0}
        with mock.patch.object(wgqed.cli, "CSV_BLOCK", block):
            as_json = "".join(json_blocks({**fields, "samples": tuple(table.T)}))
            as_csv = "".join(csv_blocks(fields["columns"], tuple(table.T)))
        assert as_json == json.dumps({**fields, "samples": table.tolist()},
                                     indent=2, sort_keys=True) + "\n"
        assert as_csv == "".join(line + "\n" for line in [",".join(fields["columns"])]
                                 + [csv_line(row) for row in table.tolist()])


def faulty_propagate(*args):
    """A propagator fault that leaves one sample (t = 0.07 us at a 0.01 us step) outside the
    state space."""
    states = propagate(*args)
    states[7, 1] = 1.5
    return states


def stdout_bytes(argv: list[str], capsys) -> bytes:
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out.encode()


#: runs whose --out is compared with their stdout; a CSV mix with --out also prints
#: f_achieved to stdout, so mix is compared as JSON
IN_PLACE_RUNS = {
    "rates": BYTE_RUNS["rates"],
    "evolve-csv": BYTE_RUNS["evolve"],
    "evolve-json": BYTE_RUNS["evolve"] + ["--format", "json"],
    "scan": BYTE_RUNS["scan"],
    "prepare": BYTE_RUNS["prepare"],
    "mix-json": BYTE_RUNS["mix"] + ["--format", "json"],
    "cpw": BYTE_RUNS["cpw"],
}


class TestOutInPlace:
    """--out is written over from its start and a regular file is cut at the new end."""

    @pytest.mark.parametrize("old", ["longer", "shorter"])
    @pytest.mark.parametrize("argv", IN_PLACE_RUNS.values(), ids=IN_PLACE_RUNS)
    def test_out_over_an_earlier_file_is_the_stdout_bytes(self, argv, old, tmp_path, capsys):
        want = stdout_bytes(argv, capsys)
        out, keep = tmp_path / "out", tmp_path / "hard-link"
        out.write_bytes(want * 2 + b"stale\n" if old == "longer" else b"stale\n")
        assert len(want) > len(b"stale\n")
        os.link(out, keep)  # holds the inode, so a new file at out could not reuse its number
        inode = out.stat().st_ino
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == want
        assert out.stat().st_ino == inode
        assert keep.read_bytes() == want  # the same file was written, not a new one

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_symlinked_out_rewrites_its_target(self, target_exists, tmp_path, capsys):
        argv = IN_PLACE_RUNS["evolve-csv"]
        want = stdout_bytes(argv, capsys)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        if target_exists:
            target.write_bytes(want * 2)
        link.symlink_to(target)
        assert main(argv + ["--out", str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want

    @pytest.mark.parametrize("argv", IN_PLACE_RUNS.values(), ids=IN_PLACE_RUNS)
    def test_device_out_is_written_without_a_cut(self, argv):
        assert main(argv + ["--out", os.devnull]) == EXIT_OK

    @pytest.mark.parametrize("argv, writer", [
        (IN_PLACE_RUNS["evolve-csv"], "csv_blocks"),
        (IN_PLACE_RUNS["evolve-json"], "json_blocks"),
    ])
    def test_failed_write_empties_the_target_and_removes_the_path(self, argv, writer,
                                                                  monkeypatch, tmp_path, capsys):
        want = stdout_bytes(argv, capsys)
        real = getattr(wgqed.cli, writer)

        def failing(*args):
            yield next(real(*args))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(wgqed.cli, writer, failing)
        out, link = tmp_path / "out", tmp_path / "link"
        out.write_bytes(b"x" * (2 * len(want)))
        link.symlink_to(out)
        assert main(argv + ["--out", str(link)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: cannot write --out {link}: "
                                           "No space left on device\n")
        # the link goes, and its target holds neither the earlier output nor a prefix
        assert not os.path.lexists(link)
        assert out.read_bytes() == b""
        # a regular file that fails is removed, as after exit 3 and 4
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not os.path.lexists(out)

    def test_out_is_opened_once_per_run(self, monkeypatch, tmp_path, capsys):
        # a success, a usage error found after the open, and an invariant violation
        out, real, opened = tmp_path / "out.csv", os.open, []

        def counting(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting)
        evolve = ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "0.5",
                  "--sample-dt", "0.01", "--out", str(out)]
        assert main(evolve) == EXIT_OK
        written = out.read_bytes()
        assert main(evolve + ["--state", "pw", "--f", "1.5"]) == EXIT_USAGE
        assert out.read_bytes() == written  # kept as it was
        monkeypatch.setattr(wgqed.dynamics, "propagate", faulty_propagate)
        assert main(evolve) == EXIT_INVARIANT
        assert opened.count(str(out)) == 3

    def test_symlinked_out_after_a_failed_run_is_gone_and_its_target_empty(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(wgqed.dynamics, "propagate", faulty_propagate)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("left over from an earlier run\n")
        link.symlink_to(target)
        assert main(TestExitCodes.EVOLVE + ["--t-max", "0.5", "--sample-dt", "0.01",
                                            "--out", str(link)]) == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err
        assert not os.path.lexists(link)
        assert target.read_bytes() == b""

    def test_usage_error_through_a_dangling_link_leaves_it_dangling(self, tmp_path, capsys):
        # the open creates the link's target; the refusal of --f comes after it
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["evolve", "--f", "5", "--lambda-ratio", "1.5",
                     "--out", str(link)]) == EXIT_USAGE
        assert "werner fidelity" in capsys.readouterr().err
        assert link.is_symlink() and not os.path.lexists(target)

    def test_failed_run_through_a_dangling_link_leaves_neither(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(TestExitCodes.EVOLVE + ["--gamma", "1e300", "--t-max", "1", "--sample-dt",
                                            "0.5", "--out", str(link)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not os.path.lexists(link) and not os.path.lexists(target)

    def test_failed_stdout_write_is_one_line_and_exit_2(self, monkeypatch, capsys):
        def failing(*args):
            yield "t_us\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(wgqed.cli, "csv_blocks", failing)
        assert main(IN_PLACE_RUNS["evolve-csv"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: cannot write the standard output: "
                                           "No space left on device\n")

    def test_failed_stdout_after_out_names_the_standard_output(self, monkeypatch, tmp_path,
                                                               capsys):
        # a CSV mix with --out prints f_achieved to stdout after the file is written
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        out = tmp_path / "mix.csv"
        monkeypatch.setattr(sys, "stdout", Full())
        assert main(BYTE_RUNS["mix"] + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: cannot write the standard output: "
                                           "No space left on device\n")
        assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named FIFOs")
def test_fifo_out_receives_the_whole_output(tmp_path, capsys):
    # a second open of the FIFO would wait for a reader that has already had its EOF
    argv = ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "2", "--sample-dt",
            "0.001"]  # 2001 rows: more than a pipe holds
    want = stdout_bytes(argv, capsys)
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    env = dict(os.environ, PYTHONPATH=str(Path(wgqed.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wgqed.cli", *argv, "--out", str(fifo)],
                          env=env, capture_output=True, timeout=60)
    reader.join(timeout=10)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert got == [want]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_is_one_line_and_exit_2(unbuffered):
    # nothing more reaches stderr when the interpreter flushes stdout at exit
    env = dict(os.environ, PYTHONPATH=str(Path(wgqed.cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    argv = ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "2", "--sample-dt",
            "0.0001"]  # 20001 rows: far more than a pipe holds
    with subprocess.Popen([sys.executable, "-m", "wgqed.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"t_us,C,a,b,c,d,re_z,im_z,re_w,im_w\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_USAGE
    assert err == b"error: cannot write the standard output: Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv, into, reason", [
    (["cpw", "--help"], "/dev/full", "No space left on device"),
    (["--version"], "/dev/full", "No space left on device"),
    (["evolve", "--help"], "a closed pipe", "Broken pipe"),
], ids=["help-into-dev-full", "version-into-dev-full", "help-into-closed-pipe"])
def test_failed_help_or_version_write_is_one_line_and_exit_2(argv, into, reason, unbuffered):
    # argparse swallows a failed write, and a buffered one would fail only at interpreter exit
    if into == "/dev/full" and not os.path.exists(into):
        pytest.skip("needs /dev/full")
    env = dict(os.environ, PYTHONPATH=str(Path(wgqed.cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    if into == "/dev/full":
        stdout = os.open(into, os.O_WRONLY)
    else:
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "wgqed.cli", *argv], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(stdout)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == f"error: cannot write the standard output: {reason}\n".encode()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_failed_stdout_leaves_no_descriptor_open(monkeypatch, tmp_path, capsys):
    # main points the failed stdout at os.devnull and closes the descriptor it opened for that
    def failing(*args):
        yield "t_us\n"
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(wgqed.cli, "csv_blocks", failing)
    before = len(os.listdir("/proc/self/fd"))
    for run in range(2):
        with open(tmp_path / f"stdout{run}", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            monkeypatch.setattr(sys, "__stdout__", stdout)
            assert main(IN_PLACE_RUNS["evolve-csv"]) == EXIT_USAGE
    assert len(os.listdir("/proc/self/fd")) == before


class TestFlagTable:
    def test_every_flag_has_help_that_reads_its_default_from_argparse(self, capsys):
        # a number or choice default is written once, in default=, and shown by %(default)s
        for flag, spec in FLAGS.items():
            shown = "choices" in spec or type(spec.get("default")) in (int, float)
            assert spec.get("help"), flag
            assert ("%(default)s" in spec["help"]) == shown, flag
            assert not re.search(r"default [\d.]+\)", spec["help"]), flag  # 8/gamma is derived
        with pytest.raises(SystemExit):
            main(["evolve", "--help"])
        assert "--gamma GAMMA         waveguide coupling, MHz (default 5.0)\n" in (
            capsys.readouterr().out)

    def test_physical_defaults_equal_the_library_defaults(self):
        # MHz on the command line, rad/us in the library: each is written in both, so pinned
        parse = build_parser().parse_args
        prep, mix = parse(["prepare", "--f", "0.5"]), parse(["mix"])
        evolve = parse(["evolve", "--f", "0.5", "--lambda-ratio", "1.5"])
        cpw = parse(["cpw", "--width", "20", "--gap", "8"])
        lib_prep, lib_mix = PrepConfig(f=0.5), RabiConfig()
        lib_line = WaveguideParams(gamma=1.0, gamma_nr=0.0, lambda_ratio=1.5)
        assert mhz(prep.gamma_nr) == lib_prep.gamma_nr and mhz(mix.gamma_nr) == lib_mix.gamma_nr
        assert mhz(prep.g) == lib_prep.g_strength and mhz(prep.g_bc) == lib_prep.g_bc_strength
        assert mhz(mix.omega) == lib_mix.omega
        assert mhz(evolve.delta_bare) == lib_line.delta_bare and mhz(evolve.g) == lib_line.g
        assert (mix.pulse, mix.wait, mix.sample_dt) == (
            lib_mix.pulse_duration, lib_mix.wait_duration, lib_mix.sample_dt)
        assert prep.dissipative == lib_prep.with_dissipation
        assert cpw.x2 == inspect.signature(lambda_ratio_for_freq).parameters["x2_mm"].default


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nf = 0.9\nlambda-ratio = 1.5\nt-max = 0.5\n"
                       "sample-dt = 0.01\n")
        from_file = tmp_path / "a.csv"
        overridden = tmp_path / "b.csv"
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5",
                     "--config", str(cfg), "--out", str(from_file)]) == EXIT_OK
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5",
                     "--t-max", "0.25", "--config", str(cfg),
                     "--out", str(overridden)]) == EXIT_OK
        n_file = len(from_file.read_text().strip().splitlines())
        n_override = len(overridden.read_text().strip().splitlines())
        assert n_file == 52 and n_override == 27

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nbogus = 1\n")
        code = main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5",
                     "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_removed_jobs_key_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "scan.ini"
        cfg.write_text("[run]\njobs = 4\n")
        code = main(["scan", "--f-range", "0.9", "--lambda-ratios", "1.5",
                     "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "unknown config key 'jobs'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["prepare", "--f", "0.8"], "gamma"),
        (["mix", "--pulse", "0.1"], "gamma"),
        (["prepare", "--f", "0.8"], "format"),
    ])
    def test_removed_keys_are_refused(self, argv, key, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\n{key} = 5\n")
        assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5",
                     "--config", str(tmp_path / "missing.ini")])
        assert code == EXIT_USAGE

    def test_flag_beats_the_file_in_the_equals_spelling(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nt-max = 0.5\nsample-dt = 0.01\n")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--config", str(cfg),
                     "--t-max=0.25", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 27

    @pytest.mark.parametrize("argv, line, message", [
        (["rates", "--range", "1.5"], "format = xml", "invalid choice: 'xml'"),
        (["evolve", "--f", "0.9", "--lambda-ratio", "1.5"], "t-max = abc",
         "argument --t-max: invalid float value: 'abc'"),
    ])
    def test_bad_value_is_usage_error(self, argv, line, message, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_required_flag_may_come_from_the_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nlambda-ratio = 1.5\n")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--f", "0.9", "--t-max", "0.1", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 1002

    @pytest.mark.parametrize("value, on", [("yes", True), ("no", False)])
    def test_store_true_key_is_the_bare_flag(self, value, on, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ndissipative = {value}\n")
        out = tmp_path / "out.json"
        assert main(["prepare", "--f", "0.8", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["config"]["dissipative"] is on
        assert ("gate_durations_us" in payload) is on

    def test_non_boolean_switch_names_key_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ndissipative = maybe\n")
        assert main(["prepare", "--f", "0.8", "--config", str(cfg)]) == EXIT_USAGE
        assert (f"config key 'dissipative' in section [run] of {cfg}: Not a boolean: maybe"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text", [
        "f = 0.9\n",  # no section header
        "[run]\nf = 0.9\n[run]\ng = 1\n",  # a repeated section
        "[run]\nf = 0.9\nf = 0.8\n",  # a repeated key
        "[run]\ngarbage\n",  # a line that is no key = value
    ])
    def test_malformed_file_is_usage_error(self, text, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5",
                     "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed config file {cfg}: ") and "line" in err
        assert err.count("\n") == 1  # one line, like every other refusal

    @pytest.mark.parametrize("text, first, second", [
        ("[run]\nt-max = 0.5\nt_max = 0.02\n", "run", "run"),
        ("[run]\nt-max = 0.5\n[grid]\nt-max = 0.02\n", "run", "grid"),
        ("[DEFAULT]\nt-max = 0.5\n[run]\nt-max = 0.02\n", "DEFAULT", "run"),
    ])
    def test_flag_set_twice_is_usage_error(self, text, first, second, tmp_path, capsys):
        cfg = tmp_path / "twice.ini"
        cfg.write_text(text)
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5",
                     "--config", str(cfg)]) == EXIT_USAGE
        assert (capsys.readouterr().err
                == f"error: config file sets --t-max in [{first}] and in [{second}]\n")

    def test_default_section_is_read_like_any_other(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nt-max = 0.5\nsample-dt = 0.01\n")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 52

    def test_percent_in_a_value_is_literal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text("[run]\nout = a%b.csv\n")
        assert main(["rates", "--range", "1.5", "--config", "run.ini"]) == EXIT_OK
        assert (tmp_path / "a%b.csv").read_text().startswith("lambda_ratio,")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(["evolve", "scan", "--f", "0.9", "--out", "-",
                                               "--configs", "--out=--config", "--conf",
                                               "--config-file", "-config", "config"]),
                              st.text(max_size=12)), max_size=8))
    def test_argv_without_config_is_returned_as_is(self, argv):
        assume(not any(a == "--config" or a.startswith("--config=") for a in argv))
        assert wgqed.cli.with_config(argv) is argv

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"]])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_config_applies_in_either_spelling_and_place(self, spelling, where, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nt-max = 0.5\nsample-dt = 0.01\n")
        config = [token.format(cfg) for token in spelling]
        flags = ["--f", "0.9", "--lambda-ratio", "1.5", "--out", str(tmp_path / "out.csv")]
        argv = ["evolve"] + (config + flags if where == "first" else flags + config)
        assert main(argv) == EXIT_OK
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 52

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"]])
    def test_config_before_the_subcommand_is_refused(self, spelling, tmp_path):
        # --config is a flag of each subcommand, not of the program
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nt-max = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            main([token.format(cfg) for token in spelling]
                 + ["evolve", "--f", "0.9", "--lambda-ratio", "1.5"])
        assert exc.value.code == EXIT_USAGE

    def test_json_config_block_matches_flags(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nstate = pw\nlambda-ratio = 1.5\nt-max = 0.5\n"
                       "[grid]\nsample_dt = 0.01\ndelta-bare = 2\ng = 0.5\n")
        flags = ["--state", "pw", "--lambda-ratio", "1.5", "--t-max", "0.5",
                 "--sample-dt", "0.01", "--delta-bare", "2", "--g", "0.5"]
        from_file, from_flags = tmp_path / "a.json", tmp_path / "b.json"
        base = ["evolve", "--f", "0.9", "--format", "json"]
        assert main(base + ["--config", str(cfg), "--out", str(from_file)]) == EXIT_OK
        assert main(base + flags + ["--out", str(from_flags)]) == EXIT_OK
        assert (json.loads(from_file.read_text())["config"]
                == json.loads(from_flags.read_text())["config"])


class TestExitCodes:
    EVOLVE = ["evolve", "--f", "0.9", "--lambda-ratio", "1.5"]

    def test_invalid_physical_parameter(self, capsys):
        assert main(["evolve", "--f", "0.9", "--lambda-ratio", "-1"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, field", [
        (["evolve", "--f", "0.9", "--lambda-ratio", "nan"], "lambda-ratio"),
        (["evolve", "--f", "0.9", "--lambda-ratio", "inf"], "lambda-ratio"),
        (["evolve", "--f", "nan", "--lambda-ratio", "1.5"], "--f"),
        (EVOLVE + ["--t-max", "inf"], "t-max"),
        (EVOLVE + ["--sample-dt", "nan"], "sample-dt"),
        (EVOLVE + ["--gamma-nr", "inf"], "gamma-nr"),
        (EVOLVE + ["--delta-bare", "nan"], "delta-bare"),
        (["mix", "--omega", "nan"], "omega"),
        (["mix", "--sample-dt", "0"], "sample_dt"),
        (["scan", "--f-range", "0.9", "--lambda-ratios", "1.5,nan"], "lambda-ratio"),
        (["scan", "--f-range", "nan", "--lambda-ratios", "1.5"], "range"),
        (["rates", "--range", "1:inf:0.5"], "range"),
        (["scan", "--state", "pw", "--f-range", "1.2", "--lambda-ratios", "1.5"],
         "pseudo-Werner fidelity"),
        (["evolve", "--f", "5", "--lambda-ratio", "1.5"], "werner fidelity"),
        (["evolve", "--f", "0.1", "--lambda-ratio", "1.5"], "werner fidelity"),
        (["scan", "--f-range", "0.9", "--lambda-ratios", "1.5,-1"], "lambda_ratio"),
        # with no f rows the ratios and the time grid are still checked
        (["scan", "--lambda-ratios", "-1"], "lambda_ratio"),
        (["scan", "--lambda-ratios", "1.5", "--t-max", "-1"], "t_max"),
        # the phase 3 phi = 6 pi/lambda_ratio overflows (at 1e-320, phi too)
        (["rates", "--range", "1e-320"], "lambda_ratio"),
        (["rates", "--range", "3.6e-308"], "lambda_ratio"),
        (["evolve", "--f", "0.9", "--lambda-ratio", "1e-320"], "lambda_ratio"),
        (["scan", "--f-range", "0.9", "--lambda-ratios", "1e-320"], "lambda_ratio"),
        # the wavelength overflows, or is zero
        (["cpw", "--width", "20", "--gap", "8", "--freq", "1e-320"], "freq"),
        (["cpw", "--width", "20", "--gap", "8", "--freq", "1e300"], "freq"),
        # x2 in m underflows to 0, or lambda / x2 overflows
        (["cpw", "--width", "20", "--gap", "8", "--freq", "7", "--x2", "1e-322"], "x2"),
        (["cpw", "--width", "20", "--gap", "8", "--freq", "7", "--x2", "1e-320"], "x2"),
        # the gate time (pi/4)/g overflows
        (["prepare", "--f", "0.8", "--dissipative", "--g", "1e-320"], "g_strength"),
        # inputs a run ignores are checked too: exact mode's gate strengths, --x2 with no --freq
        (["prepare", "--f", "0.5", "--g", "-1"], "coupling strengths"),
        (["prepare", "--f", "0.5", "--g", "0"], "coupling strengths"),
        (["cpw", "--width", "20", "--gap", "8", "--x2", "-1"], "--x2"),
    ])
    def test_bad_input_is_usage_error(self, argv, field, capsys):
        assert main(argv) == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        EVOLVE + ["--gamma", "0"],
        ["scan", "--f-range", "0.5:0.9:0.2", "--lambda-ratios", "1.5,2", "--gamma", "0"],
        EVOLVE + ["--gamma", "1e-320"],
        ["scan", "--f-range", "0.5:0.9:0.2", "--lambda-ratios", "1.5,2", "--gamma", "1e-320"],
    ])
    def test_zero_gamma_needs_t_max(self, argv, tmp_path, capsys):
        # the default --t-max is 8/gamma, which gamma = 0 does not give and 1e-320 overflows
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--gamma" in err and "--t-max" in err
        assert main(argv + ["--t-max", "1", "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        EVOLVE + ["--t-max", "5e-324"],
        ["scan", "--f-range", "0.9", "--lambda-ratios", "1.5", "--t-max", "1e-322"],
    ])
    def test_underflowing_default_sample_dt_needs_sample_dt(self, argv, tmp_path, capsys):
        # the default --sample-dt t_max/1000 underflows to 0, a value the user never gave
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--t-max" in err and "--sample-dt" in err and "got 0.0" not in err
        assert main(argv + ["--sample-dt", argv[-1], "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_infinite_mix_sample_time_is_usage_error(self, tmp_path, capsys):
        # every flag finite, but the last sample time pulse + wait overflows
        out = tmp_path / "mix.json"
        assert main(["mix", "--pulse", "1e308", "--wait", "1e308", "--sample-dt", "1e308",
                     "--omega", "0", "--gamma-nr", "0", "--format", "json",
                     "--out", str(out)]) == EXIT_USAGE
        assert "pulse_duration + wait_duration must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, reason", [
        (".", "Is a directory"),
        ("missing/x.csv", "No such file or directory"),
    ])
    def test_unwritable_out_is_usage_error(self, name, reason, tmp_path, capsys):
        path = tmp_path / name
        assert main(self.EVOLVE + ["--out", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write --out {path}: {reason}\n"

    @pytest.mark.parametrize("name, reason", [
        (".", "Is a directory"),
        ("missing/x.csv", "No such file or directory"),
    ])
    def test_unwritable_out_is_refused_before_the_run(self, name, reason, monkeypatch,
                                                       tmp_path, capsys):
        # 10^6 + 1 samples that are never propagated: the path is checked first
        def unreachable(*args):
            raise AssertionError("propagated before --out was checked")

        monkeypatch.setattr(wgqed.cli, "evolve_xstate", unreachable)
        path = tmp_path / name
        assert main(self.EVOLVE + ["--t-max", "10", "--sample-dt", "1e-5",
                                   "--out", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write --out {path}: {reason}\n"

    def test_out_check_leaves_no_file_and_keeps_an_earlier_one(self, tmp_path, capsys):
        # a usage error found after the check: a file the check made is gone, an earlier
        # file is kept as it was
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("left over from an earlier run\n")
        for out in new, old:
            assert main(["evolve", "--state", "pw", "--f", "1.5", "--lambda-ratio", "1.5",
                         "--out", str(out)]) == EXIT_USAGE
        assert not new.exists()
        assert old.read_text() == "left over from an earlier run\n"

    @pytest.mark.parametrize("argv", [
        ["prepare", "--f", "0.8", "--gamma", "5"],
        ["mix", "--gamma", "5"],
        ["prepare", "--f", "0.8", "--format", "json"],
    ])
    def test_removed_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--vers"], ["--he"]])
    def test_abbreviated_top_level_flag_is_usage_error(self, argv, capsys):
        # --version and --help spelled in full exit 0; a prefix of either is not resolved
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        EVOLVE + ["--t-max", "1", "--sample-dt", "1e-9"],
        # a range is capped alike, before its grid is allocated
        ["scan", "--f-range", "0.3:1.0:1e-12", "--lambda-ratios", "1.5"],
        ["rates", "--range", "1:2:1e-13"],
    ])
    def test_over_cap_sample_grid_is_usage_error(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == EXIT_USAGE
        assert time.perf_counter() - start < 0.5
        assert f"limit is {MAX_SAMPLES}" in capsys.readouterr().err

    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys):
        # finite input, but expm(L dt) overflows for rates near 1e300
        out = tmp_path / "stale.csv"
        for argv in (self.EVOLVE + ["--gamma", "1e300", "--t-max", "1", "--sample-dt", "0.5"],
                     ["mix", "--omega", "1e300", "--pulse", "20", "--sample-dt", "0.5"]):
            out.write_text("left over from an earlier run\n")
            assert main(argv + ["--out", str(out)]) == EXIT_NUMERICAL
            assert "numerical failure" in capsys.readouterr().err
            assert not out.exists()

    def test_out_of_range_fidelity(self, capsys):
        assert main(["evolve", "--state", "pw", "--f", "1.5",
                     "--lambda-ratio", "1.5"]) == EXIT_USAGE

    def test_bad_sample_is_invariant_violation(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(wgqed.dynamics, "propagate", faulty_propagate)
        out = tmp_path / "t.csv"
        out.write_text("left over from an earlier run\n")
        code = main(self.EVOLVE + ["--t-max", "0.5", "--sample-dt", "0.01",
                                   "--out", str(out)])
        assert code == EXIT_INVARIANT
        assert "sample at t = 0.07 us: populations sum to" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mix_state_is_invariant_violation(self, tmp_path, capsys):
        # a drive far above any qubit frequency drifts the final trace by 1.2e-6
        assert wgqed.cli.InvariantViolation is wgqed.dynamics.InvariantViolation
        out = tmp_path / "mix.csv"
        out.write_text("left over from an earlier run\n")
        assert main(["mix", "--omega", "1e8", "--pulse", "35", "--sample-dt", "0.01",
                     "--out", str(out)]) == EXIT_INVARIANT
        assert capsys.readouterr().err.startswith("invariant violation: final state: trace ")
        assert not out.exists()


def test_evolve_samples_follow_the_header(tmp_path):
    """Each written row is [t, C, a, b, c, d, re_z, im_z, re_w, im_w] of the library's
    trajectory: exact in JSON, csv_line of the same floats in CSV."""
    argv = ["evolve", "--f", "0.9", "--lambda-ratio", "1.5", "--t-max", "0.1",
            "--sample-dt", "0.01"]
    p = WaveguideParams(gamma=mhz(5.0), gamma_nr=mhz(0.03), lambda_ratio=1.5)
    times, states = evolve_xstate(werner_vector(0.9), derive_rates(p), p, 0.1, 0.01)
    rows = np.column_stack([times, trajectory_concurrences(states), states]).tolist()
    csv_out, json_out = tmp_path / "traj.csv", tmp_path / "traj.json"
    assert main(argv + ["--out", str(csv_out)]) == EXIT_OK
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
    payload = json.loads(json_out.read_text())
    assert payload["columns"] == "t_us,C,a,b,c,d,re_z,im_z,re_w,im_w".split(",")
    assert payload["samples"] == rows
    assert csv_out.read_text() == "".join(
        line + "\n" for line in [",".join(payload["columns"])] + [csv_line(r) for r in rows])


#: a child that prints its own peak RSS in kB after one CLI run.  Not ru_maxrss: after
#: exec, Linux keeps the spawning process's peak there, so it would read pytest's size.
PEAK_RSS = """
import sys
from wgqed.cli import main
assert main(sys.argv[1:]) == 0
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_trajectory_output_has_bounded_memory(fmt, tmp_path):
    """10^5 + 1 samples: the output is formatted in blocks, never as one list or string.

    Formatting the whole table at once peaked at 95 MB (csv) and 200 MB (json);
    block by block both stay near 50 MB, most of it numpy and the interpreter.
    """
    out = tmp_path / f"traj.{fmt}"
    env = dict(os.environ, PYTHONPATH=str(Path(wgqed.cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, "evolve", "--f", "0.9", "--lambda-ratio", "1.5",
         "--t-max", "1", "--sample-dt", "1e-5", "--format", fmt, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 92
    with out.open() as fh:  # one line per row in CSV, one "    [" line per row in JSON
        rows = sum(1 for line in fh if fmt == "csv" or line == "    [\n")
    assert rows == 10**5 + 1 + (fmt == "csv")
