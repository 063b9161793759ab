import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cyclecap
from cyclecap import __version__
from cyclecap.cli import run
from cyclecap.exact import TVReport
from cyclecap.limits import (
    CLTEntry,
    CLTReport,
    CriticalRow,
    CriticalTable,
    IncrementTest,
    ProcessBatteryReport,
    TightnessEstimate,
)
from cyclecap.sampler import RNG_ID


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def solve_calls(monkeypatch):
    """Targets of every solve_saddle call, with the model caches emptied first."""
    solve, calls = cyclecap.saddle.solve_saddle, []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cyclecap" and getattr(module, "solve_saddle", None) is solve:
            monkeypatch.setattr(module, "solve_saddle", lambda q, n: calls.append(n) or solve(q, n))
    cyclecap.saddle._model_solution.cache_clear()
    cyclecap.exact._build_tilted.cache_clear()
    return calls


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["saddle", "--help"]) == 0

    def test_missing_required_flag(self, capsys):
        assert run(["saddle", "--alpha", "5"]) == 2  # no --n

    def test_alpha_beta_exclusivity(self, capsys):
        assert run(["saddle", "--n", "100"]) == 2
        assert run(["saddle", "--n", "100", "--alpha", "5", "--beta", "0.5"]) == 2

    def test_invalid_model_is_config_error(self, capsys):
        assert run(["saddle", "--n", "0", "--alpha", "5"]) == 2
        assert run(["saddle", "--n", "100", "--alpha", "5", "--theta", "-1"]) == 2

    def test_infinite_theta_is_config_error(self, capsys):
        assert run(["partition", "--n", "10", "--alpha", "3", "--theta", "inf"]) == 2

    @pytest.mark.parametrize("c", ["0", "-1", "nan", "inf"])
    def test_saddle_target_outside_0_inf_is_config_error(self, capsys, c):
        assert run(["saddle", "--n", "1000", "--alpha", "30", "--c", c]) == 2

    def test_weight_past_double_range_exits_three(self, capsys):
        argv = ["clt", "--n", "2000", "--alpha", "12", "--m-list", "10", "--s-grid", "10000"]
        assert run(argv) == 3

    @pytest.mark.parametrize("alpha,theta", [("100", "1e300"), ("50", "1e200")])
    def test_underflowed_mu_m_exits_three(self, capsys, alpha, theta):
        # x is about 1/theta, so mu_alpha = theta x^alpha / alpha is 0.0 in double
        argv = ["clt", "--n", "100", "--alpha", alpha, "--theta", theta, "--m-list", alpha, "--s-grid", "0"]
        assert run(argv) == 3
        assert capsys.readouterr().out == ""

    def test_tilt_below_double_range_exits_zero(self, capsys):
        # target 1e-320 puts the root t near -759.8: x = e^t is 0.0 in double
        argv = ["saddle", "--n", "1", "--alpha", "1", "--theta", "1e10", "--c", "1e-320"]
        code, out = run_capture(argv, capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["x"] == 0.0 and result["asymptotic_x"] is None

    @pytest.mark.parametrize(
        "command", [["saddle"], ["partition"], ["tvd", "--b", "1"], ["sample", "--count", "2", "--seed", "1"]]
    )
    def test_tilt_past_double_range_exits_three(self, capsys, command):
        # theta = 1e-306 at alpha = 1 puts the root at x = n/theta = 1e309, past double range
        argv = command[:1] + ["--n", "1000", "--alpha", "1", "--theta", "1e-306"] + command[1:]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "saddle tilt" in captured.err

    def test_regime_guard_exits_four(self, capsys):
        # alpha = 95 at n = 2000 is critical; the diverging battery refuses
        code = run(
            [
                "limits", "--n", "2000", "--alpha", "95",
                "--check", "diverging", "--samples", "50", "--seed", "1",
            ]
        )
        assert code == 4

    def test_sample_requires_seed(self, capsys):
        assert run(["sample", "--n", "10", "--alpha", "4", "--count", "3"]) == 2

    @pytest.mark.parametrize("count", ["0", "3"])
    def test_seed_outside_64_bits_is_config_error(self, capsys, count):
        argv = ["sample", "--n", "10", "--alpha", "4", "--count", count]
        assert run(argv + ["--seed", str(2**64), "--workers", "1"]) == 2

    def test_spacings_alias_removed(self, capsys):
        argv = ["limits", "--n", "2000", "--alpha", "400", "--check", "spacings"]
        assert run(argv + ["--samples", "10", "--seed", "1", "--grid", "0.5,1"]) == 2

    def test_oracle_size_guard_is_config_error(self, capsys):
        assert run(["oracle", "--n", "40", "--alpha", "3"]) == 2

    def test_table_past_the_byte_guard_is_config_error(self, capsys, monkeypatch):
        from cyclecap import exact

        def no_table(logw, N):
            raise AssertionError("started a table past the size guard")

        monkeypatch.setattr(exact, "_log_linear_dp", no_table)
        assert run(["partition", "--n", str(10**12), "--alpha", "2"]) == 2
        assert "size guard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--alpha", str(10**12)],
            ["saddle", "--alpha", str(10**12)],
            ["tvd", "--alpha", str(10**12), "--b", "2"],
            ["sample", "--alpha", str(10**12), "--count", "2", "--seed", "1"],
            ["saddle", "--beta", "0.9"],
        ],
        ids=["partition", "saddle", "tvd", "sample", "saddle-beta"],
    )
    def test_row_past_the_byte_guard_is_config_error(self, capsys, argv):
        # The model's row of alpha weights takes 8 alpha bytes: 7.28 TiB here,
        # and 470 GiB for alpha = n^0.9.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = run([argv[0], "--n", str(10**12), *argv[1:]])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "size guard" in capsys.readouterr().err
        assert elapsed < 1.0 and peak < 10**7

    # theta x^alpha / alpha is finite where x^alpha alone overflows.
    @pytest.mark.parametrize(
        "argv",
        [
            ["saddle", "--n", "1000", "--theta", "1e-306"],
            ["limits", "--n", "1000", "--theta", "1e-306", "--check", "diverging", "--samples", "20", "--seed", "1"],
            ["clt", "--n", "1000", "--theta", "1e-306", "--m-list", "1,3"],
            ["saddle", "--n", "5", "--theta", "1e-320"],
        ],
        ids=["saddle", "limits", "clt", "saddle-1e-320"],
    )
    def test_tiny_theta_runs(self, capsys, argv):
        assert run([*argv, "--alpha", "3"]) == 0

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
    def test_clt_negative_samples_refused_before_the_h_calculus(self, capsys, monkeypatch, seed):
        from cyclecap import cli

        def no_calculus(*args):
            raise AssertionError("ran the h-calculus before refusing the run")

        monkeypatch.setattr(cli, "clt_h_calculus", no_calculus)
        argv = ["clt", "--n", "2000", "--alpha", "12", "--m-list", "10", "--s-grid", "0", "--samples", "-1"]
        assert run([*argv, *seed]) == 2
        assert "--samples must be >= 0" in capsys.readouterr().err

    def test_numerical_error_exits_three(self, capsys, monkeypatch):
        from cyclecap import cli
        from cyclecap.errors import NumericalError

        def boom(args):
            raise NumericalError("forced")

        monkeypatch.setattr(cli, "_cmd_partition", boom)
        assert run(["partition", "--n", "4", "--alpha", "2"]) == 3


class TestArtifacts:
    def test_saddle_json_shape(self, capsys):
        code, out = run_capture(
            ["saddle", "--n", "1000", "--alpha", "63", "--theta", "1.0"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == __version__
        assert doc["config"]["n"] == 1000 and doc["config"]["alpha"] == 63
        r = doc["result"]
        assert r["x"] == pytest.approx(1.068543, abs=2e-4)
        assert abs(r["residual"]) <= 1e-9
        assert r["regime"] in ("Diverging", "Critical", "Vanishing")
        assert len(r["lambda"]) == 4
        assert math.exp(r["lambda"][1]) == pytest.approx(1000.0, rel=1e-10)
        assert r["asymptotic_x"] is None or r["asymptotic_x"] > 1.0

    def test_partition_matches_known_value(self, capsys):
        # Z_{4,2} with theta = 1: admissible fraction 10/24
        code, out = run_capture(["partition", "--n", "4", "--alpha", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["log_z"] == pytest.approx(math.log(10 / 24), abs=1e-12)
        assert doc["result"]["z"] == pytest.approx(10 / 24, rel=1e-12)

    def test_beta_config_round_trips(self, capsys):
        code, out = run_capture(
            ["saddle", "--n", "100000", "--beta", "0.6"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["beta"] == 0.6
        assert doc["config"]["alpha"] is None

    def test_sample_csv_headers_and_rng(self, capsys):
        code, out = run_capture(
            ["sample", "--n", "8", "--alpha", "3", "--count", "4", "--seed", "7"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# cyclecap {__version__}"
        assert lines[1].startswith("# config: ")
        assert lines[2] == f"# rng: {RNG_ID}"
        config = json.loads(lines[1][len("# config: ") :])
        assert config["seed"] == 7
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",")[0] == "index"
        assert len(data) == 1 + 4  # header + rows

    def test_tvd_fields(self, capsys):
        code, out = run_capture(["tvd", "--n", "20", "--alpha", "6", "--b", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["n"] == 20 and doc["config"]["alpha"] == 6
        r = doc["result"]
        assert set(r) == _fields(TVReport)
        assert 0.0 <= r["tv"] <= 1.0
        assert r["b"] == 2 and r["terms_summed"] == 21

    def test_spcheck_ratio(self, capsys):
        code, out = run_capture(["spcheck", "--n", "1000", "--alpha", "63"], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        ratio = math.exp(r["log_exact"] - r["log_approx"])
        assert abs(ratio - 1) <= 5 * 63 / 1000


class TestDeterminism:
    def test_rerun_byte_identical(self, capsys):
        argv = ["sample", "--n", "30", "--alpha", "6", "--count", "20", "--seed", "3"]
        _, first = run_capture(argv, capsys)
        _, second = run_capture(argv, capsys)
        assert first == second

    def test_worker_count_invariance(self, capsys):
        base = ["sample", "--n", "40", "--alpha", "7", "--count", "30", "--seed", "9"]
        _, one = run_capture(base + ["--workers", "1"], capsys)
        _, three = run_capture(base + ["--workers", "3"], capsys)
        assert one == three

    def test_longest_emission(self, capsys):
        code, out = run_capture(
            [
                "sample", "--n", "30", "--alpha", "6", "--count", "5",
                "--seed", "3", "--emit", "longest",
            ],
            capsys,
        )
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "index,ell1,ell2,ell3"
        for row in data[1:]:
            cells = [int(v) for v in row.split(",")[1:]]
            assert all(a >= b for a, b in zip(cells, cells[1:]))
            assert cells[0] <= 6

    def test_process_emission_pinned(self, capsys):
        code, out = run_capture(
            [
                "sample", "--n", "200", "--alpha", "60", "--count", "6",
                "--seed", "3", "--emit", "process", "--grid", "0.5,1,2",
            ],
            capsys,
        )
        assert code == 0
        assert out == (
            f"# cyclecap {__version__}\n"
            '# config: {"alpha": 60, "beta": null, "command": "sample", "count": 6, '
            '"emit": "process", "grid": "0.5,1,2", "n": 200, "seed": 3, "theta": 1.0}\n'
            f"# rng: {RNG_ID}\n"
            "index,P_0.5,P_1,P_2\n"
            "0,0,0,2\n1,0,0,1\n2,0,1,1\n3,0,1,1\n4,0,1,2\n5,1,1,2\n"
        )

    @pytest.mark.parametrize("count", ["0", "2"])
    def test_process_emission_refuses_unordered_grid(self, capsys, count):
        argv = ["sample", "--n", "200", "--alpha", "60", "--count", count, "--seed", "3"]
        assert run(argv + ["--emit", "process", "--grid", "2,1"]) == 2


class TestNonFiniteListFlags:
    """nan, inf and empty lists in the list flags are configuration errors."""

    @pytest.mark.parametrize("grid", ["nan", "1,inf"])
    def test_sample_process_grid(self, capsys, grid):
        argv = ["sample", "--n", "200", "--alpha", "60", "--count", "2", "--seed", "3"]
        assert run(argv + ["--emit", "process", "--grid", grid]) == 2

    def test_limits_process_grid(self, capsys):
        argv = [
            "limits", "--n", "2000", "--alpha", "639", "--check", "process",
            "--samples", "20", "--seed", "1", "--grid", "0.5,nan",
        ]
        assert run(argv) == 2

    @pytest.mark.parametrize("s_grid", ["0,nan", "0,inf"])
    def test_clt_s_grid(self, capsys, s_grid):
        argv = ["clt", "--n", "2000", "--alpha", "12", "--m-list", "10", "--s-grid", s_grid]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("triple", ["0,1,inf", "0,nan,1"])
    def test_limits_tightness_triple(self, capsys, triple):
        argv = [
            "limits", "--n", "2000", "--alpha", "639", "--check", "tightness",
            "--samples", "20", "--seed", "1", "--triple", triple,
        ]
        assert run(argv) == 2

    def test_cutoff_past_double_range_exits_zero(self, capsys):
        # t / mu_alpha overflows at t = 1e308, where the cutoff d_t is 0: P_t counts every cycle
        from cyclecap.limits import d_cutoff
        from cyclecap.model import ConstraintModel
        from cyclecap.saddle import mu_alpha_of
        from cyclecap.sampler import sample_lengths

        code, out = run_capture(
            ["sample", "--n", "200", "--alpha", "60", "--count", "6", "--seed", "3",
             "--emit", "process", "--grid", "0.5,1e308"],
            capsys,
        )
        assert code == 0
        batch = sample_lengths(ConstraintModel(n=200, alpha=60, theta=1.0), 6, 3)
        rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
        assert [int(row.split(",")[-1]) for row in rows] == [len(lengths) for lengths in batch]

        code, out = run_capture(
            ["limits", "--n", "2000", "--alpha", "639", "--check", "tightness",
             "--samples", "20", "--seed", "1", "--triple", "0,1,1e308"],
            capsys,
        )
        assert code == 0
        model = ConstraintModel(n=2000, alpha=639, theta=1.0)
        d1 = d_cutoff(1.0, mu_alpha_of(model), model.alpha)
        batch = sample_lengths(model, 20, 1)
        x = np.array([np.count_nonzero(lengths > d1) for lengths in batch])
        y = np.array([len(lengths) for lengths in batch]) - x
        assert json.loads(out)["result"]["value"] == float(np.mean((x * x) * (y * y)))

    @pytest.mark.parametrize("lists", [["--m-list", ","], ["--m-list", "10", "--s-grid", ","]])
    def test_clt_empty_list(self, capsys, lists):
        assert run(["clt", "--n", "2000", "--alpha", "12", *lists]) == 2
        assert capsys.readouterr().out == ""

    def test_limits_clt_empty_m_list_draws_nothing(self, capsys, monkeypatch):
        from cyclecap import cli

        def no_draw(*args):
            raise AssertionError("drew samples before parsing --m-list")

        monkeypatch.setattr(cli, "sample_lengths", no_draw)
        argv = [
            "limits", "--n", "2000", "--alpha", "12", "--check", "clt",
            "--m-list", ",", "--samples", "10", "--seed", "1",
        ]
        assert run(argv) == 2

    # A repeated m and an m past alpha are input errors (2); mu_1 below the
    # battery's threshold is a regime guard (4). None of them draws.
    @pytest.mark.parametrize("m_list,code", [("10,10", 2), ("13", 2), ("1", 4)])
    def test_limits_clt_refused_m_list_draws_nothing(self, capsys, monkeypatch, m_list, code):
        from cyclecap import cli

        def no_draw(*args):
            raise AssertionError("drew samples before checking --m-list")

        monkeypatch.setattr(cli, "sample_lengths", no_draw)
        argv = [
            "limits", "--n", "2000", "--alpha", "12", "--check", "clt",
            "--m-list", m_list, "--samples", "100000", "--seed", "1",
        ]
        assert run(argv) == code
        assert capsys.readouterr().out == ""


class TestLimitsRefusesBeforeDrawing:
    """Each battery's argument checks and regime guard run before any draw."""

    @pytest.mark.parametrize(
        "alpha,check,flags,code",
        [
            ("12", "diverging", ["--K", "-1"], 2),
            ("95", "critical", ["--k", "0"], 2),
            ("95", "critical", ["--d-max", "-1"], 2),
            ("639", "process", ["--grid", "1", "--subbatches", "0"], 2),
            ("639", "process", ["--grid", "2,1"], 2),
            ("639", "tightness", ["--triple", "2,1,0"], 2),
            ("12", "diverging", ["--samples", "-1"], 2),
            ("639", "diverging", [], 4),
            ("12", "critical", [], 4),
            ("95", "process", ["--grid", "1"], 4),
            ("95", "tightness", [], 4),
            # an argument error wins over the regime guard
            ("12", "critical", ["--k", "0"], 2),
        ],
    )
    def test_refused_run_draws_nothing(self, capsys, monkeypatch, alpha, check, flags, code):
        from cyclecap import cli, limits

        def no_draw(*args):
            raise AssertionError("drew samples before refusing the run")

        monkeypatch.setattr(cli, "sample_lengths", no_draw)
        monkeypatch.setattr(limits, "sample_lengths", no_draw)
        argv = ["limits", "--n", "2000", "--alpha", alpha, "--check", check, "--samples", "10000"]
        assert run([*argv, "--seed", "1", *flags]) == code
        assert capsys.readouterr().out == ""


class TestConfigFile:
    def test_config_fills_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 12, "alpha": 4, "count": 5, "seed": 1}))
        _, out = run_capture(["sample", "--config", str(cfg)], capsys)
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 5
        _, out2 = run_capture(["sample", "--config", str(cfg), "--count", "2"], capsys)
        rows2 = [l for l in out2.splitlines() if not l.startswith("#")]
        assert len(rows2) == 1 + 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 12, "alpha": 4, "bogus": 1}))
        assert run(["partition", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, capsys):
        assert run(["partition", "--config", "/nonexistent/cfg.json"]) == 2

    # Each entry is checked as its flag would be: a value the flag refuses is a
    # configuration error, never a value written onto the command unchecked.
    @pytest.mark.parametrize(
        "command,values",
        [
            ("partition", {"n": 10.7, "alpha": 3}),
            ("sample", {"n": 10, "alpha": 3, "count": "50", "seed": 1}),
            ("tvd", {"n": 10, "alpha": 3, "b": "19"}),
            ("sample", {"n": 10, "alpha": 3, "count": 3, "seed": 1, "emit": "process", "grid": [0.5, 1]}),
            ("sample", {"n": 10, "alpha": 3, "count": 3, "seed": 1, "emit": "bogus"}),
            ("partition", {"n": 10, "alpha": 3, "theta": True}),
            ("partition", {"n": 10, "alpha": 3, "command": "tvd"}),
        ],
        ids=["fractional_n", "string_count", "string_b", "list_grid", "bad_choice", "bool_theta", "not_a_flag"],
    )
    def test_entry_parsed_as_its_flag(self, tmp_path, capsys, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run([command, "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_explicit_flag_at_its_default_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "alpha": 3, "theta": 2.0}))
        _, out = run_capture(["partition", "--config", str(cfg), "--theta", "1.0"], capsys)
        assert json.loads(out)["config"]["theta"] == 1.0
        _, out = run_capture(["partition", "--theta", "1.0", "--config", str(cfg)], capsys)
        assert json.loads(out)["config"]["theta"] == 1.0
        _, out = run_capture(["partition", "--config", str(cfg)], capsys)
        assert json.loads(out)["config"]["theta"] == 2.0

    def test_entries_match_the_same_flags(self, tmp_path, capsys):
        # a config file and the flags it spells produce the same artifact
        cfg = tmp_path / "cfg.json"
        values = {"n": 2000, "alpha": 95, "check": "critical", "samples": 50, "seed": 5, "d-max": 4}
        cfg.write_text(json.dumps(values))
        _, from_file = run_capture(["limits", "--config", str(cfg)], capsys)
        flags = [f"--{k}={v}" for k, v in values.items()]
        _, from_flags = run_capture(["limits", *flags], capsys)
        assert from_file == from_flags


class TestOutFile:
    def test_atomic_write_to_path(self, tmp_path, capsys):
        out_path = tmp_path / "artifact.json"
        code = run(
            ["partition", "--n", "10", "--alpha", "4", "--out", str(out_path)]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["version"] == __version__
        assert capsys.readouterr().out == ""
        leftovers = [p for p in tmp_path.iterdir() if p != out_path]
        assert leftovers == []

    def test_oracle_csv_content(self, tmp_path, capsys):
        out_path = tmp_path / "oracle.csv"
        code = run(["oracle", "--n", "4", "--alpha", "2", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        logz_lines = [l for l in text.splitlines() if l.startswith("# log_z:")]
        assert len(logz_lines) == 1
        assert float(logz_lines[0].split(":")[1]) == pytest.approx(
            math.log(10 / 24), abs=1e-12
        )
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert header == "type,log_p,p"
        parsed = [r.rsplit(",", 2) for r in body]
        probs = [float(p) for _, _, p in parsed]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        # the all-transpositions class has conditioned probability 3/10
        class_of = {t: float(p) for t, _, p in parsed}
        assert class_of["CycleType(4: 2^2)"] == pytest.approx(3 / 10, abs=1e-12)


class TestLimitsAndCLTCommands:
    def test_limits_critical_json(self, capsys):
        code, out = run_capture(
            [
                "limits", "--n", "2000", "--alpha", "95", "--check", "critical",
                "--samples", "400", "--seed", "5", "--k", "1", "--d-max", "4",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        r = doc["result"]
        assert r["regime"] == "Critical"
        assert len(r["rows"]) == 5
        assert 0.0 <= r["tv"] <= 1.0
        emp_mass = sum(row["empirical"] for row in r["rows"]) + r["empirical_rest"]
        assert emp_mass == pytest.approx(1.0, abs=1e-12)
        assert doc["rng"] == RNG_ID

    def test_clt_h_calculus_grid(self, capsys):
        code, out = run_capture(
            [
                "clt", "--n", "2000", "--alpha", "12", "--m-list", "10,12",
                "--s-grid", "0,0.1",
            ],
            capsys,
        )
        assert code == 0
        r = json.loads(out)["result"]
        entries = r["h_calculus"]
        assert [(e["m"], e["s"]) for e in entries] == [
            (10, 0.0), (10, 0.1), (12, 0.0), (12, 0.1),
        ]
        for e in entries:
            if e["s"] == 0.0:
                assert e["h1"] == pytest.approx(math.sqrt(e["mu_m"]), rel=1e-10)

    def test_limits_tightness_json(self, capsys):
        code, out = run_capture(
            [
                "limits", "--n", "2000", "--alpha", "639", "--check", "tightness",
                "--samples", "200", "--seed", "4", "--triple", "0,1,2",
            ],
            capsys,
        )
        assert code == 0
        r = json.loads(out)["result"]
        assert r["triple"] == [0.0, 1.0, 2.0]
        assert r["value"] >= 0.0 and r["std_error"] >= 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["clt", "--n", "2000", "--alpha", "12", "--m-list", "12,12", "--samples", "200", "--seed", "1"],
            ["limits", "--n", "2000", "--alpha", "12", "--check", "clt", "--m-list", "10,10",
             "--samples", "200", "--seed", "1"],
        ],
        ids=["clt", "limits"],
    )
    def test_repeated_m_is_config_error(self, argv, capsys):
        assert run(argv) == 2
        assert "repeat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha", "95", "--check", "critical", "--d-max", "4"],
            ["--alpha", "639", "--check", "process", "--grid", "0.5,1"],
            ["--alpha", "12", "--check", "clt", "--m-list", "10,12"],
        ],
    )
    def test_limits_checks_solve_the_models_row_once(self, flags, capsys, solve_calls):
        # The draws, the regime guard and the battery's means share one solve.
        code, _ = run_capture(["limits", "--n", "2000", *flags, "--samples", "50", "--seed", "3"], capsys)
        assert code == 0
        assert solve_calls == [2000.0]

    @pytest.mark.parametrize(
        "argv,solves",
        [
            # The approximation, the admissibility ratios and the h-table read one solve.
            (["spcheck", "--n", "10000", "--alpha", "251"], 1),
            # The model's row, then one perturbed row per m at s = 0.1; s = 0 reuses the first.
            (["clt", "--n", "2000", "--alpha", "12", "--m-list", "10,12", "--s-grid", "0,0.1"], 3),
        ],
        ids=["spcheck", "clt"],
    )
    def test_exact_commands_solve_each_row_once(self, argv, solves, capsys, solve_calls):
        code, _ = run_capture(argv, capsys)
        assert code == 0
        assert len(solve_calls) == solves

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclecap.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "saddle" in proc.stdout


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


# limits flags per check, and the field names its JSON result must carry
# besides "check" and "regime"; the diverging battery returns a bare fraction.
_LIMITS_CHECKS = {
    "diverging": (["--alpha", "15"], {"K", "fraction"}),
    "critical": (["--alpha", "95", "--d-max", "4"], _fields(CriticalTable)),
    "process": (["--alpha", "639", "--grid", "0.5,1"], _fields(ProcessBatteryReport)),
    "tightness": (["--alpha", "639"], _fields(TightnessEstimate)),
    "clt": (["--alpha", "12", "--m-list", "10,12"], _fields(CLTReport)),
}
# list-valued result keys whose items are report dataclasses
_NESTED = {"rows": CriticalRow, "increment_tests": IncrementTest, "entries": CLTEntry}


class TestReportContract:
    """A JSON result holds the report's fields under their own names."""

    @pytest.mark.parametrize("check", sorted(_LIMITS_CHECKS))
    def test_limits_result_keys_are_report_fields(self, capsys, check):
        flags, fields = _LIMITS_CHECKS[check]
        argv = ["limits", "--n", "2000", *flags, "--check", check, "--samples", "40", "--seed", "2"]
        code, out = run_capture(argv, capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert set(r) == fields | {"check", "regime"}
        assert r["check"] == check
        for key, cls in _NESTED.items():
            for item in r.get(key, []):
                assert set(item) == _fields(cls)

    def test_clt_battery_matches_limits_clt(self, capsys):
        model = ["--n", "2000", "--alpha", "12", "--m-list", "10,12"]
        sampling = ["--samples", "200", "--seed", "5"]
        code, out = run_capture(["clt", *model, *sampling], capsys)
        assert code == 0
        battery = json.loads(out)["result"]["battery"]
        assert set(battery) == _fields(CLTReport)
        code, out = run_capture(["limits", *model, "--check", "clt", *sampling], capsys)
        assert code == 0
        limits = json.loads(out)["result"]
        assert battery == {k: v for k, v in limits.items() if k not in ("check", "regime")}


def test_all_names_are_attributes_listed_once():
    names = cyclecap.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cyclecap, name)] == []


def test_pyproject_version_matches_package():
    # The version is declared once, as cyclecap.__version__, which pyproject.toml reads.
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools flags [tool.setuptools] as beta
        config = read_configuration(Path(__file__).resolve().parent.parent / "pyproject.toml")
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == __version__


# Commands that compute exact laws, tilts and samples; none of them needs scipy.
_SCIPY_FREE_COMMANDS = [
    ["saddle", "--n", "1000", "--beta", "0.85"],
    ["partition", "--n", "5", "--alpha", "3"],
    ["sample", "--n", "100", "--alpha", "10", "--count", "5", "--seed", "1"],
    ["sample", "--n", "100", "--alpha", "10", "--count", "5", "--seed", "1", "--emit", "longest"],
    [
        "sample", "--n", "100", "--alpha", "10", "--count", "5", "--seed", "1",
        "--emit", "process", "--grid", "0.5,1",
    ],
    ["tvd", "--n", "200", "--alpha", "20", "--b", "3"],
    ["oracle", "--n", "6", "--alpha", "3"],
    ["spcheck", "--n", "1000", "--alpha", "30"],
    ["clt", "--n", "2000", "--alpha", "12", "--m-list", "10,12", "--s-grid", "0,0.1"],
]

# Every battery command; they load scipy.special and nothing from scipy.stats.
_BATTERY_COMMANDS = [
    ["clt", "--n", "2000", "--alpha", "12", "--m-list", "10,12", "--samples", "50", "--seed", "5"],
    ["limits", "--n", "2000", "--alpha", "15", "--check", "diverging", "--samples", "20", "--seed", "5"],
    [
        "limits", "--n", "2000", "--alpha", "95", "--check", "critical",
        "--samples", "20", "--seed", "5", "--d-max", "4",
    ],
    [
        "limits", "--n", "2000", "--alpha", "639", "--check", "process",
        "--samples", "50", "--seed", "5", "--grid", "0.5,1", "--subbatches", "2",
    ],
    [
        "limits", "--n", "2000", "--alpha", "639", "--check", "tightness",
        "--samples", "20", "--seed", "5", "--triple", "0.5,1,1.5",
    ],
    [
        "limits", "--n", "2000", "--alpha", "12", "--check", "clt",
        "--samples", "50", "--seed", "5", "--m-list", "10,12",
    ],
]

_IMPORT_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    import cyclecap
    report = {"import cyclecap": [0, scipy_modules()]}
    import cyclecap.cli
    report["import cyclecap.cli"] = [0, scipy_modules()]
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cyclecap.cli.run(argv)
        report[" ".join(argv)] = [code, scipy_modules()]
    print(json.dumps(report))
    """
)


def _probe_imports(commands):
    """Run commands one after another in a fresh interpreter; per step, the
    exit code and the scipy modules loaded so far."""
    src = str(Path(cyclecap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


class TestImportPath:
    def test_exact_commands_never_load_scipy(self):
        report = _probe_imports(_SCIPY_FREE_COMMANDS)
        assert len(report) == 2 + len(_SCIPY_FREE_COMMANDS)
        for step, (code, scipy_modules) in report.items():
            assert code == 0, step
            assert scipy_modules == [], step

    def test_battery_commands_never_load_scipy_stats(self):
        report = _probe_imports(_BATTERY_COMMANDS)
        assert len(report) == 2 + len(_BATTERY_COMMANDS)
        for step, (code, scipy_modules) in report.items():
            assert code == 0, step
            assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in scipy_modules), step
        assert "scipy.special" in scipy_modules
