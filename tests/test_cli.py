import inspect
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from qvlcode import bounds, cli, info, schur_weyl, young


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def run_text(args):
    config = cli.config_from_args(cli.parse_args(args))
    threads = cli.parse_args(args)["threads"]
    return cli.run(config, threads=threads)


class TestDims:
    def test_rows_and_sum(self):
        text = run_text(["dims", "--n", "3", "--d", "2"])
        lines = text.strip().split("\n")
        assert lines[0] == "block,dim_unitary,dim_symmetric,dim_total,method"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["3:0", "2:1"]
        assert sum(int(r[3]) for r in rows) == 8

    def test_d3(self):
        text = run_text(["dims", "--n", "4", "--d", "3", "--format", "json"])
        doc = json.loads(text)
        assert sum(r["dim_total"] for r in doc["results"]) == 81

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_past_the_int_digit_limit(self, fmt, capsys):
        # dim S_2200(1100, 1100) has 660 digits: with the int-to-str limit at
        # 640 the command still prints every dimension in full, exit 0, and
        # the limit is back as it was after the output
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli.main(["dims", "--n", "2200", "--format", fmt]) == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        out = capsys.readouterr().out
        dim = str(young.dim_sym_group((1100, 1100)))
        assert len(dim) > 640
        assert (f",{dim}," if fmt == "csv" else f": {dim},") in out


class TestDecomposeCheck:
    def test_clean_exit(self, capsys):
        assert cli.main(["decompose-check", "--n", "4", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "completeness" in out
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) < 1e-10

    def test_budget_exit_code(self, capsys):
        assert cli.main(["decompose-check", "--n", "13", "--d", "2"]) == 2

    def test_qubit_n10(self, capsys):
        assert cli.main(["decompose-check", "--n", "10", "--d", "2"]) == 0
        for line in capsys.readouterr().out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) <= 1e-10
        schur_weyl.young_projectors.cache_clear()


# two non-commuting qubit atoms: |0><0| and |+><+|
NONCOMMUTING_QUBIT = {"d": 2, "atoms": [{"weight": 0.6, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                                        {"weight": 0.4, "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}]}


def noncommuting_qubit_file(tmp_path) -> str:
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(NONCOMMUTING_QUBIT))
    return str(path)


def error_against_monte_carlo(n: int, path: str, capsys) -> None:
    """The chain's error at n exits 0 and its Monte Carlo estimate lies within 4 standard errors."""
    argv = ["error", "--n", str(n), "--schedule", "--source", path, "--format", "json"]
    assert cli.main(argv) == 0
    exact = json.loads(capsys.readouterr().out)["results"][0]["error"]
    assert cli.main(argv + ["--samples", "2000", "--seed", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert abs(row["error"] - exact) <= 4 * row["stderr"]


def test_noncommuting_qubit_error_at_n9(tmp_path, capsys):
    error_against_monte_carlo(9, noncommuting_qubit_file(tmp_path), capsys)


def test_noncommuting_qubit_error_at_n12(tmp_path, capsys):
    # the dense projectors would need about 1024 MiB here; the polarized route none
    error_against_monte_carlo(12, noncommuting_qubit_file(tmp_path), capsys)


class TestMemoryBudget:
    """Commands over the byte budget exit 2 at once, with no traceback."""

    @pytest.mark.parametrize("argv", [
        ["error", "--n", "7", "--d", "3", "--schedule", "--source", "SOURCE"],
        ["overflow", "--n", "1000000", "--d", "3", "--schedule", "--spectrum", "0.5,0.3,0.2", "--rate", "0.9"],
    ])
    def test_exit_2_quickly(self, argv, tmp_path, capsys):
        # a non-commuting qutrit source: the dense route at n = 7 needs about 1 GB
        atoms = [{"weight": 0.5, "matrix": [[[0.5, 0], [0.5, 0], [0, 0]], [[0.5, 0], [0.5, 0], [0, 0]],
                                            [[0, 0], [0, 0], [0, 0]]]},
                 {"weight": 0.5, "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                                            [[0, 0], [0, 0], [0, 0]]]}]
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps({"d": 3, "atoms": atoms}))
        start = time.perf_counter()
        assert cli.main([str(path) if a == "SOURCE" else a for a in argv]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MiB" in err and "Traceback" not in err


    @pytest.mark.parametrize("n, d, spectrum", [(130, 3, "0.6,0.3,0.1"), (40, 4, "0.4,0.3,0.2,0.1")])
    def test_qudit_clusters_within_budget(self, n, d, spectrum, capsys):
        # the grid holds these clusters within the budget; labels x C1 memberships would need 340 and 435 MiB
        argv = ["overflow", "--n", str(n), "--d", str(d), "--schedule", "--spectrum", spectrum, "--rate", "0.9"]
        assert cli.main(argv) == 0
        assert "error" not in capsys.readouterr().err

    def test_atom_type_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # a 3-atom commuting qubit source at n = 4 has 15 atom types; the
        # instrument simulation has no Monte Carlo fallback
        from qvlcode import codec
        monkeypatch.setattr(codec, "MAX_ATOM_TYPES", 10)
        atoms = [{"weight": w, "matrix": [[[q, 0], [0, 0]], [[0, 0], [1 - q, 0]]]}
                 for w, q in ((0.3, 0.2), (0.3, 0.5), (0.4, 0.9))]
        path = tmp_path / "atoms3.json"
        path.write_text(json.dumps({"d": 2, "atoms": atoms}))
        argv = ["error", "--n", "4", "--schedule", "--source", str(path), "--criterion", "definitional"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "atom types" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["distribution"], ["fixed-length", "--rate", "0.5"], ["error"]])
    def test_monte_carlo_fallback_is_labelled(self, command, monkeypatch):
        # past the atom-type cap every row comes from Monte Carlo draws
        from qvlcode import codec
        monkeypatch.setattr(codec, "MAX_ATOM_TYPES", 1)
        monkeypatch.setattr(codec, "FALLBACK_SAMPLES", 200)
        argv = command + ["--n", "3", "--d", "3", "--schedule", "--spectrum", "0.5,0.3,0.2", "--format", "json"]
        rows = json.loads(run_text(argv))["results"]
        assert {row["method"] for row in rows} == {"monte-carlo"}


class TestConfigHandling:
    def test_missing_required_flag(self, capsys):
        assert cli.main(["dims"]) == 1

    @pytest.mark.parametrize("argv", [
        ["overflow", "--n", "0", "--schedule", "--spectrum", "0.7,0.3", "--rate", "0.5"],
        ["dims", "--n", "3", "--d", "0"],
        ["overflow", "--n", "4", "--delta", "-1", "--spectrum", "0.7,0.3", "--rate", "0.5"],
        ["overflow", "--n", "4", "--delta", "nan", "--spectrum", "0.7,0.3", "--rate", "0.5"],
        ["lemma-l1", "--spectrum", "0.7,0.3", "--n-grid", "0:3"],
        ["lemma-l1", "--spectrum", "0.7,0.3", "--n-grid", "5:3"],
        ["lemma-l1", "--spectrum", "0.7,0.3", "--n-grid", "a:3"],
        ["lemma-l1", "--spectrum", "0.7,0.3", "--n-grid", "1:3:0"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--samples", "0"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--samples", "-3"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--samples", "10", "--seed", "-1"],
        ["error", "--n", "4", "--delta", "0.2", "--delta1", "0.5", "--spectrum-set", "0.7,0.3",
         "--spectrum", "0.7,0.3"],
        ["overflow", "--n", "4", "--d", "3", "--schedule", "--spectrum", "0.7,0.3", "--rate", "0.5"],
        ["lemma-l1", "--spectrum", "0.5,0.5", "--n-grid", "10"],
        ["lemma-l2", "--spectrum", "0.6,0.3,0.1", "--n-grid", "10"],
        ["exponent", "--rate", "5", "--spectrum", "0.7,0.3"],
        ["sec6-gap", "--t1", "2", "--t0", "0.1", "--dtheta", "0.1"],
        ["bounds", "--d", "1", "--n", "10", "--schedule"],
        ["lemma-l2", "--spectrum", "0.7,0.3", "--n-grid", "1:3"],
        ["error", "--n", "5", "--schedule", "--spectrum", "0.9,0.1", "--samples", "1"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--criterion", "definitional",
         "--samples", "10"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--criterion", "prime", "--samples", "10"],
        ["overflow", "--n", "20", "--schedule", "--spectrum", "0.7,0.3", "--rate", "0.5", "--samples", "7"],
        ["dims", "--n", "3", "--samples", "7"],
        ["decompose-check", "--n", "3", "--samples", "7"],
        ["bounds", "--n", "100", "--schedule", "--rate", "0.5", "--spectrum", "0.7,0.3", "--samples", "7"],
        ["exponent", "--rate", "0.65", "--spectrum", "0.7,0.3", "--samples", "7"],
        ["lemma-l1", "--spectrum", "0.7,0.3", "--n-grid", "10", "--samples", "7"],
        ["lemma-l2", "--spectrum", "0.7,0.3", "--n-grid", "10", "--samples", "7"],
        ["sec6-gap", "--t1", "0.2", "--t0", "0.1", "--dtheta", "0.1", "--samples", "7"],
        ["dims", "--n", "3", "--threads", "0"],
        ["dims", "--n", "3", "--threads", "-2"],
    ])
    def test_out_of_range_exits_1(self, argv, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["error", "--n", "5", "--schedule", "--spectrum", "nan,0.5"],
        ["error", "--n", "5", "--schedule", "--source", "{nan_weight}"],
        ["exponent", "--rate", "nan", "--spectrum", "0.7,0.3"],
        ["overflow", "--n", "5", "--delta", "inf", "--spectrum", "0.7,0.3", "--rate", "0.5"],
        ["overflow", "--n", "5", "--delta", "0.3", "--spectrum", "0.7,0.3", "--rate", "nan"],
        ["overflow", "--n", "5", "--delta", "0.3", "--delta1", "-inf", "--spectrum-set", "0.7,0.3",
         "--spectrum", "0.7,0.3", "--rate", "0.5"],
        ["sec6-gap", "--t1", "0.2", "--t0", "0.1", "--dtheta", "inf"],
    ])
    def test_non_finite_numbers_exit_1(self, argv, tmp_path, capsys):
        path = tmp_path / "nan-weight.json"
        atoms = [{"weight": math.nan, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                 {"weight": 0.5, "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}]
        path.write_text(json.dumps({"d": 2, "atoms": atoms}))  # written as the JSON extension NaN
        assert cli.main([a.format(nan_weight=path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "malformed-json", "not-utf8"])
    def test_unreadable_source_file_exits_1(self, kind, tmp_path, capsys):
        path = tmp_path / "source.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "malformed-json":
            path.write_text('{"d": 2, "atoms": [')
        elif kind == "not-utf8":
            path.write_bytes(b'{"d": 2, "atoms": []}\xff\xfe')
        assert cli.main(["error", "--n", "4", "--schedule", "--source", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_bad_spectrum(self, capsys):
        assert cli.main(["error", "--n", "4", "--delta", "0.2",
                         "--spectrum", "0.9,0.9"]) == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_options_before_the_command(self):
        assert run_text(["--n", "4", "--format", "json", "dims"]) == run_text(["dims", "--n", "4", "--format", "json"])

    def test_option_with_equals_sign(self):
        assert cli.parse_args(["dims", "--n=4", "--format=json"]) == cli.parse_args(["--n", "4", "dims", "--format", "json"])

    def test_every_option_is_a_setting_with_its_default(self):
        defaults = {f.name: f.default for f in fields(cli.ExperimentConfig)}
        defaults["source"] = defaults.pop("source_path")
        defaults["threads"] = inspect.signature(cli.run).parameters["threads"].default
        for name, (_, default, _, _) in cli.OPTIONS.items():
            assert defaults[name.replace("-", "_")] == default, name
        assert cli.config_from_args(cli.parse_args(["dims"])) == cli.ExperimentConfig(command="dims")

    @pytest.mark.parametrize("argv", [
        [],
        ["--n", "3"],
        ["error", "--n", "4", "--schedule=1", "--spectrum", "0.7,0.3"],
        ["dims", "--n"],
        ["dims", "--n", "--d", "2"],
        ["dims", "--n", "3", "--bogus", "1"],
        ["dims", "-n", "3"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--crit", "dprime"],
        ["error", "--n", "4", "--schedule", "--spectrum", "0.7,0.3", "--criterion", "bogus"],
        ["dims", "--n", "3", "--format=xml"],
        ["dims", "--n", "three"],
        ["dims", "--n", "3", "--d="],
        ["dims", "dims", "--n", "3"],
        ["dims", "--n", "3", "overflow"],
        ["bounds", "--n", "40", "--schedule", "--rate", "0.6", "--spectrum", "0.7,0.3", "--spectrum-set", ";"],
        ["error", "--n", "4", "--delta", "0.3", "--delta1", "0.1", "--spectrum", "0.7,0.3", "--spectrum-set="],
    ])
    def test_malformed_command_line_exits_1(self, argv, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_every_command_and_option(self, flag, capsys):
        assert cli.main([flag]) == 0
        out = capsys.readouterr().out
        for name in [*cli.COMMANDS, *(f"--{option} " for option in cli.OPTIONS)]:
            assert name in out, name

    @pytest.mark.parametrize("argv, rows", [
        (["dims", "--n", "3"], 2),
        (["lemma-l1", "--spectrum", "0.7,0.3", "--n-grid", "10,20,30"], 3),
    ])
    def test_thread_pool_capped_by_rows_and_cores(self, argv, rows, monkeypatch):
        sizes = []

        class Recorder:  # runs the rows in this thread: no thread starts
            map = staticmethod(map)

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recorder)
        run_text(argv + ["--threads", "1000000"])
        assert sizes == [min(rows, os.cpu_count() or 1)]

    def test_block_probability_off_the_unit_interval_exits_3(self, monkeypatch, tmp_path, capsys):
        # doubled scales of the polarized route give block probabilities up
        # to 2: a numerical failure, reported without a traceback
        scales = schur_weyl.log_block_probs_iid
        monkeypatch.setattr(schur_weyl, "log_block_probs_iid", lambda labels, spec: scales(labels, spec) + math.log(2))
        atoms = [{"weight": 0.75, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                 {"weight": 0.25, "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}]
        path = tmp_path / "noncommuting.json"
        path.write_text(json.dumps({"d": 2, "atoms": atoms}))
        assert cli.main(["error", "--n", "3", "--schedule", "--source", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a probability" in err and "Traceback" not in err

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(config, pool):
            raise cli.NumericalFailure("testing")

        monkeypatch.setitem(cli.COMMANDS, "dims", boom)
        assert cli.main(["dims", "--n", "3"]) == 3

    def test_bounds_solver_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(bounds, "MAX_ITERATIONS", 1)  # the interior point cannot converge in one step
        assert cli.main(["bounds", "--n", "40000", "--d", "3", "--schedule", "--rate", "1.05",
                         "--spectrum", "0.6,0.3,0.1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_config_round_trip(self):
        argv = ["overflow", "--n", "100", "--schedule", "--spectrum", "0.7,0.3",
                "--rate", "0.7", "--format", "json", "--seed", "5"]
        config = cli.config_from_args(cli.parse_args(argv))
        text = cli.run(config)
        doc = json.loads(text)
        parsed = cli.ExperimentConfig.from_dict(doc["config"])
        assert parsed == config

    def test_version_and_seed_embedded(self):
        text = run_text(["exponent", "--rate", "0.65", "--spectrum", "0.7,0.3",
                         "--format", "json", "--seed", "9"])
        doc = json.loads(text)
        assert doc["seed"] == 9
        assert doc["version"]


class TestEmission:
    def test_empty_results_guarded(self, tmp_path):
        config = cli.ExperimentConfig(command="dims", n=3)
        with pytest.raises(cli.NumericalFailure):
            cli.emit([], config)

    def test_no_file_on_error(self, tmp_path, capsys):
        out = tmp_path / "sub" / "missing.csv"
        code = cli.main(["dims", "--n", "3", "--output", str(out)])
        assert code == 1
        assert not out.exists()

    def test_csv_row_count(self):
        text = run_text(["dims", "--n", "5", "--d", "2"])
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(json.loads(
            run_text(["dims", "--n", "5", "--d", "2", "--format", "json"]))["results"])

    def test_writes_file(self, tmp_path):
        out = tmp_path / "result.json"
        code = cli.main(["dims", "--n", "3", "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]


class TestCommands:
    def test_distribution_normalized(self):
        doc = json.loads(run_text(["distribution", "--n", "6", "--delta", "0.3",
                                   "--spectrum", "0.7,0.3", "--format", "json"]))
        total = sum(r["probability"] for r in doc["results"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_one_level_code(self):
        # d = 1: one label, one outcome (n), one grid cell; nothing to send and no error
        from qvlcode import codec

        code = codec.build_code(codec.CodeParams(n=7, d=1, delta=7 ** -0.25))
        assert code.outcomes == ((7,),) and dict(code.blocks) == {(7,): ((7,),)}
        base = ["--n", "7", "--d", "1", "--schedule", "--spectrum", "1", "--format", "json"]
        (row,) = json.loads(run_text(["distribution", *base]))["results"]
        assert (row["outcome"], row["probability"], row["coding_length_nats"], row["error_contribution"]) \
            == ("7", 1.0, 0.0, 0.0)
        (row,) = json.loads(run_text(["error", *base]))["results"]
        assert row["error"] == 0.0
        (row,) = json.loads(run_text(["overflow", *base, "--rate", "0.5"]))["results"]
        assert row["overflow_probability"] == 0.0

    def test_error_matches_library(self):
        from qvlcode import codec
        from qvlcode.linalg import basis_source

        doc = json.loads(run_text(["error", "--n", "8", "--schedule",
                                   "--spectrum", "0.75,0.25", "--format", "json"]))
        code = codec.build_code(codec.CodeParams(n=8, d=2, delta=8 ** -0.25))
        expected = codec.average_error_exact(code, basis_source(2, (0.75, 0.25)))
        assert doc["results"][0]["error"] == pytest.approx(expected, rel=1e-12)

    def test_error_source_file(self, tmp_path):
        src_file = tmp_path / "source.json"
        src_file.write_text(json.dumps({
            "d": 2,
            "atoms": [
                {"weight": 0.75, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"weight": 0.25, "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]},
            ],
        }))
        doc = json.loads(run_text(["error", "--n", "4", "--delta", "0.3",
                                   "--source", str(src_file), "--format", "json"]))
        assert 0.0 <= doc["results"][0]["error"] <= 1.0

    def test_monte_carlo_reports_stderr(self):
        doc = json.loads(run_text(["error", "--n", "5", "--delta", "0.3",
                                   "--spectrum", "0.75,0.25", "--samples", "50",
                                   "--format", "json"]))
        row = doc["results"][0]
        assert row["method"] == "monte-carlo"
        assert row["stderr"] is not None and row["stderr"] >= 0

    def test_overflow_row(self):
        doc = json.loads(run_text(["overflow", "--n", "60", "--schedule",
                                   "--spectrum", "0.7,0.3", "--rate", "0.68",
                                   "--format", "json"]))
        row = doc["results"][0]
        assert 0.0 <= row["overflow_probability"] <= 1.0

    def test_exponent_row(self):
        doc = json.loads(run_text(["exponent", "--rate", "0.673012",
                                   "--spectrum", "0.7,0.3", "--format", "json"]))
        assert doc["results"][0]["exponent"] == pytest.approx(0.022582, abs=1e-5)

    def test_exponent_row_qudit(self):
        row = json.loads(run_text(["exponent", "--rate", "1.05", "--spectrum", "0.6,0.3,0.1",
                                   "--format", "json"]))["results"][0]
        assert row["method"] == "closed-form"
        assert row["exponent"] == info.optimal_overflow_exponent(1.05, (0.6, 0.3, 0.1))

    def test_lemma_l1_trend(self):
        doc = json.loads(run_text(["lemma-l1", "--spectrum", "0.75,0.25",
                                   "--n-grid", "50:150:50", "--format", "json"]))
        rows = doc["results"]
        assert [r["n"] for r in rows] == [50, 100, 150]
        assert all(r["floor_constant"] == pytest.approx(0.26322, abs=1e-5) for r in rows)
        assert all(r["error"] >= r["floor_constant"] - 0.02 for r in rows)

    def test_lemma_l2_satisfied(self):
        doc = json.loads(run_text(["lemma-l2", "--spectrum", "0.75,0.25",
                                   "--n-grid", "50,100", "--format", "json"]))
        assert all(r["satisfied"] for r in doc["results"])

    def test_sec6_gap_row(self):
        doc = json.loads(run_text(["sec6-gap", "--t1", "0.2", "--t0", "0.3",
                                   "--dtheta", str(math.pi / 6), "--format", "json"]))
        row = doc["results"][0]
        assert row["gap"] == pytest.approx(0.1270947, abs=1e-6)
        assert row["ceiling"] > row["achievable_exponent"]

    def test_fixed_length_row(self):
        doc = json.loads(run_text(["fixed-length", "--n", "6", "--delta", "0.2",
                                   "--rate", "0.8", "--spectrum", "0.75,0.25",
                                   "--format", "json"]))
        row = doc["results"][0]
        assert row["error_fixed"] - row["error_variable"] <= row["overflow"] + 1e-9

    def test_bounds_rows(self):
        doc = json.loads(run_text(["bounds", "--n", "100", "--schedule",
                                   "--rate", "0.76", "--spectrum", "0.7,0.3",
                                   "--format", "json"]))
        names = {r["bound"] for r in doc["results"]}
        assert {"error", "error-overlap2", "error-restricted", "overflow-exponent"} <= names


    def test_bounds_method_names_the_route(self):
        # the d = 2 floors are interval formulas, d >= 3 floors a convex program
        for d, spectrum, spectrum_set in ((2, "0.7,0.3", "0.6,0.4"), (3, "0.6,0.3,0.1", "0.5,0.3,0.2")):
            doc = json.loads(run_text(["bounds", "--n", "40000", "--d", str(d), "--schedule", "--rate", "0.68",
                                       "--spectrum", spectrum, "--spectrum-set", spectrum_set,
                                       "--format", "json"]))
            methods = {r["bound"]: r["method"] for r in doc["results"]}
            floor = "closed-form" if d == 2 else "convex-program"
            assert methods == {"error": "closed-form", "error-overlap2": "closed-form",
                               "error-restricted": "closed-form", "overflow-exponent": floor,
                               "overflow-exponent-restricted": floor}

    def test_bounds_spectrum_with_a_zero_entry(self, capsys):
        # q' is held on supp(p): a finite floor below the exponent, and an
        # unreachable rate gives inf rather than a solver failure
        argv = ["bounds", "--n", "40000", "--d", "3", "--schedule", "--spectrum", "0.7,0.3,0", "--format", "json"]
        assert cli.main(["exponent", "--rate", "0.65", "--spectrum", "0.7,0.3,0", "--format", "json"]) == 0
        exponent = json.loads(capsys.readouterr().out)["results"][0]["exponent"]
        assert exponent == pytest.approx(0.0067767, abs=1e-7)
        for rate, finite in (("0.65", True), ("1.09", False)):
            assert cli.main(argv + ["--rate", rate]) == 0
            values = {r["bound"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
            floor = values["overflow-exponent"]
            if finite:
                assert math.isfinite(floor) and floor <= exponent + 1e-9
            else:
                assert floor == math.inf

    @pytest.mark.parametrize("radii, bound, value", [
        (["--delta", "1e-9"], "overflow-exponent", 0.0167969431811),
        (["--delta", "0.005", "--delta1", "1e-9", "--spectrum-set", "0.5,0.3,0.2"],
         "overflow-exponent-restricted", 0.0371648905334),
        (["--delta", "0.005", "--delta1", "0", "--spectrum-set", "0.5,0.3,0.2"],
         "overflow-exponent-restricted", 0.0371648911420),
    ])
    def test_bounds_tiny_slack_and_radius(self, radii, bound, value, capsys):
        # a slack or anchor radius far below the spectrum's scale is still a
        # convex program with an answer: the values SLSQP gave
        argv = ["bounds", "--n", "40000", "--d", "3", "--rate", "1.0", "--spectrum", "0.6,0.3,0.1", "--format", "json"]
        assert cli.main(argv + radii) == 0
        values = {r["bound"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
        assert values[bound] == pytest.approx(value, abs=1e-9)

    def test_bounds_anchor_ball_apart_from_the_support_face(self, capsys, monkeypatch):
        # the anchor's ball and the face's slack neighbourhood each reach the
        # rate but do not meet: inf by the closed form, with no solver call
        monkeypatch.setattr(bounds, "_interior_point", lambda *args, **kwargs: pytest.fail("solver called"))
        argv = ["bounds", "--n", "40000", "--d", "3", "--delta", "0.005", "--delta1", "0.004", "--rate", "0.6",
                "--spectrum", "0.5,0.5,0", "--spectrum-set", "0.2,0.3,0.5", "--format", "json"]
        assert cli.main(argv) == 0
        values = {r["bound"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
        assert values["overflow-exponent-restricted"] == math.inf


class TestBoundsAtScale:
    """The ceilings are closed forms: no lattice enumeration at any n."""

    SPECTRA = {3: "0.6,0.3,0.1", 4: "0.4,0.3,0.2,0.1", 5: "0.3,0.25,0.2,0.15,0.1"}

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_million_copies_quickly(self, d, capsys):
        start = time.perf_counter()
        assert cli.main(["bounds", "--n", "1000000", "--d", str(d), "--schedule", "--rate", "1.0",
                         "--spectrum", self.SPECTRA[d], "--format", "json"]) == 0
        assert time.perf_counter() - start < 2.0
        values = {r["bound"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
        assert 0.0 < values["error"] <= values["error-overlap2"] < 1.0

    def test_d3_past_the_enumeration_stall(self, capsys):
        # lattice counts by formula: the radius-n*delta ball at n = 1e5 holds about 5.7e7 points
        for n in ("40000", "100000"):
            assert cli.main(["bounds", "--n", n, "--d", "3", "--schedule", "--rate", "1.0",
                             "--spectrum", self.SPECTRA[3], "--format", "json"]) == 0
            values = {r["bound"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
            assert 0.0 < values["error"] < 1.0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["lemma-l2", "--spectrum", "0.75,0.25", "--n-grid", "50,100", "--format", "json"],
        ["error", "--n", "5", "--delta", "0.3", "--spectrum", "0.75,0.25",
         "--samples", "40", "--seed", "7", "--format", "json"],
        ["distribution", "--n", "8", "--schedule", "--spectrum", "0.7,0.3"],
        ["overflow", "--n", "12", "--d", "3", "--schedule", "--spectrum", "0.5,0.3,0.2", "--rate", "0.9"],
        ["error", "--n", "40", "--schedule", "--source", "SOURCE", "--format", "json"],
        ["distribution", "--n", "12", "--schedule", "--source", "SOURCE"],
    ])
    def test_byte_identical_across_thread_counts(self, argv, tmp_path):
        argv = [noncommuting_qubit_file(tmp_path) if a == "SOURCE" else a for a in argv]
        outputs = {
            threads: run_text(argv + ["--threads", str(threads)])
            for threads in (1, 4, 8)
        }
        assert outputs[1] == outputs[4] == outputs[8]

    def test_seed_changes_monte_carlo(self):
        base = ["error", "--n", "5", "--delta", "0.3", "--spectrum", "0.75,0.25",
                "--samples", "40", "--format", "json"]
        a = run_text(base + ["--seed", "1"])
        b = run_text(base + ["--seed", "2"])
        assert a != b


class TestLargeQubit:
    """The d = 2 routes at n above 1029, where float binomials overflow."""

    @staticmethod
    def main_json(argv, capsys):
        assert cli.main(argv + ["--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    def test_distribution_and_error(self, capsys):
        basis = ["--schedule", "--spectrum", "0.7,0.3"]
        for n in (1030, 1100):
            rows = self.main_json(["distribution", "--n", str(n), *basis], capsys)
            (error,) = self.main_json(["error", "--n", str(n), *basis], capsys)
            assert math.fsum(r["probability"] for r in rows) == pytest.approx(1.0, abs=1e-9)
            contrib = math.fsum(r["error_contribution"] for r in rows)
            assert contrib == pytest.approx(error["error"], abs=1e-9)
            assert 0.0 < error["error"] < 1.0

    def test_three_atom_commuting_source(self, tmp_path, capsys):
        atoms = [{"weight": w, "matrix": [[[q, 0], [0, 0]], [[0, 0], [1 - q, 0]]]}
                 for w, q in ((0.3, 0.2), (0.3, 0.5), (0.4, 0.9))]
        path = tmp_path / "atoms3.json"
        path.write_text(json.dumps({"d": 2, "atoms": atoms}))
        (row,) = self.main_json(["error", "--n", "1100", "--schedule", "--source", str(path)], capsys)
        assert 0.0 < row["error"] < 1.0

    def test_three_atoms_exact_past_the_total_type_count(self, tmp_path, capsys):
        # C(1502, 2) = 1,127,251 atom types exceed MAX_ATOM_TYPES, but only
        # 80,564 carry weight: the cap counts those, so the row stays exact
        atoms = [{"weight": w, "matrix": [[[q, 0], [0, 0]], [[0, 0], [1 - q, 0]]]}
                 for w, q in ((0.3, 0.2), (0.3, 0.5), (0.4, 0.9))]
        path = tmp_path / "atoms3.json"
        path.write_text(json.dumps({"d": 2, "atoms": atoms}))
        (row,) = self.main_json(["error", "--n", "1500", "--schedule", "--source", str(path)], capsys)
        assert row["method"] == "exact" and row["stderr"] is None
        assert 0.0 < row["error"] < 1.0


def test_qubit_error_does_not_import_scipy_stats():
    # the qudit overflow route imports neither scipy.stats nor mpmath
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    script = ("import sys\n"
              f"sys.path.insert(0, {package_root!r})\n"
              "from qvlcode import cli\n"
              "assert cli.main(['error', '--n', '250', '--schedule', '--spectrum', '0.7,0.3']) == 0\n"
              "assert 'scipy.stats' not in sys.modules\n"
              "assert cli.main(['overflow', '--n', '12', '--d', '3', '--schedule', '--spectrum', '0.5,0.3,0.2',"
              " '--rate', '0.9']) == 0\n"
              "assert 'scipy.stats' not in sys.modules and 'mpmath' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def run_fresh(script: str) -> None:
    """Run ``script`` in a new interpreter that imports this package."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", f"import sys\nsys.path.insert(0, {package_root!r})\n" + script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_starts_without_scipy():
    run_fresh("import qvlcode.cli\nassert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], sys.modules\n")


def test_cli_starts_without_argparse():
    run_fresh("import qvlcode.cli\nassert not {'argparse', 'gettext'} & set(sys.modules), sorted(sys.modules)\n")


def test_operations_import_nothing_after_start(tmp_path):
    # each command runs in the process that imported qvlcode.cli, as in a
    # forked worker; none leaves a module to import on its first call
    atoms = [{"weight": 0.6, "matrix": [[[0.7, 0], [0.2, 0]], [[0.2, 0], [0.3, 0]]]},
             {"weight": 0.4, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps({"d": 2, "atoms": atoms}))
    argvs = [["error", "--n", "5", "--schedule", "--source", str(path)],
             ["error", "--n", "5", "--schedule", "--source", str(path), "--samples", "20", "--seed", "3"],
             ["exponent", "--rate", "0.9", "--spectrum", "0.6,0.3,0.1"],
             ["bounds", "--n", "40000", "--d", "3", "--schedule", "--rate", "1.05", "--spectrum", "0.6,0.3,0.1",
              "--spectrum-set", "0.5,0.3,0.2"],
             ["overflow", "--n", "250", "--schedule", "--spectrum", "0.7,0.3", "--rate", "0.5"],
             ["overflow", "--n", "12", "--d", "3", "--schedule", "--spectrum", "0.5,0.3,0.2", "--rate", "0.9"],
             ["distribution", "--n", "20", "--schedule", "--spectrum", "0.7,0.3"],
             ["fixed-length", "--n", "20", "--schedule", "--spectrum", "0.7,0.3", "--rate", "0.5"],
             ["decompose-check", "--n", "4", "--d", "2"],
             ["dims", "--n", "4", "--d", "3", "--threads", "2"]]
    run_fresh("from qvlcode import cli\n"
              "loaded = set(sys.modules)\n"
              f"for argv in {argvs!r}:\n"
              "    assert cli.main(argv) == 0\n"
              "    assert set(sys.modules) == loaded, (argv, sorted(set(sys.modules) - loaded))\n")
