import json
import math
import os
import subprocess
import sys
import time

import pytest
from scipy import optimize

from qvlcode import bounds, cli, info


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def run_text(args):
    config = cli.config_from_args(cli.build_parser().parse_args(args))
    threads = cli.build_parser().parse_args(args).threads
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


class TestDecomposeCheck:
    def test_clean_exit(self, capsys):
        assert cli.main(["decompose-check", "--n", "4", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "completeness" in out
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) < 1e-10

    def test_budget_exit_code(self, capsys):
        assert cli.main(["decompose-check", "--n", "13", "--d", "2"]) == 2


class TestMemoryBudget:
    """Commands over the byte budget exit 2 at once, with no traceback."""

    @pytest.mark.parametrize("argv", [
        ["error", "--n", "7", "--d", "3", "--schedule", "--source", "SOURCE"],
        ["overflow", "--n", "1000", "--d", "3", "--schedule", "--spectrum", "0.5,0.3,0.2", "--rate", "0.9"],
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


    def test_atom_type_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # a 3-atom commuting qubit source at n = 20 has 231 atom types
        from qvlcode import codec
        monkeypatch.setattr(codec, "MAX_ATOM_TYPES", 100)
        atoms = [{"weight": w, "matrix": [[[q, 0], [0, 0]], [[0, 0], [1 - q, 0]]]}
                 for w, q in ((0.3, 0.2), (0.3, 0.5), (0.4, 0.9))]
        path = tmp_path / "atoms3.json"
        path.write_text(json.dumps({"d": 2, "atoms": atoms}))
        assert cli.main(["error", "--n", "20", "--schedule", "--source", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "atom types" in err and "Traceback" not in err


class TestConfigHandling:
    def test_missing_required_flag(self, capsys):
        assert cli.main(["dims"]) == 1

    def test_bad_spectrum(self, capsys):
        assert cli.main(["error", "--n", "4", "--delta", "0.2",
                         "--spectrum", "0.9,0.9"]) == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(config, pool):
            raise cli.NumericalFailure("testing")

        monkeypatch.setitem(cli.COMMANDS, "dims", boom)
        assert cli.main(["dims", "--n", "3"]) == 3

    def test_bounds_solver_failure_exit_code(self, monkeypatch, capsys):
        def failing_minimize(*args, **kwargs):
            return optimize.OptimizeResult(x=args[1], fun=0.0, success=False, message="forced failure")

        monkeypatch.setattr(bounds.optimize, "minimize", failing_minimize)
        assert cli.main(["bounds", "--n", "40000", "--d", "3", "--schedule", "--rate", "1.05",
                         "--spectrum", "0.6,0.3,0.1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_config_round_trip(self):
        argv = ["overflow", "--n", "100", "--schedule", "--spectrum", "0.7,0.3",
                "--rate", "0.7", "--format", "json", "--seed", "5"]
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
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
    ])
    def test_byte_identical_across_thread_counts(self, argv):
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
