"""An operation that exits non-zero fails the run, as a failed check does."""

import json

import pytest

import checks
import run
import workloads


class FakeServer:
    """Answers every request as ``bench/server.py`` would for a command
    that printed one error row and exited with ``rc``."""

    startup_s = 0.5

    def __init__(self, rc: int, error: float = 0.25):
        self.rc, self.error = rc, error

    def request(self, argv, trace):
        stdout = f"error\n{self.error!r}\n" if self.rc == 0 else ""
        return {"rc": self.rc, "stdout": stdout, "stderr": "Traceback: OverflowError" if self.rc else "",
                "elapsed": 0.1, "maxrss_kb": 2048, "trace": None}

    def close(self):
        pass


def one_error_op() -> workloads.Workload:
    work = workloads.Workload()
    key = work.add("error-n4", ["error", "--n", 4, "--spectrum", "0.7,0.3"])
    work.check([key], lambda rows: checks.error(rows, "error n=4"))
    return work


@pytest.mark.parametrize("rc, error, failed, ok", [(0, 0.25, 0, True), (1, 0.25, 1, False), (124, 0.25, 1, False),
                                                   (0, 1.5, 0, False)])
def test_run_round(rc, error, failed, ok):
    out = run.run_round(FakeServer(rc, error), one_error_op(), trace=False)
    assert out["failed"] == failed
    assert (out["problems"] == []) is ok


@pytest.mark.parametrize("rc, exit_code", [(0, 0), (1, 1)])
def test_main_exit_code(monkeypatch, capsys, rc, exit_code):
    monkeypatch.setattr(run, "Server", lambda deadline: FakeServer(rc))
    monkeypatch.setattr(workloads, "build", lambda name, seed: one_error_op())
    assert run.main(["--workload", "qubit", "--seed", "1", "--seconds", "0"]) == exit_code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (rc == 0)
    assert (result["attempted"], result["failed"]) == (1, int(rc != 0))
