"""Benchmark command: time one workload of qvlcode command lines.

    python3 bench/run.py --workload qubit --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  Each operation is one ``qvlcode.cli.main`` call with the argv a
user would type, run by ``bench/server.py`` in a freshly forked child of
a process that has imported ``qvlcode.cli`` and nothing else, so every
operation starts with cold caches.  Rounds of the workload's operations
repeat until ``--seconds`` have passed; a round is never cut short.

Untraced (``--trace 0``) end-to-end metrics:
  run_s        wall time of one round: the sum over operations of each
               operation's median over rounds
  setup_s      median of five interpreter starts plus ``import qvlcode.cli``
  peak_rss_mb  largest peak resident set of any operation's process
Traced (``--trace 1``): the per-layer metrics of ``tracing.METRICS``, per
round (median over rounds), the fitted ``n_exp`` scaling exponents and
``trace.run_s``, the traced twin of ``run_s`` (their difference is the
tracing overhead).  Spans are written to ``.bench_out/`` at the end.

Every output is checked (see ``workloads`` and ``checks``); an operation
that exits non-zero fails its round too.  The command exits 1 after
printing its result if any check fails, and 2 without a result if the
program cannot be run.

The command ends within ``LIMIT_S`` seconds: a new round starts only if a
round as long as the last one still fits, and an operation running past
``OP_TIMEOUT_S`` (or past the limit) is killed and fails.  A slower
program thus reports fewer rounds; a hung one fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
LIMIT_S = 165.0
OP_TIMEOUT_S = 60  # the slowest operation takes about 4 s, with the traced memory probe about 17 s
FITS = (workloads.FIT_LOG_OUTCOME, workloads.FIT_CLUSTER)


class BenchError(RuntimeError):
    """The program could not be run to a result."""


class Server:
    """One ``bench/server.py`` process; see its docstring for the protocol."""

    def __init__(self, deadline: float):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env.update(PYTHONPATH=src, BENCH_SRC=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "server.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self._read()
        self.startup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        remaining = self.deadline + 5.0 - time.perf_counter()  # the child's alarm fires first
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise BenchError("the operation server stopped or ran past the deadline")
        return json.loads(line)

    def request(self, argv: list[str], trace: bool) -> dict:
        timeout = max(1, min(OP_TIMEOUT_S, math.ceil(self.deadline - time.perf_counter())))
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Stop the server, then anything left in its process group (a
        memory probe of a killed operation, say)."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def run_round(server: Server, work: workloads.Workload, trace: bool) -> dict:
    results = {op.key: server.request(op.argv, trace) for op in work.ops}
    rows, failed, problems = {}, 0, []
    for op in work.ops:
        res = results[op.key]
        if res["rc"] != 0:
            failed += 1
            problems.append(f"operation {op.key} exited {res['rc']}: {res['stderr'].strip()[-300:]}")
        else:
            rows[op.key] = checks.parse_csv(res["stdout"])
    for check in work.checks:
        if all(k in rows for k in check.keys):
            try:
                problems += check(rows)
            except (KeyError, ValueError, IndexError) as exc:
                problems.append(f"unreadable output of {', '.join(check.keys)}: {exc!r}")
    return {"results": results, "failed": failed, "problems": problems}


def layer_metrics(work: workloads.Workload, rounds: list[dict]) -> dict[str, tuple[float, str]]:
    per_round = []
    for rnd in rounds:
        total = dict.fromkeys(tracing.METRICS, 0.0)
        peak = 0.0
        for op in work.ops:
            if rnd["results"][op.key]["trace"] is None:
                continue
            m = tracing.op_metrics(rnd["results"][op.key]["trace"])
            peak = max(peak, m.pop("schur_weyl.young_projectors_peak_mb"))
            for key, value in m.items():
                total[key] += value
        total["schur_weyl.young_projectors_peak_mb"] = peak
        total["trace.run_s"] = sum(r["elapsed"] for r in rnd["results"].values())
        per_round.append(total)
    out = {key: (statistics.median(r[key] for r in per_round), unit)
           for key, (unit, _) in tracing.METRICS.items()}
    out["trace.run_s"] = (statistics.median(r["trace.run_s"] for r in per_round), "s")
    for layer in FITS:
        out[layer + ".n_exp"] = (fit_exponent(work, rounds, layer), "1")
    return out


def fit_exponent(work: workloads.Workload, rounds: list[dict], layer: str) -> float:
    """Least-squares slope of log(time in the layer) against log n over the
    workload's ladder operations; 0 when the workload has no such ladder."""
    points = []
    for op in work.ops:
        traces = [r["results"][op.key]["trace"] for r in rounds]
        if op.fit == layer and all(traces):
            secs = statistics.median(tracing.op_metrics(t)[layer + "_s"] for t in traces)
            if secs > 0:
                points.append((math.log(op.n), math.log(secs)))
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def write_trace(name: str, seed: int, work: workloads.Workload, rounds: list[dict]) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    doc = [{"round": i, "op": op.key, "argv": op.argv, "elapsed": rnd["results"][op.key]["elapsed"],
            **(rnd["results"][op.key]["trace"] or {})}
           for i, rnd in enumerate(rounds) for op in work.ops]
    path.write_text(json.dumps(doc))
    return path


def measure_setup(deadline: float) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        server = Server(deadline)
        samples.append(server.startup_s)
        server.close()
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + LIMIT_S
    if not (ROOT / "src" / "qvlcode" / "cli.py").is_file():
        print(f"no qvlcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed)
    for rel, text in work.files.items():
        (ROOT / rel).parent.mkdir(parents=True, exist_ok=True)
        (ROOT / rel).write_text(text)
    server = None
    try:
        server = Server(deadline)  # first start also compiles the bytecode caches
        setup_s = None if args.trace else measure_setup(deadline)
        rounds, round_s = [], 0.0
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start < args.seconds
                             and time.perf_counter() + round_s < deadline):
            t0 = time.perf_counter()
            rounds.append(run_round(server, work, bool(args.trace)))
            round_s = time.perf_counter() - t0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)

    problems = [p for rnd in rounds for p in rnd["problems"]]
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        metrics = layer_metrics(work, rounds)
        print(f"spans written to {write_trace(args.workload, args.seed, work, rounds).relative_to(ROOT)}")
    else:
        metrics = {
            "run_s": (sum(statistics.median(rnd["results"][op.key]["elapsed"] for rnd in rounds)
                          for op in work.ops), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(r["maxrss_kb"] for rnd in rounds for r in rnd["results"].values()) / 1024, "MB"),
        }
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of {len(work.ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(work.ops),
        "failed": sum(rnd["failed"] for rnd in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
