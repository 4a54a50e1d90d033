"""Run the benchmark on a parent commit and on this checkout in pairs, and
write the comparison as ``BENCH_<pr>.json``.

    git archive <commit> | tar -x -C <dir>
    python3 tools/bench_pairs.py --parent <commit> --parent-dir <dir> --pr <number> \\
        --workload qubit --workload dense-qudit --seeds 1-10 --seconds 45

For each seed and workload, ``bench/run.py --workload W --seed N --seconds S
--trace 0`` runs once on the parent and once on the change, the parent
first on odd seeds and the change first on even ones, so a drift of the
machine falls on both sides alike.  Then one traced run (``--trace 1``)
per workload and side at seed TRACED_SEED.  The parent is run from
``--parent-dir``, the files of the parent commit (``--parent`` only names
it in the output); the change is this checkout's files as they are.

For each end-to-end metric of ``BENCHMARK.json`` the output gives both
sides' medians and quartiles (numpy's linear 25th and 75th percentiles),
the pairs in which the change is better, the parent's quartile distance
and the relative change of the medians; every run's full result is kept
under ``runs``.  The file is rewritten after each run, so an interrupted
comparison keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACED_SEED = 1


def parse_seeds(text: str) -> list[int]:
    """'1-10' as the list of seeds 1 to 10."""
    lo, hi = (int(v) for v in text.split("-"))
    return list(range(lo, hi + 1))


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of ``bench/run.py``'s output in ``root``, parsed; a run
    that prints no result counts as incorrect with its exit code."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}


def summary(runs: list[dict], workload: str, metric: str, better: str) -> dict | None:
    """Medians, quartiles and pair counts of one metric over the untraced runs."""
    sides = {}
    for side in ("parent", "change"):
        sides[side] = {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs
                       if r["side"] == side and r["workload"] == workload and r["trace"] == 0
                       and metric in r["result"].get("metrics", {})}
    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
    if not seeds:
        return None
    parent = np.array([sides["parent"][s] for s in seeds])
    change = np.array([sides["change"][s] for s in seeds])
    wins = int(((change < parent) if better == "lower" else (change > parent)).sum())
    q_parent, q_change = np.percentile(parent, [25, 75]), np.percentile(change, [25, 75])
    return {
        "pairs": len(seeds),
        "parent_median": round(float(np.median(parent)), 4),
        "parent_quartiles": [round(float(v), 4) for v in q_parent],
        "change_median": round(float(np.median(change)), 4),
        "change_quartiles": [round(float(v), 4) for v in q_change],
        "change_better_pairs": f"{wins}/{len(seeds)}",
        "parent_quartile_distance": round(float(q_parent[1] - q_parent[0]), 4),
        "relative_change": round(float(np.median(change) / np.median(parent) - 1), 4),
    }


def document(args, parent_hash: str, runs: list[dict], metrics: list[dict]) -> dict:
    seeds = parse_seeds(args.seeds)
    doc = {
        "command": "python3 bench/run.py --workload W --seed N --seconds S --trace T",
        "seconds": args.seconds,
        "parent": parent_hash,
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "order": f"seeds {args.seeds} untraced (--trace 0), parent and change alternately, the parent first on "
                 f"odd seeds; then one traced run (seed {TRACED_SEED}) per workload and side. Quartiles are "
                 f"numpy's linear 25th and 75th percentiles over the runs of a side.",
        "every_run_correct_with_0_failed": all(r["result"].get("correct") and r["result"].get("failed") == 0
                                               for r in runs),
        f"summary_seeds_{seeds[0]}_{seeds[-1]}": {
            w: {m["name"]: s for m in metrics if (s := summary(runs, w, m["name"], m["better"])) is not None}
            for w in args.workload},
        f"traced_seed_{TRACED_SEED}": {
            w: {r["side"]: {k: round(v["value"], 4) for k, v in r["result"].get("metrics", {}).items()}
                for r in runs if r["workload"] == w and r["trace"] == 1}
            for w in args.workload},
        "runs": runs,
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--parent-dir", type=Path, required=True, help="the files of the parent commit")
    parser.add_argument("--seeds", default="1-10", help="a range such as '1-10'")
    parser.add_argument("--seconds", type=float, default=45)
    args = parser.parse_args(argv)
    output = ROOT / f"BENCH_{args.pr}.json"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_hash = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
    runs: list[dict] = []
    plan = [(seed, w, 0) for seed in parse_seeds(args.seeds) for w in args.workload]
    plan += [(TRACED_SEED, w, 1) for w in args.workload]
    for seed, workload, trace in plan:
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            result = bench(args.parent_dir if side == "parent" else ROOT, workload, seed, args.seconds, trace)
            runs.append({"side": side, "workload": workload, "seed": seed, "trace": trace, "result": result})
            print(f"{side:6s} {workload:12s} seed {seed:3d} trace {trace}: "
                  f"{json.dumps(result.get('metrics', result))[:200]}", flush=True)
            output.write_text(json.dumps(document(args, parent_hash, runs, metrics), indent=1) + "\n")
    return 0 if document(args, parent_hash, runs, metrics)["every_run_correct_with_0_failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
