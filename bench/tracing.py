"""In-memory spans around the public functions of each qvlcode layer.

``Tracer.install`` wraps the functions named in ``TARGETS`` wherever a
qvlcode module holds them, so calls between modules pass through the
wrappers.  Coarse functions record one span each (name, start, end,
parent span); functions called per label or per outcome, hundreds of
thousands of times in one command, add their calls and time to a
roll-up on the enclosing span instead, which keeps the trace small.
Only the outermost call of a group adds time, so a group's time is the
time spent inside it (``dim_block`` calls ``dim_sym_group``, say).  Nothing is
written until ``export``.  The server installs a tracer only in the
forked child of a traced operation, so untimed state never leaks into
the timed runs.
"""

from __future__ import annotations

import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

SPAN, ROLLUP = "span", "rollup"

# (module, attribute, group, mode)
TARGETS = [
    ("young", "dim_block", "young.dim", ROLLUP),
    ("young", "dim_sym_group", "young.dim", ROLLUP),
    ("young", "dim_unitary_group", "young.dim", ROLLUP),
    ("young", "log_dim_sym_group", "young.dim", ROLLUP),
    ("young", "log_schur_two_rows", "young.schur", ROLLUP),
    ("young", "schur_poly", "young.schur", ROLLUP),
    ("young", "kostka", "young.kostka", ROLLUP),
    ("codec", "build_code", "codec.build_code", SPAN),
    ("codec", "log_outcome_distribution", "codec.log_outcome_distribution", SPAN),
    ("codec", "cluster_expectations", "codec.cluster_expectations", SPAN),
    ("codec", "average_error_definitional", "codec.definitional", SPAN),
    ("codec", "average_error_prime", "codec.prime", SPAN),
    ("schur_weyl", "young_projectors", "schur_weyl.young_projectors", SPAN),
    ("linalg", "psd_sqrt", "linalg.psd_sqrt", ROLLUP),
    ("linalg", "fidelity", "linalg.fidelity", ROLLUP),
    ("linalg", "partial_trace", "linalg.partial_trace", ROLLUP),
    ("info", "optimal_overflow_exponent", "info.optimal_overflow_exponent", SPAN),
    ("bounds", "overflow_exponent_floor", "bounds.overflow_exponent_floor", SPAN),
    ("bounds", "restricted_overflow_exponent_floor", "bounds.overflow_exponent_floor", SPAN),
    ("bounds", "error_ceiling", "bounds.error_ceiling", SPAN),
    ("bounds", "error_ceiling_bures", "bounds.error_ceiling", SPAN),
    ("bounds", "error_ceiling_overlap2", "bounds.error_ceiling", SPAN),
    ("bounds", "restricted_error_ceiling", "bounds.error_ceiling", SPAN),
    ("cli", "emit", "cli.emit", SPAN),
]

# per-layer metric -> (unit, how it is read from one operation's trace)
METRICS = {
    "young.dim_s": ("s", ("time", "young.dim")),
    "young.schur_s": ("s", ("time", "young.schur")),
    "young.kostka_calls": ("count", ("calls", "young.kostka")),
    "codec.build_code_s": ("s", ("time", "codec.build_code")),
    "codec.block_memberships": ("count", ("count", "block_memberships")),
    "codec.outcomes": ("count", ("count", "outcomes")),
    "codec.log_outcome_distribution_s": ("s", ("time", "codec.log_outcome_distribution")),
    "codec.coding_length_s": ("s", ("time", "codec.coding_length")),
    "codec.cluster_expectations_s": ("s", ("time", "codec.cluster_expectations")),
    "codec.compositions": ("count", ("count", "compositions")),
    "codec.sequences": ("count", ("count", "sequences")),
    "codec.definitional_s": ("s", ("time", "codec.definitional")),
    "codec.prime_s": ("s", ("time", "codec.prime")),
    "codec.mc_samples": ("count", ("count", "mc_samples")),
    "schur_weyl.young_projectors_s": ("s", ("time", "schur_weyl.young_projectors")),
    "schur_weyl.young_projectors_peak_mb": ("MB", ("peak", "young_projectors_mb")),
    "schur_weyl.permutations": ("count", ("count", "permutations")),
    "linalg.psd_sqrt_s": ("s", ("time", "linalg.psd_sqrt")),
    "linalg.fidelity_s": ("s", ("time", "linalg.fidelity")),
    "linalg.partial_trace_s": ("s", ("time", "linalg.partial_trace")),
    "linalg.fidelity_calls": ("count", ("calls", "linalg.fidelity")),
    "info.optimal_overflow_exponent_s": ("s", ("time", "info.optimal_overflow_exponent")),
    "bounds.overflow_exponent_floor_s": ("s", ("time", "bounds.overflow_exponent_floor")),
    "bounds.error_ceiling_s": ("s", ("time", "bounds.error_ceiling")),
    "cli.emit_s": ("s", ("time", "cli.emit")),
    "cli.rows": ("count", ("count", "rows")),
}


COUNTED = {"codec.build_code", "codec.cluster_expectations", "codec.definitional", "codec.prime",
           "schur_weyl.young_projectors", "cli.emit"}


class Tracer:
    """Spans, roll-ups and counts of one operation, on a pausable clock.

    ``now`` excludes the time spent measuring memory peaks in forked
    probes, so spans and the operation's elapsed time carry no cost of
    the probe itself.
    """

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, outermost]
        self.stack: list[int] = [0]  # 0 is the operation's root span
        self.rollups: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.depth: dict[str, list] = defaultdict(lambda: [0])
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.projector_shapes: set = set()
        self.commuting = False  # the route the last cluster_expectations call took
        self.paused = 0.0
        self.origin = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.paused - self.origin

    # --- wrapping ------------------------------------------------------------

    def wrap(self, fn, group: str, mode: str, name: str):
        tracer, depth, now = self, self.depth[group], self.now
        counted = group in COUNTED
        probe = self.probe_peak if group == "schur_weyl.young_projectors" else None

        def rollup(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                roll = tracer.rollups[(tracer.stack[-1], group)]
                roll[0] += 1
                roll[1] += now() - t0
                depth[0] = 0

        def span(*args, **kwargs):
            if probe is not None:
                probe(fn, args, kwargs)
            sid = len(tracer.spans) + 1
            record = [sid, tracer.stack[-1], name, now(), 0.0, depth[0] == 0]
            tracer.spans.append(record)
            tracer.stack.append(sid)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                tracer.stack.pop()
                record[4] = now()
            if counted:
                tracer.count(group, args, kwargs, result)
            return result

        return span if mode == SPAN else rollup

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("qvlcode") and m]
        for mod_name, attr, group, mode in TARGETS:
            raw = getattr(sys.modules.get(f"qvlcode.{mod_name}"), attr, None)
            if raw is None:
                continue
            wrapper = self.wrap(raw, group, mode, f"{mod_name}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)
        codec = sys.modules.get("qvlcode.codec")
        method = getattr(getattr(codec, "VLCode", None), "coding_length", None)
        if method is not None:
            codec.VLCode.coding_length = self.wrap(method, "codec.coding_length", ROLLUP,
                                                   "codec.VLCode.coding_length")
        diag = getattr(codec, "_commuting_diag", None)
        if diag is not None:
            def commuting_diag(source):
                result = diag(source)
                self.commuting = result is not None
                return result

            codec._commuting_diag = commuting_diag
        cli = sys.modules.get("qvlcode.cli")
        for name, fn in list(getattr(cli, "COMMANDS", {}).items()):
            cli.COMMANDS[name] = self.wrap(fn, f"cli.{name}", SPAN, f"cli.{name}")

    def probe_peak(self, fn, args, kwargs) -> None:
        """Run the call once more in a forked copy of this process under
        tracemalloc and keep its allocation peak; the clock is paused, as
        tracemalloc slows the allocations it records several times over."""
        t0 = time.perf_counter()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rfd)
            peak = -1
            try:
                tracemalloc.start()
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                os.write(wfd, str(peak).encode())
                os._exit(0)
        os.close(wfd)
        with os.fdopen(rfd) as fh:
            peak = int(fh.read() or -1)
        os.waitpid(pid, 0)
        self.peaks["young_projectors_mb"] = max(self.peaks["young_projectors_mb"], peak / 2**20)
        self.paused += time.perf_counter() - t0

    # --- work counts at the layer boundaries --------------------------------------

    def count(self, group: str, args, kwargs, result) -> None:
        c = self.counts
        if group == "codec.build_code":
            c["outcomes"] += len(result.outcomes)
            c["block_memberships"] += sum(len(v) for v in result.blocks.values())
        elif group in ("codec.cluster_expectations", "codec.definitional", "codec.prime"):
            code, source = args[0], args[1]
            n, m = code.n, len(source.weights)
            samples = kwargs.get("samples")
            if group != "codec.cluster_expectations":
                c["sequences"] += m**n
            elif samples is not None:
                c["mc_samples"] += samples
            elif self.commuting:
                c["compositions"] += math.comb(n + m - 1, m - 1)
            else:
                c["sequences"] += m**n
        elif group == "schur_weyl.young_projectors":
            key = (args[0], args[1])
            if key not in self.projector_shapes:
                self.projector_shapes.add(key)
                c["permutations"] += math.factorial(args[0])
        elif group == "cli.emit":
            c["rows"] += len(args[0])

    # --- export ------------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "rollups": [[parent, group, calls, secs] for (parent, group), (calls, secs) in self.rollups.items()],
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }


def group_of(name: str) -> str:
    for mod_name, attr, group, _ in TARGETS:
        if name == f"{mod_name}.{attr}":
            return group
    return name


def op_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    times: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    for _, _, name, start, end, outermost in trace["spans"]:
        group = group_of(name)
        calls[group] += 1
        if outermost:
            times[group] += end - start
    for _, group, n_calls, secs in trace["rollups"]:
        calls[group] += n_calls
        times[group] += secs
    out = {}
    for metric, (_, (kind, key)) in METRICS.items():
        source = {"time": times, "calls": calls, "count": trace["counts"], "peak": trace["peaks"]}[kind]
        out[metric] = float(source.get(key, 0.0))
    return out
