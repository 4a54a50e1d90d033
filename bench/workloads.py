"""The workloads: command lines made from a seed, with their checks.

A workload is a list of operations (one ``qvlcode`` command line each)
and a list of checks over their parsed output, built from parts:
``qubit`` from the qubit-overflow and qubit-error parts, ``dense-qudit``
from the dense-nc and qudit-solvers parts.  The seed fixes every
spectrum, source file and rate; the ``n`` ladders are fixed, so the cost
of a round hardly varies with the seed.  Expected values come from
``reference`` (independent of the program) or from properties the
method must have.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import checks
import reference as ref

# Layer functions whose time the traced run fits against n over a ladder.
FIT_LOG_OUTCOME = "codec.log_outcome_distribution"
FIT_CLUSTER = "codec.cluster_expectations"


@dataclass
class Op:
    key: str
    argv: list[str]
    n: int = 0
    fit: str | None = None


@dataclass
class Check:
    """A check over the output rows of the named operations."""

    keys: tuple[str, ...]
    fn: Callable[..., list[str]]

    def __call__(self, rows_by_key: dict) -> list[str]:
        return self.fn(*(rows_by_key[k] for k in self.keys))


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    def add(self, key: str, argv: list, n: int = 0, fit: str | None = None) -> str:
        self.ops.append(Op(key, [str(a) for a in argv] + ["--threads", "1"], n, fit))
        return key

    def check(self, keys, fn) -> None:
        self.checks.append(Check(tuple(keys), fn))


def spec_arg(spec) -> str:
    return ",".join(repr(float(v)) for v in spec)


def rounded(q) -> tuple[float, ...]:
    """q to six decimals, the last entry making the sum 1 (as the CLI requires)."""
    head = [round(float(v), 6) for v in q[:-1]]
    return tuple(head) + (round(1.0 - sum(head), 6),)


def two_level(rng) -> tuple[float, float]:
    p0 = float(rng.uniform(0.62, 0.88))
    return rounded((p0, 1.0 - p0))


def simplex(rng, d: int, floor: float = 0.03, gap: float = 0.02) -> tuple[float, ...]:
    """A descending spectrum with entries >= floor and adjacent gaps >= gap
    (distinct entries keep the bialternant's Vandermonde away from 0)."""
    while True:
        spec = rounded(sorted(rng.dirichlet(2.0 * np.ones(d)), reverse=True))
        diffs = [a - b for a, b in zip(spec, spec[1:])]
        if min(spec) >= floor and min(diffs) >= gap:
            return spec


def source_json(matrices, weights) -> str:
    atoms = [{"weight": float(w), "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
             for w, m in zip(weights, matrices)]
    return json.dumps({"d": int(matrices[0].shape[0]), "atoms": atoms})


def random_state(rng, pure: bool) -> np.ndarray:
    rank = 1 if pure else 2
    a = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2


def rounded_weights(rng, m: int, floor: float = 0.1) -> tuple[float, ...]:
    while True:
        w = rounded(rng.dirichlet(3.0 * np.ones(m)))
        if min(w) >= floor:
            return w


# --- part qubit-overflow ------------------------------------------------------

OVERFLOW_LADDER = (250, 500, 1000, 2000)


def qubit_overflow(rng) -> Workload:
    w = Workload()
    spec = two_level(rng)
    for n in OVERFLOW_LADDER:
        lat = ref.qubit_lattice(n, ref.schedule(n)[0])
        probs = lat.outcome_probs(spec)
        for tag, target in (("bulk", rng.uniform(0.3, 0.7)), ("tail", 10 ** rng.uniform(-9, -6))):
            rate = ref.pick_rate(lat.log_lengths, probs, n, target)
            want = ref.overflow(lat.log_lengths, probs, n, rate)
            key = w.add(f"overflow-n{n}-{tag}", ["overflow", "--n", n, "--schedule", "--spectrum",
                                                 spec_arg(spec), "--rate", repr(rate)],
                        n=n, fit=FIT_LOG_OUTCOME)
            w.check([key], partial(checks.overflow, n=n, rate=rate, want=float(want)))
    return w


# --- part qubit-error ---------------------------------------------------------

ERROR_LADDER = (250, 500, 1000)  # the top rung runs --criterion dprime
ERROR_DETAIL_N = 250
MULTI_ATOM_N = 100
SMALL_N = 4


def _qubit_errors(lat, weights, zero_probs):
    ex = ref.commuting_expectations(lat, weights, zero_probs, (1.0, 1.5, 2.0))
    return {e: 1.0 - float(v.sum()) / lat.c1 for e, v in ex.items()}, ex


def qubit_error(rng) -> Workload:
    w = Workload()
    spec = two_level(rng)
    basis = ["--schedule", "--spectrum", spec_arg(spec)]
    for n in ERROR_LADDER:
        lat = ref.qubit_lattice(n, ref.schedule(n)[0])
        errs, ex = _qubit_errors(lat, spec, (1.0, 0.0))
        if n == ERROR_LADDER[-1]:
            key = w.add(f"dprime-n{n}", ["error", "--n", n, *basis, "--criterion", "dprime"], n=n, fit=FIT_CLUSTER)
            w.check([key], partial(checks.error, what=f"dprime n={n}", want=errs[2.0]))
            continue
        key = w.add(f"error-n{n}", ["error", "--n", n, *basis], n=n, fit=FIT_CLUSTER)
        w.check([key], partial(checks.error, what=f"error n={n}", want=errs[1.5]))
        if n != ERROR_DETAIL_N:
            continue
        probs = ex[1.0] / lat.c1
        contribs = (ex[1.0] - ex[1.5]) / lat.c1
        labels = [f"{k}:{n - k}" for k in lat.k0.tolist()]
        dist = w.add(f"distribution-n{n}", ["distribution", "--n", n, *basis], n=n)
        w.check([dist, key], lambda rows, err_rows, p=probs, c=contribs, ll=lat.log_lengths, lb=labels:
                checks.distribution(rows, lb, p, c, ll, err_rows))
        rate = ref.pick_rate(lat.log_lengths, probs, n, rng.uniform(0.3, 0.7))
        over = np.array([ll / n >= rate for ll in lat.log_lengths])
        fixed = w.add(f"fixed-length-n{n}", ["fixed-length", "--n", n, *basis, "--rate", repr(rate)], n=n)
        w.check([fixed], partial(checks.fixed_length, want_fixed=float(probs[over].sum() + contribs[~over].sum()),
                                 want_variable=float(contribs.sum()), want_overflow=float(probs[over].sum())))
    # a commuting three-atom source: diag(q_j, 1 - q_j) with weight w_j; at
    # the small n the instrument simulation (definitional) meets the closed form
    weights = rounded_weights(rng, 3)
    zero_probs = tuple(sorted(round(float(v), 6) for v in rng.uniform(0.05, 0.95, size=3)))
    path = ".bench_work/commuting3.json"
    w.files[path] = source_json([np.diag([q, 1.0 - q]).astype(complex) for q in zero_probs], weights)
    for n, extra in ((MULTI_ATOM_N, []), (SMALL_N, ["--criterion", "definitional"])):
        errs, _ = _qubit_errors(ref.qubit_lattice(n, ref.schedule(n)[0]), weights, zero_probs)
        key = w.add(f"atoms3-n{n}", ["error", "--n", n, "--schedule", "--source", path, *extra], n=n)
        w.check([key], partial(checks.error, what=f"three-atom error n={n} {' '.join(extra)}", want=errs[1.5]))
    return w


# --- part dense-nc ------------------------------------------------------------

CHAIN_LADDER = (5, 6, 7, 8)
MC_SAMPLES = 2000


def dense_nc(rng) -> Workload:
    w = Workload()
    two = ".bench_work/noncommuting2.json"
    three = ".bench_work/noncommuting3.json"
    p = float(rng.uniform(0.3, 0.7))
    w.files[two] = source_json([random_state(rng, False), random_state(rng, True)], rounded((p, 1 - p)))
    w.files[three] = source_json([random_state(rng, pure) for pure in (True, False, True)],
                                 rounded_weights(rng, 3))

    def error_op(key, path, n, *extra):
        key = w.add(key, ["error", "--n", n, "--schedule", "--source", path, *extra], n=n)
        w.check([key], partial(checks.error, what=key))
        return key

    chains = {n: error_op(f"chain2-n{n}", two, n) for n in CHAIN_LADDER}
    def2 = error_op("definitional2-n5", two, 5, "--criterion", "definitional")
    w.check([def2, chains[5]], partial(checks.same_error, "definitional vs chain, two atoms, n=5"))
    chain3 = error_op("chain3-n5", three, 5)
    def3 = error_op("definitional3-n5", three, 5, "--criterion", "definitional")
    w.check([def3, chain3], partial(checks.same_error, "definitional vs chain, three atoms, n=5"))
    error_op("prime2-n5", two, 5, "--criterion", "prime")
    mc = error_op("monte-carlo2-n5", two, 5, "--samples", MC_SAMPLES, "--seed", int(rng.integers(1 << 30)))
    w.check([mc, chains[5]], partial(checks.monte_carlo, "Monte Carlo n=5"))
    key = w.add("decompose-n6", ["decompose-check", "--n", 6, "--d", 2], n=6)
    w.check([key], checks.decompose)
    return w


# --- part qudit-solvers -------------------------------------------------------

QUDIT_OVERFLOW = ((3, 24), (4, 12), (4, 14))
QUDIT_DISTRIBUTION = (3, 9)
BOUNDS_N = 40000
RATE_FRACTIONS = ((0.15, 0.35), (0.45, 0.65), (0.75, 0.9))


def qudit_solvers(rng) -> Workload:
    w = Workload()
    specs = {d: simplex(rng, d) for d in (3, 4, 5)}
    for d, n in QUDIT_OVERFLOW:
        lat = ref.lattice(n, d, ref.schedule(n)[0])
        probs = lat.outcome_probs(specs[d])
        rate = ref.pick_rate(lat.log_lengths, probs, n, rng.uniform(0.3, 0.7))
        want = ref.overflow(lat.log_lengths, probs, n, rate)
        key = w.add(f"overflow-d{d}-n{n}", ["overflow", "--n", n, "--d", d, "--schedule", "--spectrum",
                                            spec_arg(specs[d]), "--rate", repr(rate)], n=n)
        w.check([key], partial(checks.overflow, n=n, rate=rate, want=float(want)))
    d, n = QUDIT_DISTRIBUTION
    lat = ref.lattice(n, d, ref.schedule(n)[0])
    probs = [float(v) for v in lat.outcome_probs(specs[d])]
    labels = [":".join(str(v) for v in k) for k in lat.outcomes]
    key = w.add(f"distribution-d{d}-n{n}", ["distribution", "--n", n, "--d", d, "--schedule",
                                            "--spectrum", spec_arg(specs[d])], n=n)
    w.check([key], partial(checks.distribution, outcomes=labels, probs=probs, log_lengths=lat.log_lengths))
    for d, p in specs.items():
        h, top = ref.entropy(p), math.log(d)
        rates = [round(h + rng.uniform(lo, hi) * (top - h), 6) for lo, hi in RATE_FRACTIONS]
        for rate in rates:
            key = w.add(f"exponent-d{d}-r{rate}", ["exponent", "--rate", repr(rate), "--spectrum", spec_arg(p)])
            w.check([key], partial(checks.exponent, rate=rate, want=ref.tilted_exponent(rate, p)))
        rate = rates[-1]
        optimal = ref.tilted_exponent(rate, p)
        argv = ["bounds", "--n", BOUNDS_N, "--d", d, "--schedule", "--rate", repr(rate), "--spectrum", spec_arg(p)]
        key = w.add(f"bounds-d{d}", argv, n=BOUNDS_N)
        w.check([key], partial(checks.bounds, optimal=optimal))
        if d != 3:
            continue
        near = _tilted_point(rate, p)
        anchors = (near, rounded((np.asarray(near) + 1.0 / d) / 2))
        key = w.add(f"bounds-set-d{d}", argv + ["--spectrum-set", ";".join(spec_arg(a) for a in anchors)],
                    n=BOUNDS_N)
        w.check([key], partial(checks.bounds, optimal=optimal, restricted=True))
    return w


def _tilted_point(rate: float, p) -> tuple[float, ...]:
    """A rounded spectrum near the contour point closest to p.

    It and its midpoint with the uniform law (entropy above the rate) are
    the anchors of the restricted code: both keep the restricted floor's
    problem feasible.  An anchor whose delta1-ball misses the entropy
    super-level set makes every SLSQP start run to its iteration limit,
    ten times slower, and would make the round's cost depend on the seed.
    """
    best = None
    for s in np.linspace(0.0, 1.0, 201):
        q = np.asarray(p) ** s
        q = q / q.sum()
        if best is None or abs(ref.entropy(q) - rate) < abs(ref.entropy(best) - rate):
            best = q
    return rounded(best)


# Each workload runs its parts' operations in one round; every part draws
# from its own random stream (the salt), so parts do not shift each other.
# Two workloads rather than four: each run then measures about 45 s, which
# the noise of a shared machine needs, within the time all runs may take.
WORKLOADS = {
    "qubit": ((qubit_overflow, 1), (qubit_error, 2)),
    "dense-qudit": ((dense_nc, 3), (qudit_solvers, 4)),
}


def build(name: str, seed: int) -> Workload:
    """The named workload for ``seed``."""
    out = Workload()
    for make, salt in WORKLOADS[name]:
        part = make(np.random.default_rng([seed, salt]))
        out.ops += part.ops
        out.checks += part.checks
        out.files.update(part.files)
    return out
