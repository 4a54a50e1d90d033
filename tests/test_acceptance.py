"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  Criteria 4 and 7 are implemented exactly as stated and
fail: the quantities they pin down converge to different values than the
ones asserted.  The assertion messages carry the measured numbers; see
the test docstrings for the analysis.  Beside criterion 4, a test that is
no criterion checks the limit its quantity does converge to.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from qvlcode import bounds, cli, codec, info, young
from qvlcode.codec import CodeParams, build_code, delta_schedule
from qvlcode.linalg import Source, basis_source, pure_source, random_density, random_unitary
from qvlcode.schur_weyl import (
    block_prob_diagonal,
    block_prob_iid,
    log_block_prob_iid_two_level,
    young_projectors,
)

RNG = np.random.default_rng(123456)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")


def iid_state(rho, n):
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    return out


def test_criterion_01_block_decomposition():
    """Block dimensions sum to d^n and explicit projectors are clean."""
    start = time.time()
    ok = True
    for d in (2, 3):
        for n in range(1, 7):
            total = sum(young.dim_block(lam, d) for lam in young.young_indices(n, d))
            assert total == d**n, (d, n, total)
            projs = young_projectors(n, d)
            mats = list(projs.values())
            ident = sum(mats)
            assert np.max(np.abs(ident - np.eye(d**n))) < 1e-10, (d, n)
            for lam, p in projs.items():
                assert np.max(np.abs(p - p.conj().T)) < 1e-10
                assert np.max(np.abs(p @ p - p)) < 1e-10
            for a, b in itertools.combinations(mats, 2):
                assert np.max(np.abs(a @ b)) < 1e-10
    elapsed = time.time() - start
    report("1", ok, f"d<=3, n<=6, runtime {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_02_trace_oracle_equivalence():
    """Closed-form block probabilities match dense traces and diagonal weights."""
    for d in (2, 3):
        for n in range(1, 6):
            projs = young_projectors(n, d)
            for _ in range(20):
                spec = np.sort(RNG.dirichlet(np.ones(d)))[::-1]
                u = random_unitary(d, RNG)
                rho = u @ np.diag(spec) @ u.conj().T
                rhon = iid_state(rho, n)
                for lam, p in projs.items():
                    dense = float(np.real(np.einsum("ij,ji->", p, rhon)))
                    closed = block_prob_iid(lam, spec)
                    assert abs(dense - closed) < 1e-10, (d, n, lam)
    for n in range(1, 7):
        projs = young_projectors(n, 2)
        for c in range(n + 1):
            j = 0
            for v in [0] * c + [1] * (n - c):
                j = 2 * j + v
            for lam, p in projs.items():
                assert abs(p[j, j].real - block_prob_diagonal(lam, (c, n - c))) < 1e-10
    report("2", True, "dense vs closed-form vs diagonal routes agree to 1e-10")


def test_criterion_03_error_functional_equivalence():
    """Expectation-chain error equals the direct instrument simulation."""
    sources = [
        pure_source(2, [[1, 0], [1, 1]], (0.75, 0.25)),
        pure_source(2, [[1, 0], [0.6, 0.8], [0, 1]], (0.5, 0.3, 0.2)),
        Source(d=2, weights=(0.6, 0.4),
               states=(np.diag([0.8, 0.2]).astype(complex),
                       np.diag([0.3, 0.7]).astype(complex))),
        Source(d=2, weights=(0.7, 0.3),
               states=(random_density(2, RNG), random_density(2, RNG))),
    ]
    worst = 0.0
    for n in range(2, 6):
        for delta in (0.0, 0.3):
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            for src in sources:
                chain = codec.average_error_exact(code, src)
                direct = codec.average_error_definitional(code, src)
                worst = max(worst, abs(chain - direct))
                assert abs(chain - direct) < 1e-9, (n, delta)
    report("3", True, f"worst deviation {worst:.2e} over pure and mixed sources")


def test_criterion_04_zero_radius_error_floor():
    """Zero-radius code on the (3/4, 1/4) two-letter source, n up to 400.

    As stated this pins the n = 400 error to the analytic floor constant
    0.26322 +- 0.02.  The floor is only a lower bound: the exact error is
    1 - E[sum_j x_j^(3/2)] whose per-type weights x_j follow the
    geometric profile r^j (1-r), r = p2/p1, so the true limit is
    1 - (1-r)^(3/2)/(1-r^(3/2)) + o(1) ~ 0.3259, and the measured value
    at n = 400 is ~0.3247.  The convergence clause therefore fails; the
    floor clause (error >= 0.24 beyond n = 200) holds.
    """
    start = time.time()
    src = basis_source(2, (0.75, 0.25))
    floor = 1 - ((1 / 3) ** 1.5 + (2 / 3) ** 1.5)
    errors = {}
    for n in (100, 200, 300, 400):
        code = build_code(CodeParams(n=n, d=2, delta=0.0))
        errors[n] = codec.average_error_exact(code, src)
    elapsed = time.time() - start
    assert elapsed < 60.0
    for n in (200, 300, 400):
        assert errors[n] >= 0.24, (n, errors[n])
    ok = abs(errors[400] - floor) <= 0.02
    report("4", ok, f"error(400) = {errors[400]:.5f}, floor constant {floor:.5f}, "
                    f"runtime {elapsed:.1f}s")
    assert ok, (
        f"error at n=400 is {errors[400]:.5f}, not within 0.02 of {floor:.5f}: "
        f"the floor constant is a strict lower bound, not the limit; the exact "
        f"trend {sorted(errors.items())} converges to ~0.326 "
        f"(= 1 - sum_j (r^j(1-r))^1.5, r = 1/3)"
    )


def test_zero_radius_error_rises_to_its_limit():
    """Beside criterion 4: the (3/4, 1/4) zero-radius errors rise to their true limit.

    With radius 0 every cluster is one block, C1 = 1, and a basis sequence
    with c ones lies in the permutation module of content (n - c, c) =
    sum over j <= c of the blocks (n - j, j), each once.  All C(n, c)
    such sequences are permuted into each other, so each has weight
    x_j = (C(n, j) - C(n, j - 1)) / C(n, c) in block (n - j, j).  At
    c ~ n p2, C(n, c - i) / C(n, c) -> r^i with r = p2 / p1 = 1/3, so
    x_(c - i) -> r^i (1 - r): a geometric profile.  The error
    1 - E[sum_j x_j^(3/2)] therefore tends to
    1 - (1 - r)^(3/2) sum_i r^(3i/2) = 1 - (1 - r)^(3/2) / (1 - r^(3/2))
    = 0.32595, which the exact errors approach from below (0.32092 at
    n = 100, 0.32471 at n = 400).
    """
    src = basis_source(2, (0.75, 0.25))
    r = 0.25 / 0.75
    limit = 1 - (1 - r) ** 1.5 / (1 - r**1.5)
    assert limit == pytest.approx(0.3259, abs=1e-4)
    errors = [codec.average_error_exact(build_code(CodeParams(n=n, d=2, delta=0.0)), src)
              for n in (100, 200, 300, 400)]
    assert all(a < b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < limit and limit - errors[-1] < 0.002, (errors, limit)


def test_criterion_05_slow_decay_diagnostic():
    """-(1/n) ln error is positive, decreasing, and below the rate ceiling."""
    grid = list(range(50, 401, 50))
    rows = bounds.decay_rate_table((0.75, 0.25), grid)
    rates = [rate for _, rate, _ in rows]
    assert all(rate > 0 for rate in rates)
    assert all(a > b for a, b in zip(rates, rates[1:]))
    for n, rate, ceiling in rows:
        assert rate <= ceiling + 1e-12, (n, rate, ceiling)
    report("5", True, f"rates {rates[0]:.4f} .. {rates[-1]:.4f} all under the ceiling")


def _exact_overflow_exponent(code, spec, rate):
    logp = codec.log_overflow_probability(code, spec, rate)
    return -logp / code.n if logp > float("-inf") else math.inf


def _dominance_reports_for(n, d, delta, spec, src, rate):
    """BoundReports pairing each exact quantity with its closed-form ceiling."""
    code = build_code(CodeParams(n=n, d=d, delta=delta))
    delta1 = delta / 2
    restricted = build_code(CodeParams(n=n, d=d, delta=delta, delta1=delta1,
                                       spectrum_set=(spec,)))
    inputs = {"n": n, "d": d, "delta": delta}
    exact_exp = _exact_overflow_exponent(code, spec, rate)
    exact_exp_r = _exact_overflow_exponent(restricted, spec, rate)
    return [
        bounds.BoundReport("error", inputs,
                           bounds.error_ceiling_bures(n, d, delta),
                           codec.average_error_exact(code, src)),
        bounds.BoundReport("error-overlap2", inputs,
                           bounds.error_ceiling_overlap2(n, d, delta),
                           codec.average_error_dprime(code, src)),
        bounds.BoundReport("error-restricted", inputs,
                           bounds.restricted_error_ceiling(n, d, delta, delta1),
                           codec.average_error_exact(restricted, src)),
        # the overflow bounds floor the exponent, so exact and bound swap sides
        bounds.BoundReport("overflow-exponent", inputs,
                           exact_exp,
                           bounds.overflow_exponent_floor(n, d, delta, rate, spec)),
        bounds.BoundReport("overflow-exponent-restricted", inputs,
                           exact_exp_r,
                           bounds.restricted_overflow_exponent_floor(
                               n, d, delta, delta1, (spec,), rate, spec)),
    ]


def test_criterion_06_bound_dominance_grid():
    """Exact error/overflow/tail quantities never exceed their ceilings."""
    reports = []
    spec2 = (0.7, 0.3)
    src2 = basis_source(2, spec2)
    rate2 = info.entropy(spec2) + 0.15
    for n in (2, 4, 6, 50, 100, 200, 400):
        for delta in (0.05, 0.1, delta_schedule(n)[0]):
            reports += _dominance_reports_for(n, 2, delta, spec2, src2, rate2)
    spec3 = (0.5, 0.3, 0.2)
    src3 = basis_source(3, spec3)
    rate3 = info.entropy(spec3) + 0.1
    for n in range(2, 7):
        reports += _dominance_reports_for(n, 3, delta_schedule(n)[0], spec3, src3, rate3)
    # per-block and tail ceilings, exhaustive at n = 500
    n = 500
    for a in range((n + 1) // 2, n + 1):
        reports.append(bounds.BoundReport(
            "block-probability", {"n": n, "block": (a, n - a)},
            bounds.log_block_probability_ceiling((a, n - a), spec2, 2),
            log_block_prob_iid_two_level(a, n - a, *spec2)))
    for boxes in ([[(0.6, 0.8)]], [[(0.55, 0.9)]], [[(0.5, 0.65)], [(0.75, 0.9)]]):
        lhs = sum(
            math.exp(log_block_prob_iid_two_level(a, n - a, *spec2))
            for a in range((n + 1) // 2, n + 1)
            if not any(lo <= a / n <= hi for (lo, hi), in boxes)
        )
        reports.append(bounds.BoundReport(
            "tail-mass", {"n": n, "boxes": boxes},
            bounds.tail_mass_ceiling(boxes, spec2, n, 2), lhs))
    bad = [r for r in reports if not r.satisfied]
    report("6", not bad, f"{len(reports)} dominance checks, {len(bad)} violations")
    assert not bad, bad[:3]


def test_criterion_07_overflow_exponent_convergence():
    """Overflow exponent at rate H(p) + 0.15 versus the contour exponent.

    As stated this is unattainable on two counts.  The rate
    H(0.7, 0.3) + 0.15 = 0.7609 nats exceeds ln 2 = 0.6931, so the
    entropy-contour problem {q : H(q) >= R} has no feasible point (the
    exponent evaluator rejects R > ln d by contract), and the code's
    longest per-symbol length at n >= 200 (~0.72 nats) is below the
    rate, making the overflow probability exactly zero.  For any
    feasible rate the radius schedule n^(-1/4) still keeps the window
    slack (~2 delta) far above the contour-to-spectrum distance at
    n <= 800, so the 15 percent agreement has no room to appear either
    (measured exponent ~0.0006 vs 0.0226 at rate h(0.4)).
    """
    spec = (0.7, 0.3)
    rate = info.entropy(spec) + 0.15
    measured = {}
    for n in (200, 400, 800):
        delta, _ = delta_schedule(n)
        code = build_code(CodeParams(n=n, d=2, delta=delta))
        measured[n] = (_exact_overflow_exponent(code, spec, rate), code.length_ceiling())
    try:
        target = info.optimal_overflow_exponent(rate, spec)
    except ValueError as exc:
        report("7", False, f"target exponent undefined: {exc}")
        pytest.fail(
            f"rate {rate:.4f} exceeds ln 2 = {math.log(2):.4f}: the contour "
            f"problem is infeasible ({exc}); the exact overflow probability is "
            f"0 at every tested n (exponent, length ceiling by n: {measured}), "
            f"so no finite exponent comparison exists at this rate"
        )
    gaps = [abs(measured[n][0] - target) / target for n in (200, 400, 800)]
    ok = all(g <= 0.15 for g in gaps) and gaps[0] >= gaps[1] >= gaps[2]
    report("7", ok, f"relative gaps {gaps}")
    assert ok


def test_criterion_08_exponent_gap_consistency():
    """Closed-form gap equals ceiling minus achievable exponent, 1e-8."""
    triples = [(0.2, 0.3, math.pi / 6), (0.1, 0.4, 0.8), (0.25, 0.18, 1.1),
               (0.15, 0.35, -0.7), (0.3, 0.2, 0.3), (0.05, 0.45, 1.4),
               (0.4, 0.1, -1.2), (0.35, 0.3, 0.05), (0.45, 0.05, 2.0),
               (0.12, 0.24, 0.0)]
    worst = 0.0
    for t1, t0, dtheta in triples:
        theta = lambda t, dtheta=dtheta, t1=t1: dtheta if t == t1 else 0.0
        gap = info.rotating_family_gap(t1, t0, theta)
        rho1 = info.rotated_two_level_state(t1, theta(t1))
        rho0 = info.rotated_two_level_state(t0, theta(t0))
        rate = info.binary_entropy(t1) - 1e-9
        ceiling = info.universality_ceiling(rate, rho0, [(rho1, info.binary_entropy(t1))])
        achievable = info.min_unitary_divergence(rho1, rho0)
        worst = max(worst, abs(gap - (ceiling - achievable)))
        assert abs(gap - (ceiling - achievable)) < 1e-8, (t1, t0, dtheta)
        if dtheta != 0.0 and t0 != 0.5 and t1 != t0:
            assert gap > 0.0
    report("8", True, f"worst closed-form deviation {worst:.2e} over 10 triples")


def test_criterion_09_fixed_length_conversion():
    """Error increase of the fixed-rate conversion never exceeds the overflow."""
    n = 6
    worst = -math.inf
    for trial in range(10):
        delta = float(RNG.uniform(0.05, 0.45))
        code = build_code(CodeParams(n=n, d=2, delta=delta))
        atoms = int(RNG.integers(2, 4))
        weights = tuple(RNG.dirichlet(np.ones(atoms)))
        states = tuple(random_density(2, RNG, pure=bool(RNG.integers(2)))
                       for _ in range(atoms))
        src = Source(d=2, weights=weights, states=states)
        rate = float(RNG.uniform(0.1, 1.1))
        rep = codec.to_fixed_length(code, rate, src)
        violation = (rep.error_fixed - rep.error_variable) - rep.overflow
        worst = max(worst, violation)
        assert violation <= 1e-9, (trial, rep)
    report("9", True, f"max violation {worst:.2e} over 10 random source/rate draws")


def test_criterion_10_cli_determinism():
    """Byte-identical output for fixed seed under 1, 4, and 8 worker threads."""
    cases = [
        ["lemma-l1", "--spectrum", "0.75,0.25", "--n-grid", "50:100:50",
         "--seed", "3", "--format", "json"],
        ["error", "--n", "5", "--delta", "0.3", "--spectrum", "0.75,0.25",
         "--samples", "60", "--seed", "9", "--format", "csv"],
        ["distribution", "--n", "10", "--schedule", "--spectrum", "0.7,0.3",
         "--seed", "1", "--format", "json"],
    ]
    for argv in cases:
        outputs = []
        for threads in (1, 4, 8):
            config = cli.config_from_args(cli.parse_args(argv))
            outputs.append(cli.run(config, threads=threads).encode())
        assert outputs[0] == outputs[1] == outputs[2], argv
    report("10", True, "3 commands byte-identical across 1/4/8 threads")
