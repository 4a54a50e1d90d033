import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import oracles
from oracles import partial_trace
from qvlcode import cli, codec, info, linalg, schur_weyl, young
from qvlcode.codec import REJECT, CodeParams, build_code, delta_schedule
from qvlcode.linalg import (
    DimensionBudgetError,
    Source,
    basis_source,
    fidelity,
    joint_eigenbasis,
    psd_sqrt,
    pure_source,
    random_density,
    random_unitary,
    tensor,
)
from qvlcode.schur_weyl import dense_bytes, two_row_bands, young_projectors

RNG = np.random.default_rng(2024)


def mixed_commuting_source():
    return Source(d=2, weights=(0.6, 0.4),
                  states=(np.diag([0.8, 0.2]).astype(complex),
                          np.diag([0.3, 0.7]).astype(complex)))


def noncommuting_source():
    return pure_source(2, [[1, 0], [1, 1]], (0.75, 0.25))


class TestDataSet:
    def test_tiny_radius_gives_block_labels(self):
        code = build_code(CodeParams(n=2, d=2, delta=0.2))  # n*delta < sqrt(2)/2
        assert code.outcomes == ((2, 0), (1, 1))
        assert code.c1_count == 1

    def test_labels_always_members(self):
        code = build_code(CodeParams(n=8, d=2, delta=0.35))
        for lam in young.young_indices(8, 2):
            assert lam in code.blocks
            assert lam in code.blocks[lam]

    def test_cover_multiplicity_is_c1(self):
        for delta in (0.2, 0.5):
            code = build_code(CodeParams(n=6, d=2, delta=delta))
            counts = Counter()
            for k in code.outcomes:
                for lam in code.blocks[k]:
                    counts[lam] += 1
            assert set(counts.values()) == {code.c1_count}
            assert code.c1_count == info.c1(6 * delta, 2)

    def test_cover_multiplicity_d3(self):
        code = build_code(CodeParams(n=4, d=3, delta=0.4))
        counts = Counter()
        for k in code.outcomes:
            for lam in code.blocks[k]:
                counts[lam] += 1
        assert set(counts.values()) == {code.c1_count}
        assert code.c1_count == info.c1(4 * 0.4, 3)

    def test_size_bound_for_schedule(self):
        for n in (50, 100, 200, 400):
            delta, _ = delta_schedule(n)
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            assert len(code.outcomes) <= (n + 1) ** 2


class TestRestrictedDataSet:
    def test_full_simplex_keeps_everything(self):
        specs = tuple((1 - t / 10, t / 10) for t in range(6))
        code = build_code(CodeParams(n=6, d=2, delta=0.4, delta1=0.39, spectrum_set=specs))
        full = build_code(CodeParams(n=6, d=2, delta=0.4))
        assert set(code.accepted) == set(full.outcomes)
        assert code.num_symbols == len(full.outcomes) + 1

    def test_tight_set_keeps_nearby_only(self):
        code = build_code(CodeParams(n=10, d=2, delta=0.3, delta1=0.05,
                                     spectrum_set=((1.0, 0.0),)))
        for k in code.accepted:
            assert np.linalg.norm(np.array(k) / 10 - np.array([1.0, 0.0])) <= 0.05 * (1 + 1e-6)
        assert len(code.accepted) < len(code.outcomes)

    def test_membership_filter_definition(self):
        specs = ((0.8, 0.2),)
        code = build_code(CodeParams(n=8, d=2, delta=0.4, delta1=0.1, spectrum_set=specs))
        for k in code.outcomes:
            near = np.linalg.norm(np.array(specs[0]) - np.array(k) / 8) <= 0.1 * (1 + 1e-6) + 1e-9
            assert (k in set(code.accepted)) == near


class TestDistribution:
    def test_single_copy(self):
        code = build_code(CodeParams(n=1, d=2, delta=0.2))
        dist = codec.outcome_distribution(code, [0.6, 0.4])
        assert dist == {(1, 0): pytest.approx(1.0)}

    def test_maximally_mixed_two_copies(self):
        code = build_code(CodeParams(n=2, d=2, delta=0.2))
        dist = codec.outcome_distribution(code, [0.5, 0.5])
        assert dist[(2, 0)] == pytest.approx(0.75, abs=1e-12)
        assert dist[(1, 1)] == pytest.approx(0.25, abs=1e-12)

    def test_normalization(self):
        for spec in ([0.5, 0.5], [0.7, 0.3], [1.0, 0.0]):
            code = build_code(CodeParams(n=7, d=2, delta=0.45))
            total = sum(codec.outcome_distribution(code, spec).values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_depends_only_on_average_state(self):
        code = build_code(CodeParams(n=6, d=2, delta=0.3))
        src_basis = basis_source(2, (0.5, 0.5))
        src_rotated = pure_source(2, [[1, 1], [1, -1]], (0.5, 0.5))
        d1 = codec.outcome_distribution(code, src_basis)
        d2 = codec.outcome_distribution(code, src_rotated)
        for k in d1:
            assert d1[k] == pytest.approx(d2[k], abs=1e-12)

    def test_product_state_input(self):
        code = build_code(CodeParams(n=3, d=2, delta=0.2))
        states = [random_density(2, RNG) for _ in range(3)]
        dist = codec.outcome_distribution(code, states)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_restricted_includes_reject(self):
        code = build_code(CodeParams(n=10, d=2, delta=0.3, delta1=0.05,
                                     spectrum_set=((1.0, 0.0),)))
        dist = codec.outcome_distribution(code, [0.6, 0.4])
        assert REJECT in dist
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert dist[REJECT] > 0.5  # the source is far from the allowed spectra


class TestCodingLength:
    def test_two_copy_values(self):
        code = build_code(CodeParams(n=2, d=2, delta=0.2))
        assert code.coding_length((2, 0)) == pytest.approx(math.log(2) + math.log(3))
        assert code.coding_length((1, 1)) == pytest.approx(math.log(2))

    def test_unknown_outcome(self):
        code = build_code(CodeParams(n=2, d=2, delta=0.2))
        with pytest.raises(KeyError):
            code.coding_length((5, -3))

    def test_length_upper_bound(self):
        # ln|symbols| + ln dim H_k <= d ln(n+1) + 4d ln(n+d) + n max H(window)
        for n, delta in [(30, 0.2), (100, 100 ** -0.25)]:
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            for k in code.outcomes[:: max(1, len(code.outcomes) // 10)]:
                max_h = max(oracles.shannon_entropy_of_counts(lam, n) for lam in code.blocks[k])
                bound = 2 * math.log(n + 1) + 8 * math.log(n + 2) + n * max_h
                assert code.coding_length(k) <= bound + 1e-9

    def test_reject_length(self):
        code = build_code(CodeParams(n=10, d=2, delta=0.3, delta1=0.05,
                                     spectrum_set=((1.0, 0.0),)))
        assert code.coding_length(REJECT) == pytest.approx(math.log(code.num_symbols))


class TestOverflow:
    def test_rate_zero(self):
        code = build_code(CodeParams(n=6, d=2, delta=0.3))
        assert codec.overflow_probability(code, [0.7, 0.3], 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_above_ceiling(self):
        code = build_code(CodeParams(n=6, d=2, delta=0.3))
        ceiling = code.length_ceiling()
        assert codec.overflow_probability(code, [0.7, 0.3], ceiling + 0.01) == 0.0

    def test_monotone_in_rate(self):
        code = build_code(CodeParams(n=40, d=2, delta=0.3))
        rates = np.linspace(0.0, 1.2, 13)
        vals = [codec.overflow_probability(code, [0.7, 0.3], r) for r in rates]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_direct_sum(self):
        code = build_code(CodeParams(n=12, d=2, delta=0.35))
        spec = [0.7, 0.3]
        rate = 0.62
        dist = codec.outcome_distribution(code, spec)
        direct = sum(p for k, p in dist.items() if code.coding_length(k) / 12 >= rate)
        assert codec.overflow_probability(code, spec, rate) == pytest.approx(direct, rel=1e-10)

    def test_length_ceiling_trend_along_schedule(self):
        # the longest per-symbol message tends to ln d from above: rates above
        # it (e.g. H(0.7, 0.3) + 0.15 > ln 2) see *zero* overflow at large n
        ceilings = []
        for n in (100, 200, 400, 800):
            delta, _ = delta_schedule(n)
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            ceilings.append(code.length_ceiling())
        assert all(a > b for a, b in zip(ceilings, ceilings[1:]))
        assert all(c > math.log(2) for c in ceilings)
        assert ceilings[-1] < math.log(2) + 0.01
        rate = info.entropy([0.7, 0.3]) + 0.15
        for n, ceiling in zip((200, 400, 800), ceilings[1:]):
            assert ceiling < rate
            delta, _ = delta_schedule(n)
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            assert codec.overflow_probability(code, [0.7, 0.3], rate) == 0.0


class TestErrorFunctionals:
    def test_single_copy_error_vanishes(self):
        code = build_code(CodeParams(n=1, d=2, delta=0.3))
        for src in (noncommuting_source(), mixed_commuting_source()):
            assert codec.average_error_exact(code, src) == pytest.approx(0.0, abs=1e-12)

    def test_pure_iid_source_in_symmetric_block(self):
        # an i.i.d. pure source occupies one block: the zero-radius code is exact
        code = build_code(CodeParams(n=4, d=2, delta=0.0))
        src = pure_source(2, [[0.6, 0.8]], (1.0,))
        assert codec.average_error_exact(code, src) == pytest.approx(0.0, abs=1e-12)
        assert codec.average_error_prime(code, src) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_equals_definitional(self, n, delta):
        code = build_code(CodeParams(n=n, d=2, delta=delta))
        for src in (noncommuting_source(), mixed_commuting_source(),
                    basis_source(2, (0.75, 0.25))):
            chain = codec.average_error_exact(code, src)
            definitional = codec.average_error_definitional(code, src)
            assert chain == pytest.approx(definitional, abs=1e-9)

    def test_dprime_dominates_exact(self):
        code = build_code(CodeParams(n=4, d=2, delta=0.3))
        for src in (noncommuting_source(), mixed_commuting_source()):
            assert codec.average_error_dprime(code, src) >= codec.average_error_exact(code, src) - 1e-12

    def test_dprime_matches_trace_norm_oracle(self):
        # literal overlap-squared criterion via dense trace norms, pure source
        code = build_code(CodeParams(n=4, d=2, delta=0.25))
        src = noncommuting_source()
        roots = [psd_sqrt(p / code.c1_count) for p in codec._instrument_matrices(code)]
        total = 0.0
        for seq in itertools.product(range(2), repeat=4):
            w = np.prod([src.weights[j] for j in seq])
            rho = tensor(*(src.states[j] for j in seq))
            for root in roots:
                post = root @ rho @ root
                p = float(np.real(np.trace(post)))
                if p <= 1e-15:
                    continue
                overlap = np.linalg.norm(rho @ (post / p), "nuc")  # the trace norm
                total += w * p * (1.0 - overlap**2)
        assert codec.average_error_dprime(code, src) == pytest.approx(total, abs=1e-9)

    def test_prime_at_most_exact_for_zero_radius(self):
        code = build_code(CodeParams(n=3, d=2, delta=0.0))
        src = basis_source(2, (0.75, 0.25))
        assert codec.average_error_prime(code, src) <= codec.average_error_exact(code, src) + 1e-12

    def test_restricted_code_charges_rejections(self):
        full = build_code(CodeParams(n=6, d=2, delta=0.4))
        specs = ((1.0, 0.0),)
        restricted = build_code(CodeParams(n=6, d=2, delta=0.4, delta1=0.05, spectrum_set=specs))
        src = basis_source(2, (0.5, 0.5))
        e_full = codec.average_error_exact(full, src)
        e_restricted = codec.average_error_exact(restricted, src)
        assert e_restricted >= e_full - 1e-12
        chain = codec.average_error_exact(restricted, src)
        definitional = codec.average_error_definitional(restricted, src)
        assert chain == pytest.approx(definitional, abs=1e-9)

    def test_error_decreasing_along_schedule(self):
        src = basis_source(2, (0.75, 0.25))
        grid = [100, 150, 200, 250, 300, 350, 400]
        errs = []
        for n in grid:
            delta, _ = delta_schedule(n)
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            errs.append(codec.average_error_exact(code, src))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_monte_carlo_agrees_with_exact(self):
        # an explicit sample count forces the sampling route; the commuting
        # closed form provides the exact reference
        src = mixed_commuting_source()
        code = build_code(CodeParams(n=6, d=2, delta=0.3))
        exact = codec.average_error_exact(code, src)
        mc, stderr = codec.average_error_chain(code, src, 1.5, samples=500, seed=11)
        assert stderr is not None and stderr > 0
        assert abs(mc - exact) < 6 * stderr + 1e-3

    def test_monte_carlo_deterministic_given_seed(self):
        src = noncommuting_source()
        code = build_code(CodeParams(n=5, d=2, delta=0.3))
        a = codec.average_error_chain(code, src, 1.5, samples=100, seed=3)
        b = codec.average_error_chain(code, src, 1.5, samples=100, seed=3)
        assert a == b
        c = codec.average_error_chain(code, src, 1.5, samples=100, seed=4)
        assert a != c

    def test_monte_carlo_needs_two_samples(self):
        # one draw has no sample variance: no standard error to report
        code = build_code(CodeParams(n=5, d=2, delta=0.3))
        with pytest.raises(ValueError, match="at least 2 samples"):
            codec.average_error_chain(code, noncommuting_source(), 1.5, samples=1)


class TestOutcomeRecords:
    def test_records_consistent(self):
        code = build_code(CodeParams(n=5, d=2, delta=0.3))
        src = mixed_commuting_source()
        records, stderr = codec.outcome_records(code, src)
        assert stderr is None
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-9)
        err = sum(r.error_contribution for r in records)
        assert err == pytest.approx(codec.average_error_exact(code, src), abs=1e-12)
        for r in records:
            assert 0.0 <= r.probability <= 1.0
            assert r.error_contribution >= -1e-12


class TestFixedLength:
    def test_rate_zero_everything_fails(self):
        code = build_code(CodeParams(n=4, d=2, delta=0.3))
        rep = codec.to_fixed_length(code, 0.0, noncommuting_source())
        assert rep.error_fixed == pytest.approx(1.0, abs=1e-9)
        assert rep.overflow == pytest.approx(1.0, abs=1e-9)

    def test_rate_above_ceiling_identical(self):
        code = build_code(CodeParams(n=4, d=2, delta=0.3))
        rep = codec.to_fixed_length(code, 5.0, noncommuting_source())
        assert rep.error_fixed == pytest.approx(rep.error_variable, abs=1e-15)
        assert rep.overflow == 0.0

    def test_conversion_inequality_random(self):
        n = 6
        for trial in range(10):
            delta = float(RNG.uniform(0.05, 0.45))
            code = build_code(CodeParams(n=n, d=2, delta=delta))
            atoms = int(RNG.integers(2, 4))
            weights = RNG.dirichlet(np.ones(atoms))
            states = tuple(random_density(2, RNG, pure=bool(RNG.integers(2)))
                           for _ in range(atoms))
            src = Source(d=2, weights=tuple(weights), states=states)
            rate = float(RNG.uniform(0.1, 1.1))
            rep = codec.to_fixed_length(code, rate, src)
            assert rep.error_fixed - rep.error_variable <= rep.overflow + 1e-9
            assert rep.slack >= -1e-9


class TestDeltaSchedule:
    def test_examples(self):
        delta, delta1 = delta_schedule(10**4)
        assert delta == pytest.approx(0.1, abs=1e-15)
        assert delta1 == pytest.approx(0.1 - 10 ** (-4 / 3), abs=1e-12)
        delta, delta1 = delta_schedule(16)
        assert delta == pytest.approx(0.5, abs=1e-15)
        assert delta1 == pytest.approx(0.5 - 16 ** (-1 / 3), abs=1e-12)

    def test_monotone_to_zero(self):
        vals = [delta_schedule(n)[0] for n in range(2, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ordering(self):
        for n in (2, 16, 82, 1000):
            delta, delta1 = delta_schedule(n)
            assert 0 < delta1 < delta <= 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            delta_schedule(0)


class TestInstrumentCompleteness:
    def test_blockwise_exact(self):
        # sum over outcomes of M_k restricted to one block is exactly P_block:
        # the cover multiplicity equals the normalizer as integers
        for delta in (0.1, 0.3, 0.7):
            code = build_code(CodeParams(n=5, d=2, delta=delta))
            counts = Counter()
            for k in code.outcomes:
                for lam in code.blocks[k]:
                    counts[lam] += 1
            for lam in code.labels:
                assert counts[lam] == code.c1_count  # integer identity

    def test_dense_sum_is_identity(self):
        code = build_code(CodeParams(n=4, d=2, delta=0.4))
        total = codec._instrument_matrices(code).sum(axis=0) / code.c1_count
        assert np.max(np.abs(total - np.eye(16))) < 1e-10


class TestCodeParamsValidation:
    def test_delta1_requires_set(self):
        with pytest.raises(ValueError):
            CodeParams(n=4, d=2, delta=0.3, delta1=0.1)

    def test_delta1_must_be_smaller(self):
        with pytest.raises(ValueError):
            CodeParams(n=4, d=2, delta=0.3, delta1=0.4, spectrum_set=((1.0, 0.0),))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            CodeParams(n=0, d=2, delta=0.3)


# --- the O(n) d = 2 route against the general-d route --------------------------

@lru_cache(maxsize=None)
def sorted_kostka(lam, content):
    return young.kostka(lam, content)


def kostka_schur(lam, spec):
    """s_lam(spec) by its monomial expansion with Kostka multiplicities
    (symmetric in the content, so looked up by the sorted content)."""
    return sum(sorted_kostka(lam, tuple(sorted(c, reverse=True))) * math.prod(x**ci for x, ci in zip(spec, c))
               for c in young.compositions(sum(lam), len(spec)))


def general_distribution(code, spec):
    """Outcome probabilities from exact dimensions and Kostka Schur sums."""
    block = {lam: young.dim_sym_group(lam) * kostka_schur(lam, spec) for lam in code.labels}
    out = {k: sum(block[lam] for lam in code.blocks[k]) / code.c1_count for k in code.outcomes}
    if code.params.restricted:
        out[REJECT] = sum(v for k, v in out.items() if k not in set(code.accepted))
        out = {k: out[k] for k in (*code.accepted, REJECT)}
    return out


def general_expectations(code, weights, zero_probs, exponent):
    """Cluster expectations of a commuting d = 2 source from exact block weights."""
    contents = young.compositions(code.n, 2)
    weight = {(lam, c): float(young.exact_block_weight(lam, c)) for lam in code.labels for c in contents}
    out = dict.fromkeys(code.outcomes, 0.0)
    for tau in young.compositions(code.n, len(weights)):
        w = young.multinomial(tau) * math.prod(wj**tj for wj, tj in zip(weights, tau))
        if w == 0.0:
            continue
        spectra = [np.array([q, 1.0 - q]) for q, tj in zip(zero_probs, tau) for _ in range(tj)]
        types = oracles.type_distribution(spectra)
        block = {lam: sum(p * weight[lam, c] for c, p in types.items()) for lam in code.labels}
        for k in code.outcomes:
            out[k] += w * min(1.0, max(0.0, sum(block[lam] for lam in code.blocks[k]))) ** exponent
    return out


def commuting_source(weights, zero_probs):
    return Source(d=2, weights=weights,
                  states=tuple(np.diag([q, 1.0 - q]).astype(complex) for q in zero_probs))


ORACLE_CODES = {
    "plain-n60": CodeParams(n=60, d=2, delta=delta_schedule(60)[0]),
    "plain-n31": CodeParams(n=31, d=2, delta=0.3),
    "restricted-n60": CodeParams(n=60, d=2, delta=delta_schedule(60)[0], delta1=delta_schedule(60)[1],
                                 spectrum_set=((0.8, 0.2), (0.55, 0.45))),
    "zero-radius-n30": CodeParams(n=30, d=2, delta=0.0),
}


class TestQubitRouteOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CODES))
    def test_probabilities_and_lengths(self, name):
        code = build_code(ORACLE_CODES[name])
        for spec in ((0.7, 0.3), (0.5, 0.5), (1.0, 0.0)):
            got = codec.outcome_distribution(code, spec)
            want = general_distribution(code, spec)
            assert list(got) == list(want)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-10)
        for k in code.accepted:
            exact = math.log(code.num_symbols) + math.log(code.subspace_dim(k))
            assert code.coding_length(k) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(ORACLE_CODES))
    def test_error_expectations(self, name):
        code = build_code(ORACLE_CODES[name])
        sources = [((0.7, 0.3), (1.0, 0.0)), ((0.5, 0.5), (1.0, 0.0)), ((1.0,), (1.0,)),
                   ((0.6, 0.4), (0.8, 0.3))]
        if code.n <= 31:
            sources.append(((0.3, 0.3, 0.4), (0.2, 0.5, 1.0)))
        for weights, zero_probs in sources:
            source = commuting_source(weights, zero_probs)
            for exponent in (1.0, 1.5, 2.0):
                (got,), _ = codec.cluster_expectations(code, source, (exponent,))
                want = general_expectations(code, weights, zero_probs, exponent)
                for k in want:
                    assert got[k] == pytest.approx(want[k], abs=1e-10), (weights, exponent, k)
                err, _ = codec.average_error_chain(code, source, exponent)
                want_err = 1.0 - sum(want[k] for k in code.accepted) / code.c1_count
                assert err == pytest.approx(want_err, abs=1e-10)


# --- the banded two-row route against the full-length route it replaced -------

TWO_ROW_SOURCES = {  # (weights, first-letter probability of each commuting diagonal atom)
    1: [((1.0,), (0.63,))],
    2: [((0.7, 0.3), (1.0, 0.0)), ((0.6, 0.4), (0.8, 0.3)), ((0.45, 0.55), (1.0, 0.35))],
    3: [((0.3, 0.3, 0.4), (0.2, 0.5, 0.9)), ((0.5, 0.2, 0.3), (1.0, 0.0, 0.6))],
}


@pytest.mark.parametrize("n", list(range(1, 41)) + [100, 1030, 2000])
def test_two_row_expectations_against_convolved_route(n):
    # every outcome's expectation at e = 1, 1.5, 2 within 1e-12 of the
    # full-length convolution read off by a log-domain prefix, for one to
    # three atoms (point masses and a zero letter among them), on a plain
    # and a restricted code; the oracle enumerates every composition, so
    # three atoms stop at n = 100
    delta, delta1 = delta_schedule(n)
    codes = [CodeParams(n=n, d=2, delta=delta),
             CodeParams(n=n, d=2, delta=delta, delta1=delta1, spectrum_set=((0.8, 0.2), (0.55, 0.45)))]
    for params in codes:
        code = build_code(params)
        for m, sources in TWO_ROW_SOURCES.items():
            for weights, zero_probs in sources if m < 3 or n <= 100 else ():
                source = commuting_source(weights, zero_probs)
                got, stderr = codec.cluster_expectations(code, source, (1.0, 1.5, 2.0))
                assert stderr is None
                want = oracles.convolved_cluster_expectations(code, source, (1.0, 1.5, 2.0))
                for g, w in zip(got, want):
                    assert list(g) == list(w)
                    np.testing.assert_allclose(list(g.values()), list(w.values()), rtol=0, atol=1e-12)


def test_two_row_batches_stay_within_their_bytes(monkeypatch):
    # a small delta at n = 10,000: the window is narrow, so the atoms' laws
    # and the FFTs, not the bands, set a batch's bytes; with budgets of
    # 1 MiB the traced peak of numpy's arrays stays under twice that, and
    # every expectation is that of the default batches
    code = build_code(CodeParams(n=10_000, d=2, delta=1e-4))
    source = commuting_source((0.5, 0.5), (0.5, 0.7))
    want = codec.cluster_expectations(code, source, (1.5,))[0][0]  # and the per-n tables cached
    monkeypatch.setattr(codec, "BATCH_BYTES", 1 << 20)
    monkeypatch.setattr(linalg, "MAX_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        got = codec.cluster_expectations(code, source, (1.5,))[0][0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [100, 1500])
def test_two_row_batches_bound_each_peak(n, monkeypatch):
    # three atoms: the traced peak of each batch, from its yield to the
    # next, lies between half the bytes two_row_batches gives it and those
    # bytes; at n = 1500 only the first 4,500 types are taken
    code = build_code(CodeParams(n=n, d=2, delta=delta_schedule(n)[0]))
    diag = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
    taus, weights = (a[:4500] for a in codec._atom_types((0.3, 0.3, 0.4), n))
    windows = []

    def traced(*args):
        for rows, held in schur_weyl.two_row_batches(*args):
            windows.append([tracemalloc.get_traced_memory()[0], held])
            tracemalloc.reset_peak()
            yield rows, held
            windows[-1][0] = tracemalloc.get_traced_memory()[1] - windows[-1][0]

    monkeypatch.setattr(codec, "two_row_batches", traced)
    tracemalloc.start()
    try:
        codec._two_row_expectations(code, diag, taus, weights, (1.0, 1.5))
    finally:
        tracemalloc.stop()
    assert len(windows) >= 3
    for peak, model in windows:
        assert 0.5 * model <= peak <= model, (peak, model)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_atom_types_are_the_enumerated_kept_set(m):
    # built one atom at a time, the kept types, their order and their
    # weights are those of the enumeration of every composition
    rng = np.random.default_rng(m)
    for n in range(1, 61):
        weights = rng.dirichlet(np.ones(m))
        if n % 3 == 0:
            weights[rng.integers(m)] = 0.0
            weights /= weights.sum()
        got, want = codec._atom_types(tuple(weights), n), oracles.enumerated_atom_types(tuple(weights), n)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_window_logsumexp_matches_loop():
    def loop(window):
        m = max(window)
        return m if m == -math.inf else m + math.log(sum(math.exp(x - m) for x in window))

    def runs(v, width):
        # every run of the width that meets v, v padded by width - 1 off-entries on each side
        return [v[max(0, i):i + width] for i in range(1 - width, len(v))]

    rng = np.random.default_rng(17)
    for length in (1, 2, 7, 30):
        v = rng.normal(scale=50.0, size=length)
        v[rng.random(length) < 0.3] = -np.inf
        for width in range(1, length + 3):
            want = [loop(run.tolist()) for run in runs(v, width)]
            np.testing.assert_allclose(codec._window_reduce(v, width, np.logaddexp), want, rtol=1e-13, atol=1e-12)
            # nonnegative terms summed linearly, a batch of rows along the last axis
            rows = np.exp(np.stack([v, v[::-1] - 3.0]) / 50.0)
            want = [[math.fsum(run) for run in runs(row, width)] for row in rows]
            np.testing.assert_allclose(codec._window_reduce(rows, width, np.add), want, rtol=1e-13, atol=0)


def test_distribution_normalized_at_large_n():
    n = 100_000
    code = build_code(CodeParams(n=n, d=2, delta=delta_schedule(n)[0]))
    logp = codec.log_outcome_distribution(code, (0.7, 0.3))
    assert math.fsum(math.exp(v) for v in logp.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("restricted", [False, True])
def test_monte_carlo_stderr_calibrated(restricted):
    # the reported standard error against the spread of the estimate over seeds
    extra = {"delta1": 0.29, "spectrum_set": ((1.0, 0.0),)} if restricted else {}
    code = build_code(CodeParams(n=5, d=2, delta=0.3, **extra))
    assert (len(code.accepted) < len(code.outcomes)) == restricted
    runs = [codec.average_error_chain(code, noncommuting_source(), 1.5, samples=200, seed=s)
            for s in range(30)]
    spread = np.std([value for value, _ in runs], ddof=1)
    reported = np.mean([stderr for _, stderr in runs])
    assert spread / 1.5 <= reported <= spread * 1.5


# --- averages over atom types against the m^n sequence loops they replaced ---

def sequence_expectations(code, source, exponent):
    """Cluster expectations by the m^n sequence loop, kept as an oracle."""
    projs = young_projectors(code.n, code.d)
    clusters = {k: sum(projs[lam] for lam in code.blocks[k]) for k in code.outcomes}
    out = dict.fromkeys(code.outcomes, 0.0)
    for seq in itertools.product(range(source.num_atoms), repeat=code.n):
        w = math.prod(source.weights[j] for j in seq)
        if w == 0.0:
            continue
        rho = tensor(*(source.states[j] for j in seq))
        for k in code.outcomes:
            tr = float(np.real(np.einsum("ij,ji->", clusters[k], rho)))
            out[k] += w * min(1.0, max(0.0, tr)) ** exponent
    return out


def sequence_simulated_errors(code, source):
    """(definitional, prime) errors by the m^n sequence loop, kept as an oracle."""
    projs = young_projectors(code.n, code.d)
    roots = {k: psd_sqrt(sum(projs[lam] for lam in code.blocks[k]) / code.c1_count) for k in code.outcomes}
    acc = set(code.accepted)
    definitional = prime = 0.0
    for seq in itertools.product(range(source.num_atoms), repeat=code.n):
        w = math.prod(source.weights[j] for j in seq)
        if w == 0.0:
            continue
        rho = tensor(*(source.states[j] for j in seq))
        for k in code.outcomes:
            post = roots[k] @ rho @ roots[k]
            p = float(np.real(np.trace(post)))
            if p <= 1e-15:
                continue
            if k not in acc:
                definitional += w * p
                prime += w * p
                continue
            sigma = post / p
            definitional += w * p * (1.0 - fidelity(rho, sigma))
            prime += w * p * sum(1.0 - fidelity(source.states[j], partial_trace(sigma, code.d, i))
                                 for i, j in enumerate(seq)) / code.n
    return definitional, prime


def multinomial_kostka_expectations(code, source, exponent):
    """Cluster expectations of a commuting source by the exact-multinomial
    Kostka loop over atom compositions, kept as an oracle."""
    _, diags = joint_eigenbasis(source.states)
    out = dict.fromkeys(code.outcomes, 0.0)
    for tau in young.compositions(code.n, source.num_atoms):
        w = float(young.multinomial(tau) * math.prod(Fraction(wj) ** tj for wj, tj in zip(source.weights, tau)))
        if w == 0.0:
            continue
        spectra = [np.clip(q, 0.0, None) for q, tj in zip(diags, tau) for _ in range(tj)]
        types = oracles.type_distribution(spectra)
        block = {lam: sum(p * young.exact_block_weight(lam, c) for c, p in types.items()) for lam in code.labels}
        for k in code.outcomes:
            out[k] += w * min(1.0, max(0.0, float(sum(block[lam] for lam in code.blocks[k])))) ** exponent
    return out


def three_atom_source():
    return pure_source(2, [[1, 0], [1, 1], [1, 0.5j]], (0.5, 0.3, 0.2))


def zero_weight_source():
    states = (random_density(2, np.random.default_rng(5)), random_density(2, np.random.default_rng(6)),
              random_density(2, np.random.default_rng(7)))
    return Source(d=2, weights=(0.6, 0.0, 0.4), states=states)


def qutrit_source():
    rng = np.random.default_rng(8)
    return Source(d=3, weights=(0.7, 0.3), states=(random_density(3, rng), random_density(3, rng, pure=True)))


def pure_qutrit_source():
    rng = np.random.default_rng(10)
    return Source(d=3, weights=(0.5, 0.3, 0.2), states=tuple(random_density(3, rng, pure=True) for _ in range(3)))


def full_rank_source():
    rng = np.random.default_rng(11)
    return Source(d=2, weights=(0.6, 0.4), states=(random_density(2, rng), random_density(2, rng)))


TYPE_CASES = {
    "two-atom-n5": (CodeParams(n=5, d=2, delta=0.3), noncommuting_source),
    "two-atom-n4-zero-radius": (CodeParams(n=4, d=2, delta=0.0), noncommuting_source),
    "three-atom-n4": (CodeParams(n=4, d=2, delta=0.4), three_atom_source),
    "three-atom-n5-restricted": (CodeParams(n=5, d=2, delta=0.3, delta1=0.29, spectrum_set=((1.0, 0.0),)),
                                 three_atom_source),
    "zero-weight-n4": (CodeParams(n=4, d=2, delta=0.3), zero_weight_source),
    "qutrit-n3": (CodeParams(n=3, d=3, delta=0.4), qutrit_source),
    "qutrit-n1": (CodeParams(n=1, d=3, delta=0.5), qutrit_source),  # one copy: the atom's own factor
    # the simulations' factors at both extremes: width R = 1 and R = d^n
    "pure-qutrit-n3": (CodeParams(n=3, d=3, delta=0.4), pure_qutrit_source),
    "full-rank-n4": (CodeParams(n=4, d=2, delta=0.4), full_rank_source),
}


class TestAtomTypeRoutes:
    @pytest.mark.parametrize("name", sorted(TYPE_CASES))
    def test_chain_against_sequence_loop(self, name):
        params, make = TYPE_CASES[name]
        code, source = build_code(params), make()
        assert joint_eigenbasis(source.states) is None  # the dense route
        for exponent in (1.0, 1.5, 2.0):
            (got,), stderr = codec.cluster_expectations(code, source, (exponent,))
            assert stderr is None
            want = sequence_expectations(code, source, exponent)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12), (exponent, k)

    @pytest.mark.parametrize("name", sorted(TYPE_CASES))
    def test_simulated_errors_against_sequence_loop(self, name):
        params, make = TYPE_CASES[name]
        code, source = build_code(params), make()
        definitional, prime = sequence_simulated_errors(code, source)
        assert codec.average_error_definitional(code, source) == pytest.approx(definitional, abs=1e-12)
        assert codec.average_error_prime(code, source) == pytest.approx(prime, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_commuting_qutrit_against_multinomial_loop(self, n):
        u = random_unitary(3, np.random.default_rng(n))
        states = tuple(u @ np.diag(q).astype(complex) @ u.conj().T
                       for q in ([0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [1.0, 0.0, 0.0]))
        source = Source(d=3, weights=(0.5, 0.3, 0.2), states=states)
        code = build_code(CodeParams(n=n, d=3, delta=0.35))
        for exponent in (1.0, 1.5, 2.0):
            (got,), stderr = codec.cluster_expectations(code, source, (exponent,))
            assert stderr is None
            want = multinomial_kostka_expectations(code, source, exponent)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12), (exponent, k)

    def test_six_atoms_at_n8_exact_by_type(self):
        # 6^8 sequences exceed 1e6 but there are only C(13, 5) = 1287 types
        rng = np.random.default_rng(9)
        source = Source(d=2, weights=tuple(rng.dirichlet(np.ones(6))),
                        states=tuple(random_density(2, rng, pure=bool(j % 2)) for j in range(6)))
        code = build_code(CodeParams(n=8, d=2, delta=0.3))
        assert len(codec._atom_types(source.weights, 8)[0]) == 1287
        exact, stderr = codec.average_error_chain(code, source, 1.5)
        assert stderr is None
        mc, mc_stderr = codec.average_error_chain(code, source, 1.5, samples=400, seed=2)
        assert abs(mc - exact) <= 4 * mc_stderr


# --- Monte Carlo by sampled atom type, and the simulations by chunk of outcomes -

MONTE_CARLO_CASES = {
    "two-atom-n5": (CodeParams(n=5, d=2, delta=0.3), noncommuting_source, 300),
    "three-atom-n5-restricted": (CodeParams(n=5, d=2, delta=0.3, delta1=0.29, spectrum_set=((1.0, 0.0),)),
                                 three_atom_source, 300),
    "two-atom-n9": (CodeParams(n=9, d=2, delta=delta_schedule(9)[0]), noncommuting_source, 60),
}


@pytest.mark.parametrize("name", sorted(MONTE_CARLO_CASES))
def test_monte_carlo_by_type_against_per_sample_loop(name, monkeypatch):
    params, make, samples = MONTE_CARLO_CASES[name]
    code, source = build_code(params), make()
    exponents = (1.0, 1.5, 2.0)
    want, want_stderrs = oracles.monte_carlo_expectations(code, source, exponents, samples, seed=7)
    calls = []
    probs = codec.polarized_block_probs
    monkeypatch.setattr(codec, "polarized_block_probs",
                        lambda labels, states, taus: calls.extend(taus) or probs(labels, states, taus))
    got, stderrs = codec.cluster_expectations(code, source, exponents, samples=samples, seed=7)
    # one evaluation per sampled atom type, of which there are at most C(n + m - 1, m - 1)
    assert len(calls) <= math.comb(code.n + source.num_atoms - 1, source.num_atoms - 1) < samples
    for g, w in zip(got, want):
        for k in w:
            assert g[k] == pytest.approx(w[k], abs=1e-12), k
    assert stderrs == pytest.approx(want_stderrs, abs=1e-12)


SIMULATION_CASES = {
    "two-atom-n5": (CodeParams(n=5, d=2, delta=0.3), noncommuting_source),
    "three-atom-n5-restricted": (CodeParams(n=5, d=2, delta=0.3, delta1=0.29, spectrum_set=((1.0, 0.0),)),
                                 three_atom_source),
}


@pytest.mark.parametrize("simulate", [codec.average_error_definitional, codec.average_error_prime])
@pytest.mark.parametrize("name", sorted(SIMULATION_CASES))
def test_simulation_in_one_outcome_chunks_equals_one_chunk(name, simulate, monkeypatch):
    params, make = SIMULATION_CASES[name]
    code, source = build_code(params), make()
    stacks = []  # outcomes per chunk, seen by either criterion's fidelity call
    for attr in ("factor_fidelity", "fidelity"):
        monkeypatch.setattr(codec, attr, lambda a, b, fid=getattr(codec, attr): stacks.append(len(b)) or fid(a, b))
    whole = simulate(code, source)
    assert max(stacks) > 1  # every accepted outcome of a type in one stack
    stacks.clear()
    # no room beside the projectors: one outcome per chunk
    monkeypatch.setattr(linalg, "MAX_BYTES", dense_bytes(code.n, code.d, len(code.outcomes)))
    assert simulate(code, source) == pytest.approx(whole, abs=1e-12)
    assert set(stacks) == {1}


# --- the array route for d >= 3 against the routes it replaced ---------------

def set_clusters(params):
    """Outcomes and clusters by the dict-of-sets construction the membership
    index replaced, kept as an oracle: every label plus every ball offset."""
    blocks = {}
    for lam in young.young_indices(params.n, params.d):
        for z in info.sum_zero_ball(params.n * params.delta, params.d):
            blocks.setdefault(tuple(l + zi for l, zi in zip(lam, z)), set()).add(lam)
    return {k: tuple(sorted(blocks[k], reverse=True)) for k in sorted(blocks, reverse=True)}


QUDIT_CODES = {
    "d3-n12": CodeParams(n=12, d=3, delta=delta_schedule(12)[0]),
    "d3-n7-restricted": CodeParams(n=7, d=3, delta=0.5, delta1=0.3, spectrum_set=((0.6, 0.3, 0.1),)),
    "d4-n8": CodeParams(n=8, d=4, delta=delta_schedule(8)[0]),
    "d5-n6": CodeParams(n=6, d=5, delta=0.4),
    "d3-n9-zero-radius": CodeParams(n=9, d=3, delta=0.0),
    # many rows of the cluster grid, and one (d = 2)
    "d3-n40": CodeParams(n=40, d=3, delta=delta_schedule(40)[0]),
    "d4-n16": CodeParams(n=16, d=4, delta=delta_schedule(16)[0]),
    "d5-n10": CodeParams(n=10, d=5, delta=delta_schedule(10)[0]),
    "d4-n10-restricted": CodeParams(n=10, d=4, delta=0.5, delta1=0.3, spectrum_set=((0.4, 0.3, 0.2, 0.1),)),
    "d2-n40": CodeParams(n=40, d=2, delta=delta_schedule(40)[0]),
}


class TestQuditRouteOracle:
    @pytest.mark.parametrize("name", sorted(QUDIT_CODES))
    def test_clusters_against_set_construction(self, name):
        params = QUDIT_CODES[name]
        code = build_code(params)
        want = set_clusters(params)
        assert code.outcomes == tuple(want)
        assert dict(code.blocks) == want
        assert code.c1_count == info.c1(params.n * params.delta, params.d)

    @pytest.mark.parametrize("name", sorted(QUDIT_CODES))
    def test_probabilities_and_lengths(self, name):
        code = build_code(QUDIT_CODES[name])
        d = code.d
        for spec in ([0.5, 0.3, 0.2, 0.0, 0.0][:d], [1.0] * d, [0.4, 0.4] + [0.2 / max(d - 2, 1)] * (d - 2)):
            spec = tuple(np.array(spec) / sum(spec))
            got = codec.outcome_distribution(code, spec)
            want = general_distribution(code, spec)
            assert list(got) == list(want)
            for k in want:
                assert got[k] == pytest.approx(want[k], rel=1e-10, abs=1e-300), (spec, k)
        for k in code.accepted:
            exact = math.log(code.num_symbols) + math.log(code.subspace_dim(k))
            assert code.coding_length(k) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("d, n", [(3, 60), (4, 30), (5, 16), (3, 300), (4, 40)])
    def test_distribution_normalized(self, d, n):
        code = build_code(CodeParams(n=n, d=d, delta=delta_schedule(n)[0]))
        spec = np.linspace(2.0, 1.0, d) / np.linspace(2.0, 1.0, d).sum()
        logp = codec.log_outcome_distribution(code, spec)
        assert math.fsum(math.exp(v) for v in logp.values()) == pytest.approx(1.0, abs=1e-12)

    def test_no_kostka_numbers(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("kostka called")

        monkeypatch.setattr(young, "kostka", forbidden)
        for name in ("d3-n12", "d3-n7-restricted", "d4-n8"):
            code = build_code(QUDIT_CODES[name])
            logp = codec.log_outcome_distribution(code, (0.5, 0.3, 0.2, 0.0)[:code.d])
            assert math.fsum(math.exp(v) for v in logp.values()) == pytest.approx(1.0, abs=1e-12)
            code.length_ceiling()

    def test_grid_over_budget_raises_before_allocating(self, monkeypatch):
        # d = 3, n = 10**6: a grid of 3.3e11 cells, refused from its shape alone
        tracemalloc.start()
        try:
            with pytest.raises(DimensionBudgetError, match="cluster grid"):
                build_code(CodeParams(n=10**6, d=3, delta=delta_schedule(10**6)[0]))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        # a budget one byte below the padded box of one type
        params = CodeParams(n=60, d=3, delta=delta_schedule(60)[0])
        monkeypatch.setattr(linalg, "MAX_BYTES", 8 * build_code(params)._terms - 1)
        with pytest.raises(DimensionBudgetError, match="cluster grid"):
            build_code(params)


# --- several exponents in one pass ------------------------------------------

def commuting_qutrit_source():
    return Source(d=3, weights=(0.6, 0.4), states=(np.diag([0.7, 0.2, 0.1]).astype(complex),
                                                   np.diag([0.1, 0.3, 0.6]).astype(complex)))


EXPONENT_ROUTES = {
    "closed-form-d2": (CodeParams(n=40, d=2, delta=0.3), mixed_commuting_source, None),
    "kostka": (CodeParams(n=5, d=3, delta=0.4), commuting_qutrit_source, None),
    "dense": (CodeParams(n=5, d=2, delta=0.3, delta1=0.29, spectrum_set=((1.0, 0.0),)), three_atom_source, None),
    "monte-carlo": (CodeParams(n=5, d=2, delta=0.3), noncommuting_source, 60),
}


@pytest.mark.parametrize("route", sorted(EXPONENT_ROUTES))
def test_exponents_in_one_pass_equal_separate_calls(route):
    params, make, samples = EXPONENT_ROUTES[route]
    code, source = build_code(params), make()
    both, stderrs = codec.cluster_expectations(code, source, (1.0, 1.5), samples=samples, seed=4)
    (one,), stderr1 = codec.cluster_expectations(code, source, (1.0,), samples=samples, seed=4)
    (three_halves,), stderr32 = codec.cluster_expectations(code, source, (1.5,), samples=samples, seed=4)
    assert both == [one, three_halves]
    if samples is None:
        assert stderrs is stderr1 is stderr32 is None
    else:
        assert stderrs == stderr1 + stderr32


@pytest.mark.parametrize("make", [mixed_commuting_source, noncommuting_source])
def test_outcome_records_enumerates_types_once(make, monkeypatch):
    calls = []

    def counted(weights, n):
        calls.append(n)
        return atom_types(weights, n)

    atom_types = codec._atom_types
    monkeypatch.setattr(codec, "_atom_types", counted)
    codec.outcome_records(build_code(CodeParams(n=5, d=2, delta=0.3)), make())
    assert calls == [5]


def test_dense_chain_against_complex_contraction(tmp_path, capsys):
    # a non-commuting qutrit at n = 6: the chain holds the block projectors
    # (about 34 MiB) and no stack of cluster projectors (about 250 MiB more)
    source = qutrit_source()
    atoms = [{"weight": w, "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()]}
             for w, m in zip(source.weights, source.states)]
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps({"d": 3, "atoms": atoms}))
    assert cli.main(["error", "--n", "6", "--d", "3", "--schedule", "--source", str(path)]) == 0
    got = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    # the contraction of each cluster projector with the complex product
    # state, one cluster projector at a time
    code = build_code(CodeParams(n=6, d=3, delta=delta_schedule(6)[0]))
    projs = young_projectors(6, 3)
    kept = 0.0
    for tau in young.compositions(6, 2):
        w = young.multinomial(tau) * math.prod(wj**tj for wj, tj in zip(source.weights, tau))
        rho = tensor(*(source.states[j] for j, tj in enumerate(tau) for _ in range(tj)))
        for labels in code.blocks.values():
            tr = float(np.real(np.einsum("ij,ji->", sum(projs[lam] for lam in labels), rho)))
            kept += w * min(1.0, max(0.0, tr)) ** 1.5
    assert got == pytest.approx(1.0 - kept / code.c1_count, abs=1e-12)


def test_dense_budget_counts_the_cluster_projectors(monkeypatch):
    # the chain holds the block projectors only (a non-commuting qutrit: qubit
    # chains take the polarized route); the simulation holds the stacked
    # cluster projectors on top, which are their own square roots up to the
    # factor 1 / sqrt(C1)
    qutrit = build_code(CodeParams(n=4, d=3, delta=0.3))
    monkeypatch.setattr(linalg, "MAX_BYTES", dense_bytes(4, 3) - 1)
    with pytest.raises(DimensionBudgetError):
        codec.average_error_chain(qutrit, qutrit_source())
    monkeypatch.setattr(linalg, "MAX_BYTES", dense_bytes(4, 3))
    assert 0.0 <= codec.average_error_chain(qutrit, qutrit_source())[0] <= 1.0
    code = build_code(CodeParams(n=4, d=2, delta=0.3))
    outcomes = len(code.outcomes)
    monkeypatch.setattr(linalg, "MAX_BYTES", dense_bytes(4, 2, outcomes) - 1)
    with pytest.raises(DimensionBudgetError):
        codec.average_error_definitional(code, noncommuting_source())
    monkeypatch.setattr(linalg, "MAX_BYTES", dense_bytes(4, 2, outcomes))
    assert 0.0 <= codec.average_error_definitional(code, noncommuting_source()) <= 1.0


@pytest.mark.parametrize("n", [1000, 10_000])
def test_polarized_chain_against_the_banded_route(n, monkeypatch):
    # a commuting qubit source through the route of non-commuting ones
    code = build_code(CodeParams(n=n, d=2, delta=delta_schedule(n)[0]))
    want, _ = codec.average_error_chain(code, mixed_commuting_source())
    monkeypatch.setattr(codec, "_commuting_diag", lambda states: None)
    assert codec.average_error_chain(code, mixed_commuting_source())[0] == pytest.approx(want, abs=1e-10)


def test_zero_weight_atoms_leave_the_route(monkeypatch):
    # a non-commuting atom of weight 0 does not send a commuting source off its route
    states = mixed_commuting_source().states + (np.full((2, 2), 0.5, dtype=complex),)
    source = Source(d=2, weights=(0.6, 0.4, 0.0), states=states)
    code = build_code(CodeParams(n=300, d=2, delta=delta_schedule(300)[0]))
    calls = []
    monkeypatch.setattr(codec, "two_row_bands", lambda *args: calls.append(1) or two_row_bands(*args))
    got, _ = codec.average_error_chain(code, source)
    assert calls and got == pytest.approx(codec.average_error_chain(code, mixed_commuting_source())[0], abs=1e-15)


# --- the atom-type cap ---------------------------------------------------------

def commuting_three_atom_qubit_source():
    return Source(d=2, weights=(0.3, 0.3, 0.4),
                  states=tuple(np.diag([q, 1 - q]).astype(complex) for q in (0.2, 0.5, 0.9)))


class _MonteCarloReached(Exception):
    pass


def stacked_rows(monkeypatch) -> list[int]:
    """The row counts of every np.column_stack from now on: the atom-type
    prefixes that ``codec._atom_types`` builds."""
    rows, column_stack = [], np.column_stack
    monkeypatch.setattr(np, "column_stack", lambda arrays: rows.append(len(arrays[0])) or column_stack(arrays))
    return rows


class TestAtomTypeCap:
    def test_simulation_raises_before_building_types(self, monkeypatch):
        # the kept prefixes are counted before they are stacked: the 5 of the
        # first atom are built, the 15 types of all three never are
        monkeypatch.setattr(codec, "MAX_ATOM_TYPES", 10)  # C(6, 2) = 15 types at n = 4
        code = build_code(CodeParams(n=4, d=2, delta=0.3))
        stacked = stacked_rows(monkeypatch)
        for simulate in (codec.average_error_definitional, codec.average_error_prime):
            with pytest.raises(DimensionBudgetError, match="carry weight"):
                simulate(code, three_atom_source())
        assert stacked == [5, 5]

    @pytest.mark.parametrize("params, make", [
        (CodeParams(n=3, d=2, delta=0.3), noncommuting_source),  # dense route
        (CodeParams(n=3, d=3, delta=0.4), lambda: basis_source(3, (0.5, 0.3, 0.2))),  # Kostka route
        # C(22, 2) = 231 types of a commuting 3-atom qubit source at n = 20: the two-row closed form
        (CodeParams(n=20, d=2, delta=delta_schedule(20)[0]), commuting_three_atom_qubit_source),
    ])
    def test_other_routes_fall_back_to_monte_carlo(self, params, make, monkeypatch):
        def reached(*args, **kwargs):
            raise _MonteCarloReached

        monkeypatch.setattr(codec, "MAX_ATOM_TYPES", 1)
        monkeypatch.setattr(codec.np.random, "default_rng", reached)
        code, source = build_code(params), make()
        stacked = stacked_rows(monkeypatch)
        with pytest.raises(_MonteCarloReached):
            codec.cluster_expectations(code, source, (1.5,))
        assert stacked == []  # the first atom's kept counts are already more than one


# --- the letter-count route far above the oracles' n ----------------------------

@pytest.mark.parametrize("n, make", [
    (1100, lambda: basis_source(2, (0.7, 0.3))),
    (10_000, lambda: basis_source(2, (0.7, 0.3))),
    (300, commuting_three_atom_qubit_source),
    (24, commuting_qutrit_source),
])
def test_linear_expectations_are_the_average_state_distribution(n, make):
    # the instrument is linear, so at exponent 1 the expectation over the
    # source is the outcome probability of the i.i.d. average state
    source = make()
    code = build_code(CodeParams(n=n, d=source.d, delta=delta_schedule(n)[0]))
    (got,), stderr = codec.cluster_expectations(code, source, (1.0,))
    assert stderr is None
    want = codec.outcome_distribution(code, source)
    assert list(want) == list(got)
    for k in want:
        assert got[k] / code.c1_count == pytest.approx(want[k], abs=1e-12), k
