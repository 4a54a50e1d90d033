import itertools
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvlcode import young


# --- independent brute-force oracles -----------------------------------------

def standard_tableaux_count(shape) -> int:
    """Count standard tableaux by filling cells one value at a time."""
    shape = [p for p in shape if p > 0]

    def rec(rows):
        if all(r == 0 for r in rows):
            return 1
        total = 0
        # remove the largest entry: it sits at the end of some removable row
        for i in range(len(rows)):
            if rows[i] > 0 and (i + 1 == len(rows) or rows[i] > rows[i + 1]):
                total += rec(rows[:i] + (rows[i] - 1,) + rows[i + 1:])
        return total

    return rec(tuple(shape))


def semistandard_tableaux(shape, d):
    """Enumerate SSYT of the given shape with entries in 1..d (brute force)."""
    shape = [p for p in shape if p > 0]
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def rec(idx, filling):
        if idx == len(cells):
            yield dict(filling)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, d + 1):
            filling[(r, c)] = v
            yield from rec(idx + 1, filling)
            del filling[(r, c)]

    yield from rec(0, {})


def schur_by_ssyt(shape, xs) -> float:
    total = 0.0
    for tab in semistandard_tableaux(shape, len(xs)):
        term = 1.0
        for v in tab.values():
            term *= xs[v - 1]
        total += term
    return total


def kostka_by_ssyt(shape, content) -> int:
    count = 0
    for tab in semistandard_tableaux(shape, len(content)):
        counts = [0] * len(content)
        for v in tab.values():
            counts[v - 1] += 1
        if tuple(counts) == tuple(content):
            count += 1
    return count


def monomial_schur(lam, spec) -> float:
    """s_lam(spec) by its monomial expansion with Kostka multiplicities,
    the route the bialternant replaced, kept as an oracle."""
    total = 0.0
    for content in young.compositions(sum(lam), len(spec)):
        k = young.kostka(lam, content)
        if k:
            total += k * math.prod(x**c for x, c in zip(spec, content))
    return total


def leibniz_log_schur(lam, spec, digits: int = 60) -> float:
    """log s_lam(spec) by the bialternant summed term by term at the given
    precision; distinct entries only.  (mpmath.det returns 0 for
    lam = (1000, 0, 0): its pivot test takes the tiny matrix for singular.)"""
    with mpmath.workdps(digits):
        x = [mpmath.mpf(v) for v in spec]
        d = len(x)

        def alternant(e):
            total = mpmath.mpf(0)
            for perm in itertools.permutations(range(d)):
                inversions = sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))
                total += (-1) ** inversions * mpmath.fprod(x[perm[j]] ** e[j] for j in range(d))
            return total

        delta = list(range(d - 1, -1, -1))
        return float(mpmath.log(alternant([p + q for p, q in zip(lam, delta)]) / alternant(delta)))


partitions_upto = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.sampled_from(young.young_indices(n, n))
)


# --- enumeration -------------------------------------------------------------

def test_enumeration_small():
    assert young.young_indices(2, 2) == ((2, 0), (1, 1))
    assert young.young_indices(4, 2) == ((4, 0), (3, 1), (2, 2))


def test_enumeration_count_bound():
    for d in (2, 3, 4):
        for n in range(1, 31):
            assert len(young.young_indices(n, d)) <= (n + 1) ** d


def test_enumeration_brute_force():
    for n, d in [(5, 2), (6, 3), (7, 4)]:
        brute = sorted(
            {tuple(sorted(c, reverse=True)) for c in combinations_with_replacement(range(n + 1), d)
             if sum(c) == n},
            reverse=True,
        )
        assert list(young.young_indices(n, d)) == brute


@given(partitions_upto)
def test_enumeration_valid(parts):
    assert young.is_young_index(parts)
    assert sum(parts) >= 1


# --- dimensions ---------------------------------------------------------------

def test_dim_sym_trivial_rep():
    for n in (1, 3, 7):
        assert young.dim_sym_group((n,)) == 1


def test_dim_sym_examples():
    assert young.dim_sym_group((2, 1)) == 2
    assert young.dim_sym_group((3, 1)) == 3
    assert young.dim_sym_group((3, 1)) == math.comb(4, 1) - math.comb(4, 0)


@given(partitions_upto)
@settings(max_examples=40, deadline=None)
def test_dim_sym_matches_tableau_count(parts):
    assert young.dim_sym_group(parts) == standard_tableaux_count(parts)


def test_dim_unitary_examples():
    assert young.dim_unitary_group((2, 0), 2) == 3
    assert young.dim_unitary_group((1, 1), 2) == 1
    assert young.dim_unitary_group((2, 1, 0), 3) == 8


def test_dim_unitary_by_weight_enumeration():
    # dim U equals the number of SSYT with entries 1..d
    for shape, d in [((2, 1, 0), 3), ((3, 1), 2), ((2, 2, 1), 3), ((4, 0), 2)]:
        count = sum(1 for _ in semistandard_tableaux(shape, d))
        assert young.dim_unitary_group(shape, d) == count


def test_dim_unitary_bound():
    for d in (2, 3):
        for n in range(1, 20):
            for lam in young.young_indices(n, d):
                assert young.dim_unitary_group(lam, d) <= (n + 1) ** d


def test_block_dimension_sum_rule():
    for d in (2, 3, 4):
        for n in range(1, 11):
            total = sum(
                young.dim_unitary_group(lam, d) * young.dim_sym_group(lam)
                for lam in young.young_indices(n, d)
            )
            assert total == d**n


def test_dim_sym_multinomial_bound():
    # dim V <= C(n-counts) (n+d)^(2d) <= (n+d)^(2d) e^(n H), every shape to n = 30
    for d in (2, 3, 4):
        for n in range(1, 31):
            for lam in young.young_indices(n, d):
                c = young.multinomial(lam)
                poly = (n + d) ** (2 * d)
                assert young.dim_sym_group(lam) <= c * poly
                log_rhs = 2 * d * math.log(n + d) + n * young.shannon_entropy_of_counts(lam, n)
                assert math.log(young.dim_sym_group(lam)) <= log_rhs + 1e-9


# --- characters ----------------------------------------------------------------

def test_character_trivial_and_sign():
    for ct in young.cycle_types(3):
        assert young.character((3,), ct) == 1
    assert young.character((1, 1), (2,)) == -1
    assert young.character((1, 1), (1, 1)) == 1


def test_character_standard_rep_s3():
    # brute force through the explicit 2-dim irrep of S_3
    r = np.array([[math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)],
                  [math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)]])
    f = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert young.character((2, 1), (3,)) == pytest.approx(np.trace(r))
    assert young.character((2, 1), (2, 1)) == pytest.approx(np.trace(f))
    assert young.character((2, 1), (1, 1, 1)) == 2


def test_character_identity_is_dimension():
    for n in range(1, 9):
        for lam in young.young_indices(n, n):
            assert young.character(lam, (1,) * n) == young.dim_sym_group(lam)


def test_character_orthogonality():
    for n in range(2, 9):
        lams = young.young_indices(n, n)
        cts = young.cycle_types(n)
        sizes = [young.conjugacy_class_size(ct) for ct in cts]
        for l1 in lams:
            for l2 in lams:
                total = sum(
                    size * young.character(l1, ct) * young.character(l2, ct)
                    for size, ct in zip(sizes, cts)
                )
                assert total == (math.factorial(n) if l1 == l2 else 0)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        young.character((2, 1), (2, 2))


# --- schur polynomials ----------------------------------------------------------

def test_schur_examples():
    assert young.schur_poly((2, 0), (0.5, 0.5)) == pytest.approx(0.75, abs=1e-15)
    assert young.schur_poly((1, 1), (0.3, 0.7)) == pytest.approx(0.21, abs=1e-15)
    assert young.schur_poly((2, 1), (0.7, 0.3)) == pytest.approx(0.21, abs=1e-15)


def test_schur_matches_ssyt_enumeration():
    rng = np.random.default_rng(3)
    for shape, d in [((3, 1), 2), ((2, 1, 0), 3), ((2, 2), 2), ((3, 2, 1), 3)]:
        xs = rng.dirichlet(np.ones(d))
        assert young.schur_poly(shape, xs) == pytest.approx(schur_by_ssyt(shape, xs), rel=1e-12)


def test_schur_symmetry_and_homogeneity():
    val1 = young.schur_poly((3, 1), (0.3, 0.7))
    val2 = young.schur_poly((3, 1), (0.7, 0.3))
    assert val1 == pytest.approx(val2, rel=1e-14)
    scaled = young.schur_poly((3, 1), (1.4, 0.6))
    assert scaled == pytest.approx(val1 * 2**4, rel=1e-12)


def test_schur_bialternant_agreement():
    for a, b in [(5, 2), (3, 3), (7, 0), (10, 4)]:
        direct = young.schur_poly((a, b), (0.6, 0.4))
        ratio = young.schur_poly_bialternant2((a, b), 0.6, 0.4)
        assert direct == pytest.approx(ratio, rel=1e-12)


def test_schur_degenerate_spectrum_limit():
    # maximally mixed: the ratio form degenerates, the limit must be exact
    for a, b in [(4, 2), (6, 0)]:
        val = young.schur_poly((a, b), (0.5, 0.5))
        assert val == pytest.approx((a - b + 1) * 0.5 ** (a + b), rel=1e-13)
        assert young.schur_poly_bialternant2((a, b), 0.5, 0.5) == pytest.approx(val, rel=1e-12)


def test_schur_normalization():
    rng = np.random.default_rng(5)
    for d, n in [(2, 8), (2, 60), (3, 6), (4, 5)]:
        p = rng.dirichlet(np.ones(d))
        total = sum(
            young.dim_sym_group(lam) * young.schur_poly(lam, p)
            for lam in young.young_indices(n, d)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_log_schur_two_rows_against_monomial_sum():
    # the bialternant against sum_{c=b}^{a} x^c y^(n-c), also near and at x = y
    for x, y in [(0.75, 0.25), (0.5 + 1e-9, 0.5 - 1e-9), (0.5, 0.5), (0.25, 0.75), (1.0, 0.0), (0.0, 1.0)]:
        for a, b in [(7, 3), (40, 0), (25, 25), (0, 0)]:
            direct = sum(x**c * y ** (a + b - c) for c in range(b, a + 1))
            val = young.log_schur_two_rows(a, b, x, y)
            assert (math.exp(val) if val > -math.inf else 0.0) == pytest.approx(direct, rel=1e-12, abs=1e-300)
    a = np.arange(5, 11)
    np.testing.assert_allclose(young.log_schur_two_rows(a, 10 - a, 0.6, 0.4),
                               [young.log_schur_two_rows(int(v), 10 - int(v), 0.6, 0.4) for v in a], rtol=1e-15)


def test_log_dim_two_rows_matches_exact():
    # the array formulas on the two-row labels (a, n - a) that the qubit routes pass
    for n in (1, 2, 9, 60, 301, 2000):
        a = np.arange((n + 1) // 2, n + 1)
        labels = np.stack([a, n - a], axis=1)
        exact = [math.log(young.dim_sym_group((int(v), n - int(v)))) for v in a]
        # lgamma differences: absolute error a few ulps of lgamma(n + 1)
        np.testing.assert_allclose(young.log_dim_sym_group(labels), exact, rtol=0, atol=1e-15 * math.lgamma(n + 2))
        np.testing.assert_allclose(young.log_dim_unitary_group(labels), np.log(2 * a - n + 1), rtol=0, atol=1e-15)


def test_log_schur_large_n():
    # log path survives n = 10^6 and matches a scaled small case
    val = young.log_schur_two_rows(700_000, 300_000, 0.75, 0.25)
    assert np.isfinite(val) and val < 0
    small = young.log_schur_two_rows(7, 3, 0.75, 0.25)
    assert math.exp(small) == pytest.approx(young.schur_poly((7, 3), (0.75, 0.25)), rel=1e-12)


BIALTERNANT_SPECTRA = {
    3: [(0.5, 0.25, 0.25), (0.4, 0.4, 0.2), (1 / 3, 1 / 3, 1 / 3), (0.34, 0.333, 0.327), (0.6, 0.3, 0.1),
        (0.6, 0.4, 0.0), (1.0, 0.0, 0.0), (0.3335, 0.3333, 0.3332), (0.3334, 0.3333, 0.3333)],
    4: [(0.3, 0.3, 0.2, 0.2), (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1), (0.5, 0.3, 0.2, 0.0),
        (0.5, 0.5, 0.0, 0.0), (0.2501, 0.25, 0.25, 0.2499)],
    5: [(0.3, 0.25, 0.2, 0.15, 0.1), (0.2,) * 5, (0.4, 0.2, 0.2, 0.1, 0.1), (0.7, 0.2, 0.1, 0.0, 0.0)],
}
BIALTERNANT_SIZES = {3: (1, 6, 12, 24), 4: (6, 12), 5: (6, 10)}


@pytest.mark.parametrize("d", sorted(BIALTERNANT_SPECTRA))
def test_log_schur_against_monomial_expansion(d):
    # zero, exactly equal and nearly equal entries (the last ones cancel in
    # floating point and take the exact sum); zero values as -inf
    for spec in BIALTERNANT_SPECTRA[d]:
        for n in BIALTERNANT_SIZES[d]:
            labels = young.young_indices(n, d)
            got = young.log_schur(np.array(labels), spec)
            for lam, value in zip(labels, got):
                want = monomial_schur(lam, spec)
                if want == 0.0:
                    assert value == -math.inf, (spec, lam)
                else:
                    assert value == pytest.approx(math.log(want), rel=0, abs=1e-10), (spec, lam)


@pytest.mark.parametrize("spec", [(0.6, 0.3, 0.1), (0.34, 0.333, 0.327), (0.5, 0.49, 0.01)])
def test_log_schur_against_high_precision_bialternant(spec):
    labels = young.young_indices(200, 3)[::17] + ((67, 67, 66), (100, 100, 0))
    got = young.log_schur(np.array(labels), spec)
    for lam, value in zip(labels, got):
        assert value == pytest.approx(leibniz_log_schur(lam, spec), rel=0, abs=1e-10), lam
    # one long row: every term but the leading one is below 1e-300
    assert young.log_schur((1000, 0, 0), (0.6, 0.3, 0.1)) == pytest.approx(
        leibniz_log_schur((1000, 0, 0), (0.6, 0.3, 0.1)), rel=1e-13)


def test_log_schur_shapes_and_support():
    # one label gives a float, an array of labels an array; labels longer
    # than the nonzero support get -inf, shorter ones are zero-padded
    assert young.log_schur((2, 1, 0), (0.7, 0.3, 0.0)) == pytest.approx(math.log(0.21), abs=1e-14)
    assert young.log_schur((1, 1, 1), (0.7, 0.3, 0.0)) == -math.inf
    assert young.log_schur((3, 1), (0.5, 0.3, 0.2)) == pytest.approx(
        young.log_schur((3, 1, 0), (0.5, 0.3, 0.2)), abs=1e-15)
    assert young.log_schur((0, 0, 0), (0.0, 0.0, 0.0)) == 0.0
    out = young.log_schur(np.array([[2, 0, 0], [1, 1, 0]]), (0.2, 0.5, 0.3))
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        young.log_schur((1, 0), (1.1, -0.1))


def test_log_schur_takes_exact_sum_when_terms_cancel(monkeypatch):
    # with every label forced onto the exact rational sum the values agree
    # with the floating-point route where that one does not cancel
    labels = np.array(young.young_indices(18, 4))
    for spec in [(0.4, 0.3, 0.2, 0.1), (0.4, 0.4, 0.1, 0.1), (0.5, 0.3, 0.2, 0.0)]:
        fast = young.log_schur(labels, spec)
        monkeypatch.setattr(young, "MAX_CANCELLATION", 0.0)
        exact = young.log_schur(labels, spec)
        monkeypatch.undo()
        np.testing.assert_allclose(exact, fast, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_log_dims_match_exact(d):
    for n in (1, 7, 18, 30):
        labels = young.young_indices(n, d)
        sym = young.log_dim_sym_group(np.array(labels))
        unitary = young.log_dim_unitary_group(np.array(labels))
        for lam, s, u in zip(labels, sym, unitary):
            assert s == pytest.approx(math.log(young.dim_sym_group(lam)), rel=0, abs=1e-12)
            assert u == pytest.approx(math.log(young.dim_unitary_group(lam, d)), rel=0, abs=1e-12)
    assert young.log_dim_sym_group((3, 1, 0)) == pytest.approx(math.log(3), abs=1e-14)


# --- kostka ----------------------------------------------------------------------

def test_kostka_examples():
    assert young.kostka((2, 0), (1, 1)) == 1
    assert young.kostka((1, 1), (2, 0)) == 0
    assert young.kostka((2, 1), (1, 1, 1)) == 2


def test_kostka_diagonal_is_one():
    for parts in [(3, 1), (2, 2), (4, 2, 1)]:
        assert young.kostka(parts, parts) == 1


def test_kostka_majorization():
    # zero unless the shape majorizes the sorted content
    for lam in young.young_indices(5, 3):
        for mu in young.young_indices(5, 3):
            k = young.kostka(lam, mu)
            dominated = all(
                sum(lam[: i + 1]) >= sum(mu[: i + 1]) for i in range(3)
            )
            assert (k > 0) == (k > 0 and dominated)
            if not dominated:
                assert k == 0


def test_kostka_brute_force():
    for lam, mu in [((3, 1), (2, 2)), ((2, 2), (2, 1, 1)), ((3, 2, 1), (2, 2, 1, 1)),
                    ((4, 0), (1, 3)), ((2, 1, 1), (1, 1, 1, 1))]:
        assert young.kostka(lam, mu) == kostka_by_ssyt(lam, mu)


def test_kostka_rsk_identity():
    # sum over shapes of dim(S_n irrep) * Kostka = multinomial of the content
    for content in [(2, 2), (3, 1), (2, 1, 1), (2, 2, 1)]:
        n = sum(content)
        total = sum(
            young.dim_sym_group(lam) * young.kostka(lam, content)
            for lam in young.young_indices(n, len(content))
        )
        assert total == young.multinomial(content)


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        young.kostka((2, 1), (2, 2))


def test_exact_block_weight_values():
    assert young.exact_block_weight((3, 1), (3, 1)) == Fraction(3, 4)
    assert young.exact_block_weight((4, 0), (3, 1)) == Fraction(1, 4)
    for content in [(3, 1), (2, 2), (5, 3)]:
        n = sum(content)
        total = sum(young.exact_block_weight(lam, content)
                    for lam in young.young_indices(n, 2))
        assert total == 1


def test_two_row_weight_closed_form():
    # <e|P_type|e> = 1 - n2/(n1+1) for the block matching the letter type
    for n1, n2 in [(3, 1), (5, 3), (10, 4)]:
        w = young.exact_block_weight((n1, n2), (n1, n2))
        assert w == 1 - Fraction(n2, n1 + 1)
