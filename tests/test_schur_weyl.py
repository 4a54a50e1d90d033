import itertools
import math

import numpy as np
import pytest

import oracles
from qvlcode import codec, linalg, schur_weyl, young
from qvlcode.linalg import DimensionBudgetError, NumericalFailure, random_density, random_unitary, tensor
from qvlcode.schur_weyl import (
    block_prob_diagonal,
    block_prob_iid,
    block_prob_product,
    block_probs_product,
    dense_block_probs,
    diagonal_block_probs,
    log_block_prob_iid_two_level,
    log_block_probs_iid,
    permutation_operator,
    polarized_block_probs,
    young_projector,
    young_projectors,
)

RNG = np.random.default_rng(77)


def iid_state(rho, n):
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    return out


def basis_index(digits, d):
    out = 0
    for v in digits:
        out = out * d + v
    return out


class TestPermutationOperator:
    def test_identity(self):
        assert np.array_equal(permutation_operator((0, 1, 2), 2), np.eye(8))

    def test_swap_two_qubits(self):
        m = permutation_operator((1, 0), 2)
        v = np.zeros(4)
        v[basis_index([0, 1], 2)] = 1.0
        assert np.argmax(m @ v) == basis_index([1, 0], 2)

    def test_homomorphism_random(self):
        perms = list(itertools.permutations(range(4)))
        for _ in range(8):
            s = perms[RNG.integers(len(perms))]
            t = perms[RNG.integers(len(perms))]
            st = tuple(s[t[i]] for i in range(4))
            lhs = permutation_operator(st, 2)
            rhs = permutation_operator(s, 2) @ permutation_operator(t, 2)
            assert np.array_equal(lhs, rhs)

    def test_unitary(self):
        m = permutation_operator((2, 0, 1), 3)
        assert np.allclose(m @ m.T, np.eye(27))

    def test_budget(self):
        with pytest.raises(DimensionBudgetError):
            permutation_operator(tuple(range(13)), 2)


class TestProjectors:
    def test_symmetric_subspace(self):
        p = young_projector((2, 0), 2)
        assert np.trace(p).real == pytest.approx(3.0, abs=1e-10)
        # symmetric vectors are fixed
        sym = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
        assert np.allclose(p @ sym, sym, atol=1e-12)

    def test_completeness(self):
        for n, d in [(3, 2), (6, 2), (4, 3), (6, 3)]:
            total = sum(young_projectors(n, d).values())
            assert np.max(np.abs(total - np.eye(d**n))) < 1e-10

    def test_block_invariants(self):
        for n, d in [(4, 2), (3, 3)]:
            projs = young_projectors(n, d)
            for lam, p in projs.items():
                assert np.max(np.abs(p - p.conj().T)) < 1e-10
                assert np.max(np.abs(p @ p - p)) < 1e-10
                assert np.trace(p).real == pytest.approx(young.dim_block(lam, d), abs=1e-8)
            for l1, l2 in itertools.combinations(projs, 2):
                assert np.max(np.abs(projs[l1] @ projs[l2])) < 1e-10

    def test_trace_example(self):
        p = young_projector((2, 1), 2)
        assert np.trace(p).real == pytest.approx(4.0, abs=1e-10)

    def test_commutes_with_local_unitaries(self):
        u = random_unitary(2, RNG)
        un = tensor(u, u, u)
        p = young_projector((2, 1), 2)
        assert np.max(np.abs(un @ p @ un.conj().T - p)) < 1e-12

    @pytest.mark.usefixtures("free_projectors")
    def test_qubit_blocks_at_n9_and_n10(self):
        # the character-sum oracle is too slow here: check the projector algebra
        rng = np.random.default_rng(910)
        for n in (9, 10):
            projs = young_projectors(n, 2)
            assert np.max(np.abs(sum(projs.values()) - np.eye(2**n))) < 1e-10
            for p in projs.values():
                assert np.max(np.abs(p @ p - p)) < 1e-10
            for l1, l2 in itertools.combinations(projs, 2):
                assert np.max(np.abs(projs[l1] @ projs[l2])) < 1e-10
            labels = np.array(list(projs))
            spec = rng.dirichlet(np.ones(2))
            u = random_unitary(2, rng)
            dense = dense_block_probs(labels, tensor(*[u @ np.diag(spec) @ u.conj().T] * n))
            np.testing.assert_allclose(np.exp(log_block_probs_iid(labels, spec)), dense, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("fault, match", [
        ("shared", "share their class-sum eigenvalues"),
        ("shifted", "from its block's"),
        ("dims", "not the block dimensions"),
    ])
    def test_eigenspace_checks(self, monkeypatch, fault, match):
        content_sums, dim_block = schur_weyl._content_sums, young.dim_block

        def shifted(lam):  # every omega_lam one off its eigenvalue
            s1, s2 = content_sums(lam)
            return s1 + 1, s2

        if fault == "dims":
            monkeypatch.setattr(young, "dim_block", lambda lam, d: dim_block(lam, d) + 1)
        elif fault == "shifted":
            monkeypatch.setattr(schur_weyl, "_content_sums", shifted)
        else:
            monkeypatch.setattr(schur_weyl, "_content_sums", lambda lam: (0, 0))
        with pytest.raises(NumericalFailure, match=match):
            young_projectors.__wrapped__(4, 2)


class TestBlockProbIID:
    def test_maximally_mixed(self):
        assert block_prob_iid((2, 0), (0.5, 0.5)) == pytest.approx(0.75, abs=1e-14)
        assert block_prob_iid((1, 1), (0.5, 0.5)) == pytest.approx(0.25, abs=1e-14)

    def test_matches_dense_trace(self):
        for n, d in [(4, 2), (3, 3)]:
            for _ in range(3):
                spec = RNG.dirichlet(np.ones(d))
                u = random_unitary(d, RNG)
                rho = u @ np.diag(spec) @ u.conj().T
                rhon = iid_state(rho, n)
                for lam, p in young_projectors(n, d).items():
                    dense = float(np.trace(p @ rhon).real)
                    assert block_prob_iid(lam, spec) == pytest.approx(dense, abs=1e-10)

    def test_sums_to_one(self):
        spec = (0.6, 0.3, 0.1)
        total = sum(block_prob_iid(lam, spec) for lam in young.young_indices(5, 3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_route_matches(self):
        v = math.exp(log_block_prob_iid_two_level(7, 3, 0.75, 0.25))
        assert v == pytest.approx(block_prob_iid((7, 3), (0.75, 0.25)), rel=1e-12)


class TestBlockProbDiagonal:
    def test_known_diagonal_values(self):
        assert block_prob_diagonal((3, 1), (3, 1)) == pytest.approx(0.75)
        assert block_prob_diagonal((4, 0), (3, 1)) == pytest.approx(0.25)

    def test_two_row_closed_form(self):
        for n1, n2 in [(3, 1), (6, 2), (5, 5)]:
            v = block_prob_diagonal((n1, n2), (n1, n2))
            assert v == pytest.approx(1 - n2 / (n1 + 1), rel=1e-14)

    def test_completeness_per_basis_vector(self):
        for content in [(4, 0), (3, 1), (2, 2)]:
            total = sum(block_prob_diagonal(lam, content) for lam in young.young_indices(4, 2))
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_dense_diagonal(self):
        for n in range(2, 7):
            projs = young_projectors(n, 2)
            for c in range(n + 1):
                digits = [0] * c + [1] * (n - c)
                j = basis_index(digits, 2)
                for lam, p in projs.items():
                    assert block_prob_diagonal(lam, (c, n - c)) == pytest.approx(
                        p[j, j].real, abs=1e-10)


class TestBlockProbProduct:
    def test_single_copy(self):
        rho = random_density(2, RNG)
        assert block_prob_product((1, 0), [rho]) == pytest.approx(1.0, abs=1e-12)

    def test_identical_factors_reduce_to_iid(self):
        rho = random_density(2, RNG)
        spec = np.sort(np.linalg.eigvalsh(rho))[::-1]
        for lam in young.young_indices(4, 2):
            v_prod = block_prob_product(lam, [rho] * 4)
            assert v_prod == pytest.approx(block_prob_iid(lam, spec), abs=1e-10)

    def test_permutation_invariance(self):
        states = [random_density(2, RNG) for _ in range(3)]
        for lam in young.young_indices(3, 2):
            base = block_prob_product(lam, states)
            for perm in itertools.permutations(range(3)):
                assert block_prob_product(lam, [states[i] for i in perm]) == pytest.approx(
                    base, abs=1e-10)

    def test_commuting_kostka_route_matches_dense(self):
        diag_states = [np.diag(RNG.dirichlet(np.ones(2))).astype(complex) for _ in range(5)]
        dense = iid_state(diag_states[0], 1)
        for s in diag_states[1:]:
            dense = np.kron(dense, s)
        for lam in young.young_indices(5, 2):
            routed = block_prob_product(lam, diag_states)  # joint-eigenbasis route
            expected = float(np.trace(young_projector(lam, 2) @ dense).real)
            assert routed == pytest.approx(expected, abs=1e-10)

    def test_budget_for_noncommuting(self):
        states = [random_density(2, RNG) for _ in range(13)]
        with pytest.raises(DimensionBudgetError):
            block_prob_product((13,) + (0,), states)


class TestOperatorNormIdentity:
    def test_diagonal_peak_eigenvalue(self):
        spec = np.array([0.6, 0.4])
        rhon = iid_state(np.diag(spec), 4)
        for lam, p in young_projectors(4, 2).items():
            top = np.linalg.eigvalsh(p @ rhon @ p)[-1]
            assert top == pytest.approx(spec[0] ** lam[0] * spec[1] ** lam[1], abs=1e-10)

    def test_d3(self):
        spec = np.array([0.5, 0.3, 0.2])
        rhon = iid_state(np.diag(spec), 3)
        for lam, p in young_projectors(3, 3).items():
            top = np.linalg.eigvalsh(p @ rhon @ p)[-1]
            expected = np.prod(spec ** np.array(lam))
            assert top == pytest.approx(expected, abs=1e-10)


@pytest.fixture
def free_projectors():
    """Drop the cached dense projectors afterwards (about 50 MB at d = 4, n = 5)."""
    yield
    young_projectors.cache_clear()


ROUTE_SIZES = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 7)] + [(4, n) for n in range(1, 6)]


@pytest.mark.usefixtures("free_projectors")
class TestArrayRoutes:
    @pytest.mark.parametrize("d, n", ROUTE_SIZES)
    def test_projectors_match_character_sum(self, d, n):
        projs = young_projectors(n, d)
        oracle = oracles.character_sum_projectors(n, d)
        assert list(projs) == list(oracle)
        for lam, p in projs.items():
            assert np.max(np.abs(p - oracle[lam])) <= 1e-12, lam

    @pytest.mark.parametrize("d, n", ROUTE_SIZES)
    def test_routes_agree_over_every_label(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        labels = np.array(young.young_indices(n, d))
        spec = rng.dirichlet(np.ones(d))
        u = random_unitary(d, rng)
        dense = dense_block_probs(labels, tensor(*[u @ np.diag(spec) @ u.conj().T] * n))
        np.testing.assert_allclose(np.exp(log_block_probs_iid(labels, spec)), dense, rtol=0, atol=1e-10)
        assert dense.sum() == pytest.approx(1.0, abs=1e-10)
        spectra = [rng.dirichlet(np.ones(d)) for _ in range(n)]
        dense = dense_block_probs(labels, tensor(*(np.diag(q) for q in spectra)))
        np.testing.assert_allclose(diagonal_block_probs(labels, spectra), dense, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d, n", [(2, 6), (3, 5), (4, 4)])
    def test_per_label_names_are_array_entries(self, d, n):
        rng = np.random.default_rng(d + n)
        labels = young.young_indices(n, d)
        spec = rng.dirichlet(np.ones(d))
        content = tuple(int(c) for c in rng.multinomial(n, np.ones(d) / d))
        states = [random_density(d, rng) for _ in range(n)]
        logs = log_block_probs_iid(labels, spec)
        diagonal = diagonal_block_probs(labels, np.repeat(np.eye(d), content, axis=0))
        product = block_probs_product(labels, states)
        for i, lam in enumerate(labels):
            assert block_prob_iid(lam, spec) == pytest.approx(math.exp(logs[i]), rel=1e-14)
            assert block_prob_diagonal(lam, content) == diagonal[i]
            assert block_prob_product(lam, states) == product[i]
            if d == 2:
                assert log_block_prob_iid_two_level(*lam, *spec) == logs[i]

    @pytest.mark.parametrize("d, n", [(2, 7), (3, 5), (4, 4)])
    def test_letter_count_law_against_dict_dp_and_dense(self, d, n):
        # per-slot spectra, and a batch of every type of three atoms
        rng = np.random.default_rng(100 * d + n)
        labels = young.young_indices(n, d)

        def check(got, spectra):
            law = oracles.type_distribution(spectra)
            want = [math.fsum(p * float(young.exact_block_weight(lam, c)) for c, p in law.items()) for lam in labels]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            dense = dense_block_probs(labels, tensor(*map(np.diag, spectra)))
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-10)

        spectra = [rng.dirichlet(np.ones(d)) for _ in range(n)]
        check(diagonal_block_probs(labels, spectra), spectra)
        atoms = np.array([rng.dirichlet(np.ones(d)) for _ in range(2)] + [np.eye(d)[0]])
        types = np.array(young.compositions(n, 3))
        batch = diagonal_block_probs(labels, atoms, types)
        assert batch.shape == (len(types), len(labels))
        for tau, row in zip(types, batch):
            check(row, np.repeat(atoms, tau, axis=0))

    def test_labels_in_any_order(self):
        labels = np.array(young.young_indices(6, 3))
        spectra = [np.array([0.5, 0.3, 0.2])] * 6
        rho = tensor(*(np.diag(q) for q in spectra))
        for route, arg in ((diagonal_block_probs, spectra), (dense_block_probs, rho)):
            np.testing.assert_array_equal(route(labels[::-1], arg), route(labels, arg)[::-1])
        with pytest.raises(KeyError):
            diagonal_block_probs([(5, 0, 0)], spectra)
        with pytest.raises(KeyError):
            diagonal_block_probs([(2, 4)], [np.array([0.5, 0.5])] * 6)


# --- the banded two-row route against the full-length route it replaced -------

TWO_ROW_ATOMS = {
    1: [np.array([[0.63, 0.37]]), np.array([[1.0, 0.0]])],
    2: [np.array([[0.3, 0.7], [0.85, 0.15]]), np.array([[1.0, 0.0], [0.0, 1.0]]),  # point masses
        np.array([[0.45, 0.55], [0.0, 1.0]])],  # a zero letter
    3: [np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]), np.array([[1.0, 0.0], [0.37, 0.63], [0.0, 1.0]])],
}


def two_row_cases(n):
    """(atoms, types) of one to three atoms at n: every type, or a sample of 60."""
    rng = np.random.default_rng(n)
    for m, atoms in TWO_ROW_ATOMS.items():
        types = np.array(young.compositions(n, m))
        if len(types) > 60:
            types = types[rng.choice(len(types), 60, replace=False)]
        for spectra in atoms:
            yield spectra, types


@pytest.mark.parametrize("n", list(range(1, 41)) + [100, 1030, 2000])
def test_two_row_bands_against_convolved_route(n):
    # every block probability of the banded route within 1e-12 of the
    # full-length convolution and log-domain prefix; at n >= 1030 the
    # latter's log-factorials of about 5,900 to 13,000 round it by up to
    # 4e-12 itself where a type's law is a point mass, so there both are
    # held to the exact dim S_n(a) / C(n, max(c, n - c)) instead
    a = np.arange((n + 1) // 2, n + 1)
    labels = np.stack([a, n - a], axis=1)
    for spectra, types in two_row_cases(n):
        got = diagonal_block_probs(labels, spectra, types)
        points = (spectra.max(axis=1) == 1.0).all()
        if n < 1000 or not points:
            np.testing.assert_allclose(got, oracles.convolved_two_row_probs(spectra, types), rtol=0, atol=1e-12)
            continue
        for row, tau in zip(got[:6], types):
            c = int(tau @ spectra[:, 0])
            h = max(c, n - c)
            want = [young.dim_sym_group((int(x), n - int(x))) / math.comb(n, h) if x >= h else 0.0 for x in a]
            np.testing.assert_allclose(row, want, rtol=0, atol=2e-14)


@pytest.mark.parametrize("n, q", [(3000, 0.999), (5000, 0.95), (5000, 0.02)])
def test_two_row_bands_of_skewed_atoms(n, q):
    # an atom near a point mass: Hoeffding's window of its law is far wider
    # than Bernstein's of the product, which the FFT's length follows, so the
    # law is folded onto it whole; one type per call, so no other type widens it
    a = np.arange((n + 1) // 2, n + 1)
    labels = np.stack([a, n - a], axis=1)
    spectra = np.array([[q, 1 - q], [0.3, 0.7]])
    for types in ([[n, 0]], [[n - 7, 7]]):
        got = diagonal_block_probs(labels, spectra, types)
        np.testing.assert_allclose(got, oracles.convolved_two_row_probs(spectra, types), rtol=0, atol=1e-11)
        assert math.fsum(got[0]) == pytest.approx(1.0, abs=1e-10)


def test_two_row_bands_at_large_n():
    # at n = 1e5 a band holds a few thousand labels of the 50,001; above it
    # the block probabilities are dim S_n(a) times the type's total, below
    # it 0, and every type's probabilities sum to 1 (to the rounding of the
    # atoms' laws, whose log-factorials near 1e6 carry about 1e-10)
    n = 100_000
    atoms = np.array([[0.7, 0.3], [0.2, 0.8]])
    types = np.array([[70_000, 30_000], [50_000, 50_000], [1, 99_999]])
    start, bands, log_totals = schur_weyl.two_row_bands(atoms, types, 0)
    assert bands.shape[1] < 5000
    a = np.arange((n + 1) // 2, n + 1)
    labels = np.stack([a, n - a], axis=1)
    probs = diagonal_block_probs(labels, atoms, types)
    above = a >= (start + bands.shape[1])[:, None]
    with np.errstate(over="ignore"):  # below the bands, not compared
        tail = np.exp(young.log_dim_sym_group(labels) + log_totals[:, None])
    np.testing.assert_allclose(probs[above], tail[above], rtol=1e-9, atol=1e-300)
    assert (probs[a < start[:, None]] == 0.0).all()
    for row in probs:
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)


# --- the polarized route: non-commuting qubit atoms by one FFT per tilt ------

def two_row_labels(n):
    a = np.arange((n + 1) // 2, n + 1)
    return np.stack([a, n - a], axis=1)


@pytest.mark.parametrize("m", [2, 3])
def test_polarized_against_dense(m):
    # pure and mixed atoms, and one atom in no type (a zero-weight atom):
    # every type of every n <= 8, labels in young_indices order (a falling)
    rng = np.random.default_rng(40 + m)
    states = [random_density(2, rng, pure=bool(j % 2)) for j in range(m)] + [random_density(2, rng)]
    for n in range(1, 9):
        taus = np.array(young.compositions(n, m))
        labels = np.array(young.young_indices(n, 2))
        got = polarized_block_probs(labels, states, np.column_stack([taus, np.zeros(len(taus), dtype=int)]))
        for tau, row in zip(taus, got):
            rho = tensor(*(states[j] for j in np.repeat(np.arange(m), tau)))
            np.testing.assert_allclose(row, dense_block_probs(labels, rho), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1000, 10_000])
def test_polarized_against_diagonal_at_large_n(n):
    # commuting atoms fed straight to the polarized route: every kept type,
    # read from several tilts, against the banded letter-count route
    spectra = np.array([[0.8, 0.2], [0.35, 0.65]])
    taus, _ = codec._atom_types((0.75, 0.25), n)
    assert len(list(schur_weyl._tilts(taus))) > 1
    labels = two_row_labels(n)
    got = polarized_block_probs(labels, [np.diag(q) for q in spectra], taus)
    np.testing.assert_allclose(got, diagonal_block_probs(labels, spectra, taus), rtol=0, atol=1e-9)


def test_polarized_types_sum_to_one_at_n10000():
    n = 10_000
    rng = np.random.default_rng(12)
    states = [random_density(2, rng), random_density(2, rng, pure=True)]
    taus, _ = codec._atom_types((0.6, 0.4), n)
    got = polarized_block_probs(two_row_labels(n), states, taus)
    assert max(abs(math.fsum(row) - 1.0) for row in got) <= 1e-10


def test_polarized_tilts_read_each_type_near_its_own():
    # every type once, each at least 1/e as likely under its tilt as under tau/n
    taus = np.array(young.compositions(40, 3))
    tilts = list(schur_weyl._tilts(taus))
    rows = np.concatenate([r for _, r in tilts])
    assert sorted(rows.tolist()) == list(range(len(taus)))
    for s, r in tilts:
        own = schur_weyl.log_type_probs(taus[r] / 40, taus[r])
        assert (schur_weyl.log_type_probs(s, taus[r]) >= own - 1).all()


def test_polarized_grid_within_the_byte_budget(monkeypatch):
    labels = two_row_labels(200)
    taus, _ = codec._atom_types((0.5, 0.5), 200)
    states = [np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]
    whole = polarized_block_probs(labels, states, taus)
    monkeypatch.setattr(schur_weyl, "CHUNK_BYTES", 1)  # one label per chunk
    np.testing.assert_array_equal(polarized_block_probs(labels, states, taus), whole)
    monkeypatch.setattr(linalg, "MAX_BYTES", 1 << 10)
    with pytest.raises(DimensionBudgetError):
        polarized_block_probs(labels, states, taus)


LAW_SPECTRA = {
    2: [(0.3, 0.7), (0.08, 0.92), (1.0, 0.0), (0.0, 1.0)],
    3: [(0.2, 0.3, 0.5), (0.45, 0.0, 0.55), (0.0, 1.0, 0.0)],
    4: [(0.1, 0.2, 0.3, 0.4), (0.25, 0.0, 0.35, 0.4), (0.0, 0.0, 0.0, 1.0)],
}


@pytest.mark.parametrize("d, n", [(2, 90), (3, 24), (4, 12)])
def test_atom_laws_against_scipy_pmfs(d, n):
    # every count 0..n in one batch, against scipy's pmfs vector by vector:
    # above the cut to 1e-12 relative, below it the value or 0
    from scipy import stats
    cut = schur_weyl.NEGLIGIBLE_PMF
    strides = np.append((n + 1) ** np.arange(d - 2, -1, -1), 0)
    counts = np.arange(n + 1)
    for q in map(np.array, LAW_SPECTRA[d]):
        first, rows = schur_weyl._atom_laws(q, counts, strides)
        assert len(first) == len(rows) == n + 1
        for c, start, row in zip(counts.tolist(), first.tolist(), rows):
            vectors = np.array(list(young.compositions(c, d)))
            if d == 2:
                pmf = stats.binom.pmf(vectors[:, 0], c, q[0])
            else:
                pmf = stats.multinomial.pmf(vectors, c, q)
            at = vectors @ strides - start
            inside = (at >= 0) & (at < len(row))
            assert inside[pmf >= cut].all(), (q, c)
            got = row[at[inside]]
            big = pmf[inside] >= cut
            np.testing.assert_allclose(got[big], pmf[inside][big], rtol=1e-12, atol=0)
            small = got[~big]
            assert ((small == 0) | np.isclose(small, pmf[inside][~big], rtol=1e-12, atol=0)).all()
            assert np.count_nonzero(row) <= np.count_nonzero(got)  # nothing off the count vectors
            assert row[0] >= cut and row[-1] >= cut
            assert abs(math.fsum(row) - 1.0) <= c * (cut + 4e-15), (q, c)  # the cut, and rounding
            if np.count_nonzero(q) == 1:
                assert row.tolist() == [1.0] and start == c * strides[np.flatnonzero(q)[0]]
        # the window of a count does not depend on the other counts of its batch
        for c in (0, 1, n // 3, n):
            alone_first, (alone,) = schur_weyl._atom_laws(q, np.array([c]), strides)
            assert alone_first[0] == first[c] and np.array_equal(alone, rows[c])


def test_type_distribution():
    dist = oracles.type_distribution([np.array([0.7, 0.3])] * 3)
    assert dist[(3, 0)] == pytest.approx(0.7**3)
    assert dist[(2, 1)] == pytest.approx(3 * 0.7**2 * 0.3)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_tail_bounds_sweep():
    # per-block probability ceiling over a grid of spectra, exhaustive in blocks
    from qvlcode.bounds import log_block_probability_ceiling
    for p in ((0.95, 0.05), (0.8, 0.2), (0.7, 0.3), (0.55, 0.45), (0.5, 0.5)):
        for n in (50, 200, 500):
            for a in range((n + 1) // 2, n + 1):
                lhs = log_block_prob_iid_two_level(a, n - a, *p)
                rhs = log_block_probability_ceiling((a, n - a), p, 2)
                assert lhs <= rhs + 1e-9
