import math

import numpy as np
import pytest

from qvlcode import linalg

from qvlcode.linalg import (
    DimensionBudgetError,
    Source,
    basis_source,
    bures,
    factor_fidelity,
    fidelity,
    joint_eigenbasis,
    partial_trace,
    psd_factor,
    psd_sqrt,
    pure_source,
    pure_state,
    random_density,
    random_unitary,
    tensor,
    validate_density,
)

RNG = np.random.default_rng(20240811)


def test_tensor_identity():
    i2 = np.eye(2)
    assert np.array_equal(tensor(i2, i2), np.eye(4))


def test_tensor_diagonal():
    a = np.diag([2.0, 3.0])
    b = np.diag([5.0, 7.0])
    assert np.allclose(tensor(a, b), np.diag([10.0, 14.0, 15.0, 21.0]))


def test_tensor_mixed_product_identity():
    for _ in range(5):
        a, b, c, d = (RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_equals_kron():
    # the product is built from the last factor outward, so it may differ
    # from np.kron chained in order in the last bits only
    rng = np.random.default_rng(3)
    for shapes in ([(2, 2)] * 9, [(3, 3)] * 5, [(2, 3), (3, 2), (2, 2), (1, 4)]):
        factors = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        factors[0] = factors[0].real  # a real factor among complex ones
        want = np.ones((1, 1), dtype=complex)
        for f in factors:
            want = np.kron(want, f)
        got = tensor(*factors)
        assert got.shape == want.shape and got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), shapes


def test_tensor_budget(monkeypatch):
    with pytest.raises(DimensionBudgetError):
        tensor(*[np.eye(2)] * 13)
    # MAX_BYTES is the only budget: 16 x 16 complex entries fill 4096 bytes
    monkeypatch.setattr(linalg, "MAX_BYTES", 16 * 16 * 16)
    assert tensor(*[np.eye(2)] * 4).shape == (16, 16)
    with pytest.raises(DimensionBudgetError):
        tensor(*[np.eye(2)] * 5)


def test_fidelity_identity():
    rho = random_density(3, RNG)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure():
    zero = pure_state([1, 0])
    one = pure_state([0, 1])
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_zero_plus():
    zero = pure_state([1, 0])
    plus = pure_state([1, 1])
    assert fidelity(zero, plus) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_fidelity_symmetric():
    for _ in range(10):
        rho = random_density(3, RNG)
        sigma = random_density(3, RNG)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-12)


def test_fidelity_pure_equals_overlap():
    for _ in range(10):
        u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = fidelity(pure_state(u), pure_state(v))
        assert f == pytest.approx(abs(np.vdot(u, v)), abs=1e-12)


def test_bures_examples():
    rho = random_density(2, RNG)
    assert bures(rho, rho) == pytest.approx(0.0, abs=1e-7)
    assert bures(pure_state([1, 0]), pure_state([0, 1])) == pytest.approx(1.0, abs=1e-12)
    expected = math.sqrt(1 - 1 / math.sqrt(2))
    assert bures(pure_state([1, 0]), pure_state([1, 1])) == pytest.approx(expected, abs=1e-12)


def test_partial_trace_product():
    rho1 = random_density(2, RNG)
    rho2 = random_density(2, RNG)
    prod = tensor(rho1, rho2)
    assert np.allclose(partial_trace(prod, 2, 0), rho1, atol=1e-13)
    assert np.allclose(partial_trace(prod, 2, 1), rho2, atol=1e-13)


def test_partial_trace_maximally_mixed():
    state = np.eye(4) / 4
    assert np.allclose(partial_trace(state, 2, 0), np.eye(2) / 2)


def test_partial_trace_preserves_trace():
    rho = random_density(4, RNG)  # generic 2-qubit state
    reduced = partial_trace(rho, 2, 1)
    assert np.trace(reduced) == pytest.approx(np.trace(rho), abs=1e-13)
    # direct-summation oracle
    oracle = np.zeros((2, 2), dtype=complex)
    t = rho.reshape(2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            oracle[i, j] = sum(t[a, i, a, j] for a in range(2))
    assert np.allclose(reduced, oracle, atol=1e-13)


def test_partial_trace_three_slots():
    factors = [random_density(2, RNG) for _ in range(3)]
    prod = tensor(*factors)
    for i in range(3):
        assert np.allclose(partial_trace(prod, 2, i), factors[i], atol=1e-12)


def test_partial_trace_bad_dimension():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, 2, 0)


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_reconstruction():
    for _ in range(5):
        g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = g @ g.conj().T
        root = psd_sqrt(m)
        assert np.max(np.abs(root @ root - m)) < 1e-10 * max(1, np.linalg.norm(m))
        assert np.max(np.abs(root - root.conj().T)) < 1e-12 * max(1, np.linalg.norm(m))
        assert np.linalg.eigvalsh(root)[0] > -1e-12 * np.linalg.norm(m)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_validate_density():
    validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        validate_density(np.eye(2))  # trace 2


def test_source_average_state():
    src = basis_source(2, (0.75, 0.25))
    assert np.allclose(src.average_state(), np.diag([0.75, 0.25]))
    with pytest.raises(ValueError):
        Source(d=2, weights=(0.5, 0.6), states=src.states)


def test_pure_source_normalizes():
    src = pure_source(2, [[2, 0], [1, 1]], (0.5, 0.5))
    for rho in src.states:
        assert np.trace(rho) == pytest.approx(1.0)


def test_joint_eigenbasis_commuting():
    d1 = np.diag([0.8, 0.2]).astype(complex)
    d2 = np.diag([0.3, 0.7]).astype(complex)
    u = random_unitary(2, RNG)
    out = joint_eigenbasis([u @ d1 @ u.conj().T, u @ d2 @ u.conj().T])
    assert out is not None
    _, diags = out
    assert sorted(np.round(diags[0], 10)) == [0.2, 0.8]


def test_joint_eigenbasis_noncommuting():
    assert joint_eigenbasis([pure_state([1, 0]), pure_state([1, 1])]) is None


# --- stacks: leading axes broadcast, each matrix checked on its own -----------

def _state_stack(d: int, count: int) -> np.ndarray:
    """Random states of mixed rank: pure, rank 2, full rank, and the zero-padded
    embedding of a smaller state (exactly rank-deficient)."""
    rng = np.random.default_rng(d)
    out = []
    for i in range(count):
        if i % 4 == 0:
            out.append(random_density(d, rng, pure=True))
        elif i % 4 == 1:
            v = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
            m = v @ v.conj().T
            out.append(m / np.trace(m).real)
        elif i % 4 == 2:
            out.append(random_density(d, rng))
        else:
            m = np.zeros((d, d), dtype=complex)
            m[:d - 1, :d - 1] = random_density(d - 1, rng)
            out.append(m)
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_psd_sqrt_stack_equals_loop(d):
    stack = _state_stack(d, 8)
    got = psd_sqrt(stack)
    assert got.shape == stack.shape
    for g, m in zip(got, stack):
        assert np.max(np.abs(g - psd_sqrt(m))) <= 1e-13
    # two leading axes
    assert np.allclose(psd_sqrt(stack.reshape(2, 4, d, d)), got.reshape(2, 4, d, d), atol=1e-13, rtol=0)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_fidelity_stack_equals_loop(d):
    rhos, sigmas = _state_stack(d, 8), _state_stack(d, 12)[4:]
    pairs = fidelity(rhos, sigmas)
    assert isinstance(pairs, np.ndarray) and pairs.shape == (8,)
    one_many = fidelity(rhos[0], sigmas)
    for i in range(8):
        assert pairs[i] == pytest.approx(fidelity(rhos[i], sigmas[i]), abs=1e-13)
        assert one_many[i] == pytest.approx(fidelity(rhos[0], sigmas[i]), abs=1e-13)
    assert np.allclose(fidelity(rhos, rhos), 1.0, atol=1e-12, rtol=0)
    value = fidelity(rhos[1], sigmas[1])
    assert type(value) is float


@pytest.mark.parametrize("d", [2, 3, 8])
def test_factor_fidelity_against_fidelity(d):
    # Uhlmann: F(V V*, X X*) = |V* X|_1 for any factors V and X, of any width
    rhos, sigmas = _state_stack(d, 8), _state_stack(d, 12)[4:]
    for m in (*rhos, *sigmas):
        v = psd_factor(m)
        assert v.shape == (d, np.linalg.matrix_rank(m, tol=1e-10))
        assert np.max(np.abs(v @ v.conj().T - m)) <= 1e-12
    square = psd_sqrt(sigmas) @ random_unitary(d, RNG)  # a stack of other factors of the same states
    for rho in rhos:
        want = fidelity(rho, sigmas)
        assert np.max(np.abs(factor_fidelity(psd_factor(rho), square) - want)) <= 1e-12
        for i, sigma in enumerate(sigmas):
            assert factor_fidelity(psd_factor(rho), psd_factor(sigma)) == pytest.approx(want[i], abs=1e-12)
    assert type(factor_fidelity(psd_factor(rhos[0]), square[0])) is float


def test_stack_with_one_bad_member_raises():
    stack = _state_stack(3, 6)
    skew = stack.copy()
    skew[4, 0, 1] += 1e-6  # one member not Hermitian
    negative = stack.copy()
    negative[2] = np.diag([1.2, 0.0, -0.2]).astype(complex)  # one member with a negative eigenvalue
    for bad in (skew, negative):
        with pytest.raises(ValueError):
            psd_sqrt(bad)
        with pytest.raises(ValueError):
            fidelity(stack[0], bad)


def test_stack_negativity_is_relative_to_each_member():
    # -1e-9 is roundoff beside an eigenvalue of 1e3 but not beside 1
    big = np.diag([1e3, -1e-9]).astype(complex)
    assert np.allclose(psd_sqrt(np.array([big, np.eye(2)])), [np.diag([1e3**0.5, 0.0]), np.eye(2)])
    with pytest.raises(ValueError):
        psd_sqrt(np.array([big, np.diag([1.0, -1e-9]).astype(complex)]))


def test_partial_trace_stack_equals_loop():
    rng = np.random.default_rng(11)
    stack = np.array([tensor(*(random_density(2, rng) for _ in range(4))) for _ in range(3)])
    for keep in range(4):
        got = partial_trace(stack, 2, keep)
        assert got.shape == (3, 2, 2)
        for g, s in zip(got, stack):
            assert np.allclose(g, partial_trace(s, 2, keep), atol=1e-14, rtol=0)
