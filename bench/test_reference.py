"""The independent computations against values derived by hand at n = 2, 3."""

import itertools
import math

import numpy as np
import pytest

import reference as ref

X, Y = 0.75, 0.25  # exact in binary, so x + y == 1 exactly


def test_dimensions_by_hooks():
    assert [ref.dim_sym(lam) for lam in ((3, 0), (2, 1), (1, 1, 1), (2, 1, 0))] == [1, 2, 1, 2]
    assert [ref.dim_unitary(lam, 2) for lam in ((3, 0), (2, 1), (1, 1))] == [4, 2, 1]
    assert [ref.dim_unitary(lam, 3) for lam in ((2, 1, 0), (1, 1, 1), (2, 0, 0))] == [8, 1, 6]
    # (C^3)^{x3} = 10 x 1 + 8 x 2 + 1 x 1
    assert sum(ref.dim_unitary(lam, 3) * ref.dim_sym(lam) for lam in ref.partitions(3, 3)) == 27


def test_schur_bialternant_small_shapes():
    x, y, z = 0.5, 0.3, 0.2
    assert float(ref.schur_bialternant((2, 0), (X, Y))) == pytest.approx(X * X + X * Y + Y * Y, abs=1e-15)
    assert float(ref.schur_bialternant((1, 1), (X, Y))) == pytest.approx(X * Y, abs=1e-15)
    assert float(ref.schur_bialternant((1, 1, 0), (x, y, z))) == pytest.approx(x * y + x * z + y * z, abs=1e-15)
    assert float(ref.schur_bialternant((2, 1, 0), (x, y, z))) == pytest.approx(
        (x + y) * (x + z) * (y + z), abs=1e-15)


def test_qubit_lattice_n2():
    lat = ref.qubit_lattice(2, ref.schedule(2)[0])
    # n*delta = 2^(3/4) = 1.68: t = 1 since 2 <= 2.83 < 8
    assert (lat.t, lat.c1, lat.amin) == (1, 3, 1)
    assert lat.k0.tolist() == [3, 2, 1, 0]
    assert list(zip(lat.lo.tolist(), lat.hi.tolist())) == [(2, 2), (1, 2), (1, 2), (1, 1)]
    # blocks (2,0) and (1,1) have dimensions 3 and 1; four outcomes
    want = [math.log(4) + math.log(d) for d in (3, 4, 4, 1)]
    assert lat.log_lengths == pytest.approx(want, abs=1e-15)
    probs = [float(p) for p in lat.outcome_probs((X, Y))]
    assert probs == pytest.approx([(1 - X * Y) / 3, 1 / 3, 1 / 3, X * Y / 3], abs=1e-15)


def test_qubit_lattice_n3():
    lat = ref.qubit_lattice(3, ref.schedule(3)[0])
    assert (lat.t, lat.amin) == (1, 2)
    # blocks (3,0): 4 x 1 and (2,1): 2 x 2
    want = [math.log(4) + math.log(d) for d in (4, 8, 8, 4)]
    assert lat.log_lengths == pytest.approx(want, abs=1e-15)
    probs = [float(p) for p in lat.outcome_probs((X, Y))]
    top, mid = 1 - 2 * X * Y, 2 * X * Y  # s_(3,0) and 2 s_(2,1) at x + y = 1
    assert probs == pytest.approx([top / 3, 1 / 3, 1 / 3, mid / 3], abs=1e-15)


def test_letter_weights_n2():
    lat = ref.qubit_lattice(2, ref.schedule(2)[0])
    # c = 0 or 2 zeros: only block (2,0); c = 1: both blocks, weight 1/2 each
    want = [[1, 1, 1, 0], [0.5, 1, 1, 0.5], [1, 1, 1, 0]]
    assert ref.letter_weights(lat) == pytest.approx(np.array(want), abs=1e-15)


def test_basis_source_errors_n2():
    lat = ref.qubit_lattice(2, ref.schedule(2)[0])
    ex = ref.commuting_expectations(lat, (X, Y), (1.0, 0.0), (1.0, 1.5, 2.0))
    err = {e: 1 - v.sum() / lat.c1 for e, v in ex.items()}
    assert err[1.0] == pytest.approx(0.0, abs=1e-15)
    assert err[1.5] == pytest.approx(2 * X * Y * (1 - 2 ** -0.5) / 3, abs=1e-15)
    assert err[2.0] == pytest.approx(X * Y / 3, abs=1e-15)


def test_commuting_types_match_sequence_enumeration():
    n, weights, zeros = 3, (0.6, 0.4), (0.9, 0.3)
    lat = ref.qubit_lattice(n, ref.schedule(n)[0])
    tmat = ref.letter_weights(lat)
    want = np.zeros(len(lat.k0))
    for seq in itertools.product(range(2), repeat=n):
        pmf = np.zeros(n + 1)
        for letters in itertools.product((0, 1), repeat=n):  # 0 is the letter "zero"
            pmf[letters.count(0)] += math.prod(zeros[j] if b == 0 else 1 - zeros[j]
                                               for j, b in zip(seq, letters))
        want += math.prod(weights[j] for j in seq) * (pmf @ tmat) ** 1.5
    got = ref.commuting_expectations(lat, weights, zeros, (1.5,))[1.5]
    assert got == pytest.approx(want, abs=1e-14)


def test_qudit_lattice_n2():
    lat = ref.lattice(2, 3, ref.schedule(2)[0])
    # radius 1.68: the origin and the six permutations of (1, -1, 0)
    assert lat.c1 == 7
    assert lat.labels == [(2, 0, 0), (1, 1, 0)]
    probs = lat.outcome_probs((0.5, 0.3, 0.2))
    assert float(sum(probs)) == pytest.approx(1.0, abs=1e-30)
    blocks = [float(b) for b in lat.block_probs((0.5, 0.3, 0.2))]
    assert blocks == pytest.approx([1 - 0.31, 0.31], abs=1e-15)  # e2 = 0.15 + 0.1 + 0.06


def test_tilted_exponent_hand_values():
    # rate ln 3 forces the uniform law
    want = math.log(2 / 3) / 3 + 2 * math.log(4 / 3) / 3
    assert ref.tilted_exponent(math.log(3), (0.5, 0.25, 0.25)) == pytest.approx(want, abs=1e-12)
    # d = 2: the contour point of rate h(0.4) is (0.6, 0.4)
    h = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
    want = 0.6 * math.log(0.6 / 0.75) + 0.4 * math.log(0.4 / 0.25)
    assert ref.tilted_exponent(h, (X, Y)) == pytest.approx(want, abs=1e-12)
    assert ref.tilted_exponent(0.1, (X, Y)) == 0.0


def test_overflow_and_rate_choice():
    log_lengths, probs = [3.0, 2.0, 2.0, 1.0], [0.1, 0.2, 0.3, 0.4]
    assert ref.pick_rate(log_lengths, probs, 1, 0.05) == 2.5
    assert ref.pick_rate(log_lengths, probs, 1, 0.5) == 1.5
    assert float(ref.overflow(log_lengths, probs, 1, 1.5)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        ref.pick_rate(log_lengths, probs, 1, 0.99)
