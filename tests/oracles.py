"""Reference implementations the tests hold the program against.

Symmetric-group characters by the Murnaghan-Nakayama rule; the block
projectors by the n!-term character sum
P_lam = (dim V_lam / n!) sum_sigma chi_lam(sigma) Perm(sigma), against
which the class-sum eigenspaces of ``schur_weyl.young_projectors`` are
checked; the linear-domain two-row bialternant; the letter-count law of
independent slots by a dict DP over partial count vectors, against which
the array law of ``schur_weyl.diagonal_block_probs`` is checked; the
two-row block probabilities and cluster expectations by a full-length
convolution per atom type read off by a log-domain prefix over every
label, and the atom types by enumerating every composition, against
which the banded route of ``schur_weyl`` and ``codec`` is checked; the
entropy of a count vector; the ten-start finite-difference SLSQP for the
overflow floor's divergence program, against which
``bounds._min_divergence`` is checked; the zero-sum ball by a loop over
its heads, against which the grid of ``info.sum_zero_ball`` is checked;
and the per-sample Monte Carlo
loop, against which the type-tallied sampling route of
``codec.cluster_expectations`` is checked.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache, reduce

import numpy as np

from scipy import optimize

from qvlcode import codec, info, young
from qvlcode.linalg import tensor
from qvlcode.schur_weyl import _atom_laws, dense_block_probs, permutation_index_map


@lru_cache(maxsize=None)
def character(parts: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Symmetric-group character of shape ``parts`` on class ``cycle_type``.

    Murnaghan-Nakayama recursion over border strips, memoized on the
    (shape, cycle type) pair.  The identity class returns the irrep
    dimension.
    """
    lam = young._strip_zeros(young._check_young(parts))
    mu = young._strip_zeros(young._check_young(cycle_type))
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{parts}| != |{cycle_type}|")
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    # Remove a border strip of k cells spanning contiguous rows i..j; the
    # remaining shape has row r = lam[r+1] - 1 for i <= r < j and row j
    # keeps whatever of k is left over.
    for i in range(len(lam)):
        for j in range(i, len(lam)):
            new = list(lam)
            taken = 0
            for r in range(i, j):
                taken += lam[r] - (lam[r + 1] - 1)
            rem = k - taken
            if rem <= 0:
                break
            if lam[j] - rem < 0:
                continue
            for r in range(i, j):
                new[r] = lam[r + 1] - 1
            new[j] = lam[j] - rem
            # validity: still nonincreasing and row i lost at least one cell
            if new[j] < (lam[j + 1] if j + 1 < len(lam) else 0):
                continue
            if i > 0 and new[i] > lam[i - 1]:
                continue
            if not all(new[r] >= new[r + 1] for r in range(len(new) - 1)):
                continue
            total += (-1) ** (j - i) * character(young._strip_zeros(tuple(new)), rest)
    return total


def cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n (cycle types of S_n), descending parts."""
    if n == 0:
        return ((),)
    return tuple(young._strip_zeros(p) for p in young.young_indices(n, n))


def conjugacy_class_size(cycle_type: tuple[int, ...]) -> int:
    """Number of permutations in S_n with the given cycle type."""
    mu = young._strip_zeros(tuple(int(c) for c in cycle_type))
    denom = 1
    for length, count in Counter(mu).items():
        denom *= length**count * math.factorial(count)
    return math.factorial(sum(mu)) // denom


def cycle_type_of(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given in one-line notation on 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def character_sum_projectors(n: int, d: int) -> dict[tuple[int, ...], np.ndarray]:
    """Every block projector of (C^d)^{x n} by the character sum over all n!
    slot permutations, accumulated per conjugacy class."""
    dim = d**n
    sums = {ct: np.zeros((dim, dim)) for ct in cycle_types(n)}
    cols = np.arange(dim)
    for sigma in itertools.permutations(range(n)):
        # a permutation's (image, column) pairs are distinct, so += adds each once
        sums[cycle_type_of(sigma)][permutation_index_map(sigma, d), cols] += 1.0
    out = {}
    for lam in young.young_indices(n, d):
        p = sum(character(lam, ct) * s for ct, s in sums.items())
        out[lam] = p * (young.dim_sym_group(lam) / math.factorial(n))
    return out


def schur_poly_bialternant2(lam: tuple[int, ...], x: float, y: float) -> float:
    """d=2 bialternant (x^{a+1} y^b - x^b y^{a+1})/(x - y), limit at x=y;
    a linear-domain cross-check of ``young.log_schur_two_rows``."""
    a, b = (tuple(lam) + (0, 0))[:2]
    if abs(x - y) < 1e-9 * max(abs(x), abs(y), 1.0):
        # confluent limit: (a - b + 1) * x^(a+b)
        return (a - b + 1) * x ** (a + b)
    return (x ** (a + 1) * y**b - x**b * y ** (a + 1)) / (x - y)


def type_distribution(spectra: list[np.ndarray]) -> dict[tuple[int, ...], float]:
    """Distribution of the letter-count vector of n independent digit draws.

    ``spectra[i]`` is the probability vector of slot i.  Dynamic program
    over slots; the state space is the set of partial count vectors.
    """
    d = len(spectra[0])
    dist: dict[tuple[int, ...], float] = {(0,) * d: 1.0}
    for q in spectra:
        nxt: dict[tuple[int, ...], float] = {}
        for counts, prob in dist.items():
            for i in range(d):
                if q[i] != 0.0:
                    key = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                    nxt[key] = nxt.get(key, 0.0) + prob * q[i]
        dist = nxt
    return dist


def shannon_entropy_of_counts(parts, n: int | None = None) -> float:
    """H(parts/n) in nats, with 0 log 0 = 0."""
    parts = [int(p) for p in parts]
    if n is None:
        n = sum(parts)
    if n == 0:
        return 0.0
    return -sum((p / n) * math.log(p / n) for p in parts if p > 0)


def slsqp_min_divergence(rate: float, p, slack: float, anchor=None, radius=None) -> float:
    """inf D(q' || p) over H(q) >= rate, ||q - q'|| <= slack and, with an
    ``anchor``, ||q - anchor|| <= radius, for d >= 3, q' held at 0 off
    the support of p: the best of ten SLSQP starts (the anchor, the uniform
    law, seeded Dirichlet draws) with finite-difference derivatives; +inf
    when no start succeeds."""
    p = np.asarray(p, dtype=float)
    d = len(p)

    def objective(z):
        qp = np.where(p > 0, np.clip(z[:d], 1e-14, None), 0.0)
        return info.divergence(qp / qp.sum(), p)

    constraints = [
        {"type": "eq", "fun": lambda z: z[:d].sum() - 1.0},
        {"type": "eq", "fun": lambda z: z[d:].sum() - 1.0},
        {"type": "ineq", "fun": lambda z: info.entropy(np.clip(z[d:], 0, None) / np.clip(z[d:], 0, None).sum()) - rate},
        {"type": "ineq", "fun": lambda z: slack**2 - ((z[:d] - z[d:]) ** 2).sum()},
    ]
    starts = [np.ones(d) / d]
    if anchor is not None:
        anchor = np.asarray(anchor, dtype=float)
        constraints.append({"type": "ineq", "fun": lambda z: radius**2 - ((z[d:] - anchor) ** 2).sum()})
        starts.insert(0, anchor)
    rng = np.random.default_rng(0)
    starts += [rng.dirichlet(np.ones(d)) for _ in range(10 - len(starts))]
    best = math.inf
    for q0 in starts:
        res = optimize.minimize(objective, np.concatenate([q0, q0]), method="SLSQP",
                                bounds=[(1e-12, 1.0) if v > 0 else (0.0, 0.0) for v in p] + [(1e-12, 1.0)] * d,
                                constraints=constraints,
                                options={"ftol": 1e-12, "maxiter": 500})
        if res.success:
            best = min(best, max(0.0, float(res.fun)))
    return best


def sum_zero_ball(x: float, d: int) -> list[tuple[int, ...]]:
    """``info.sum_zero_ball`` for d >= 3 by a loop over the heads: every
    (d - 1)-vector within floor(x) + 1 of 0 per coordinate, completed to
    sum 0, kept if its exact squared length is at most x^2 (1e-9 relative
    tie guard), sorted descending."""
    limit2 = x * x * (1 + 1e-9) + 1e-12
    reach = int(math.floor(x)) + 1
    out = []
    for head in itertools.product(range(-reach, reach + 1), repeat=d - 1):
        vec = head + (-sum(head),)
        if sum(v * v for v in vec) <= limit2:
            out.append(vec)
    return sorted(out, reverse=True)


def monte_carlo_expectations(code, source, exponents, samples: int, seed: int):
    """Cluster expectations of a non-commuting source by the per-sample loop:
    the atom-count vectors of ``default_rng(seed).multinomial``, one
    sequence, tensor product and set of dense block probabilities per draw,
    summed over each cluster of ``code.blocks``.  Returns (one dict per
    exponent, one stderr per exponent), the stderr from the running sums of
    each draw's accepted sum and of its square, by the sample variance
    (divisor samples - 1)."""
    n, m = code.n, source.num_atoms
    acc = code._accepted_mask
    labels = young.young_indices(n, code.d)
    column = {lam: j for j, lam in enumerate(labels)}
    clusters = [[column[lam] for lam in code.blocks[k]] for k in code.outcomes]
    totals = np.zeros((len(exponents), len(code.outcomes)))
    kept = [0.0] * len(exponents)
    sq = [0.0] * len(exponents)
    for tau in np.random.default_rng(seed).multinomial(n, source.weights, size=samples):
        seq = np.repeat(np.arange(m), tau)
        rho = tensor(*(source.states[j] for j in seq))
        probs = dense_block_probs(labels, rho)
        clipped = np.clip([probs[c].sum() for c in clusters], 0.0, 1.0)
        for j, e in enumerate(exponents):
            vals = clipped**e
            totals[j] += vals
            one = sum(vals[acc].tolist())
            kept[j] += one
            sq[j] += one * one
    stderrs = [math.sqrt(max(0.0, q - t * t / samples) / (samples - 1) / samples) / code.c1_count
               for t, q in zip(kept, sq)]
    return [dict(zip(code.outcomes, row.tolist())) for row in totals / samples], stderrs


def enumerated_atom_types(weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atom types of n draws from ``weights`` and their probabilities, by
    building every composition of n and dropping those of weight below
    ``codec.NEGLIGIBLE_WEIGHT`` over their count; compositions order."""
    taus = np.array(young.compositions(n, len(weights)))
    with np.errstate(divide="ignore", invalid="ignore"):  # tau_j ln w_j is 0 where tau_j = 0
        log_tau_w = np.where(taus > 0, taus * np.log(np.asarray(weights, dtype=float)), 0.0)
    log_w = young.log_factorial(n) - young.log_factorial(taus).sum(axis=1) + log_tau_w.sum(axis=1)
    keep = log_w >= math.log(codec.NEGLIGIBLE_WEIGHT / len(taus))
    return taus[keep], np.exp(log_w[keep])


def convolved_two_row_probs(spectra, types) -> np.ndarray:
    """Tr P_(a, n - a) of each atom type (rows of ``types``) for a = ceil(n/2),
    ..., n: each type's first-letter count law convolved over its atoms on
    the whole range 0..n, then dim S_n(a) times the sum over h <= a of
    law(h) / C(n, h), h = max(c, n - c), by a log-domain prefix."""
    types, spectra = np.asarray(types, dtype=np.int64), np.asarray(spectra, dtype=float)
    n = int(types[0].sum())
    starts, factors = np.zeros(len(types), dtype=np.int64), []
    for q, column in zip(spectra, types.T):
        distinct, inverse = np.unique(column, return_inverse=True)
        first, rows = _atom_laws(q, distinct, np.array([1, 0]))
        starts += first[inverse]
        factors.append([rows[i] for i in inverse.tolist()])
    law = np.zeros((len(types), n + 1))
    for row, start, parts in zip(law, starts.tolist(), zip(*factors)):
        vals = reduce(np.convolve, parts)
        row[start:start + len(vals)] = vals
    amin = (n + 1) // 2
    h = np.arange(amin, n + 1)
    by_h = law[:, amin:] + law[:, n - amin::-1]  # c = h and c = n - h
    if n % 2 == 0:
        by_h[:, 0] /= 2  # h = n/2 is a single c
    log_comb = young.log_factorial(n) - young.log_factorial(h) - young.log_factorial(n - h)
    with np.errstate(divide="ignore"):
        log_s = np.logaddexp.accumulate(np.log(by_h) - log_comb, axis=1)
    return np.exp(young.log_dim_sym_group(np.stack([h, n - h], axis=1)) + log_s)


def convolved_cluster_expectations(code, source, exponents) -> list[dict]:
    """Cluster expectations of a commuting qubit source: every enumerated
    atom type's ``convolved_two_row_probs`` summed over each outcome's
    window of labels (its first and last block in ``code.blocks``) by a
    difference of prefix sums, clipped to [0, 1], raised to each exponent
    and weighed with the type's probability."""
    _, diags = codec.joint_eigenbasis(source.states)
    spectra = np.clip(diags, 0.0, None)
    taus, weights = enumerated_atom_types(source.weights, code.n)
    probs = convolved_two_row_probs(spectra, taus)  # column j is the label (amin + j, n - amin - j)
    amin = (code.n + 1) // 2
    prefix = np.column_stack([np.zeros(len(probs)), np.cumsum(probs, axis=1)])
    windows = np.array([(lams[-1][0] - amin, lams[0][0] - amin + 1) for lams in map(code.blocks.get, code.outcomes)])
    clusters = np.clip(prefix[:, windows[:, 1]] - prefix[:, windows[:, 0]], 0.0, 1.0)
    return [dict(zip(code.outcomes, (weights @ clusters**e).tolist())) for e in exponents]
