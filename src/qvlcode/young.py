"""Partition combinatorics for the block decomposition of (C^d)^{x n}.

A block label is a partition of n into at most d parts, stored as a
tuple of d nonincreasing nonnegative integers (trailing zeros kept).
Dimension counts are exact big integers (``dim_*``), and their logarithms
come from lgamma and product formulas (``log_dim_*``), one label or an
array of labels at a time.  Schur values come from the log-domain
bialternant (``log_schur``, and ``log_schur_two_rows`` for two rows), in
O(d! d^2) per label at any n.  Kostka numbers give the exact rational
block weights of commuting products (``exact_block_weight``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

NEG_INF = float("-inf")


def is_young_index(parts: tuple[int, ...]) -> bool:
    """True if parts is nonincreasing with nonnegative integer entries."""
    return all(int(p) == p and p >= 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def _check_young(parts) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    if not is_young_index(parts):
        raise ValueError(f"{parts} is not a valid nonincreasing partition")
    return parts


@lru_cache(maxsize=None)
def young_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n into at most d parts, padded to length d.

    Sorted lexicographically descending, so (n, 0, ..., 0) comes first.
    """
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")

    def gen(remaining: int, slots: int, cap: int):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lo = -(-remaining // slots)  # ceil: first part at least the average
        for first in range(min(cap, remaining), lo - 1, -1):
            for rest in gen(remaining - first, slots - 1, first):
                yield (first,) + rest

    return tuple(gen(n, d, n))


@lru_cache(maxsize=None)
def dim_sym_group(parts: tuple[int, ...]) -> int:
    """Dimension of the symmetric-group irrep of shape ``parts``.

    Equals the number of standard tableaux; computed by the factorial
    quotient n! / prod (lam_i + d - i)! times the Vandermonde-type
    product over pairs, all in exact integer arithmetic.
    """
    parts = _check_young(parts)
    n = sum(parts)
    d = len(parts)
    if n == 0:
        return 1
    num = math.factorial(n)
    for j in range(1, d):
        for i in range(j):
            num *= parts[i] - parts[j] - i + j
    den = 1
    for i, p in enumerate(parts):
        den *= math.factorial(p + d - 1 - i)
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def dim_unitary_group(parts: tuple[int, ...], d: int) -> int:
    """Dimension of the SU(d) irrep with highest weight ``parts``.

    Weyl dimension formula: prod over i<j of (lam_i - lam_j + j - i)/(j - i).
    """
    parts = _check_young(parts)
    if len(parts) > d:
        if any(p > 0 for p in parts[d:]):
            raise ValueError(f"partition {parts} has more than d={d} parts")
        parts = parts[:d]
    parts = parts + (0,) * (d - len(parts))
    num = den = 1
    for j in range(1, d):
        for i in range(j):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def dim_block(parts: tuple[int, ...], d: int) -> int:
    """Total dimension of one block: dim(SU irrep) * dim(S_n irrep)."""
    return dim_unitary_group(tuple(parts), d) * dim_sym_group(tuple(parts))


def multinomial(counts) -> int:
    """Multinomial coefficient n! / prod counts_i! for nonnegative counts."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("negative count")
    out = 1
    seen = 0
    for c in counts:
        seen += c
        out *= math.comb(seen, c)
    return out


def _strip_zeros(parts: tuple[int, ...]) -> tuple[int, ...]:
    k = len(parts)
    while k > 0 and parts[k - 1] == 0:
        k -= 1
    return parts[:k]


@lru_cache(maxsize=None)
def character(parts: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Symmetric-group character of shape ``parts`` on class ``cycle_type``.

    Murnaghan-Nakayama recursion over border strips, memoized on the
    (shape, cycle type) pair.  The identity class returns the irrep
    dimension; the cache is shared process-wide (lru_cache is safe under
    concurrent readers).
    """
    lam = _strip_zeros(_check_young(parts))
    mu = _strip_zeros(_check_young(cycle_type))
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
            # remainder on row j
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
            height = j - i
            total += (-1) ** height * character(
                tuple(_strip_zeros(tuple(new))), tuple(rest)
            )
    return total


@lru_cache(maxsize=None)
def cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n (cycle types of S_n), descending parts."""
    if n == 0:
        return ((),)
    return tuple(_strip_zeros(p) for p in young_indices(n, n))


@lru_cache(maxsize=None)
def conjugacy_class_size(cycle_type: tuple[int, ...]) -> int:
    """Number of permutations in S_n with the given cycle type."""
    mu = _strip_zeros(tuple(int(c) for c in cycle_type))
    n = sum(mu)
    denom = 1
    for length, count in Counter(mu).items():
        denom *= length**count * math.factorial(count)
    return math.factorial(n) // denom


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


# --- Kostka numbers -------------------------------------------------------

def _majorizes(lam: tuple[int, ...], mu_sorted: tuple[int, ...]) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu_sorted))):
        a += lam[i] if i < len(lam) else 0
        b += mu_sorted[i] if i < len(mu_sorted) else 0
        if a < b:
            return False
    return True


@lru_cache(maxsize=None)
def _kostka_rec(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    if sum(lam) != sum(mu):
        return 0
    if len(mu) == 1:
        return 1 if lam == (mu[0],) else 0
    last = mu[-1]
    head = mu[:-1]
    total = 0
    for nu in _horizontal_strip_predecessors(lam, last):
        total += _kostka_rec(nu, head)
    return total


def _horizontal_strip_predecessors(lam: tuple[int, ...], k: int):
    """Shapes nu with |lam| - |nu| = k and lam/nu a horizontal strip."""
    lam = _strip_zeros(lam)
    rows = len(lam)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == rows:
            if remaining == 0:
                yield _strip_zeros(prefix)
            return
        below = lam[i + 1] if i + 1 < rows else 0
        upper_cap = prefix[-1] if prefix else lam[i]
        # nu_i between max(below, lam_i - remaining) and min(lam_i, nu_{i-1});
        # horizontal strip also needs nu_i >= lam_{i+1}
        lo = max(below, lam[i] - remaining)
        hi = min(lam[i], upper_cap)
        for v in range(hi, lo - 1, -1):
            yield from rec(i + 1, remaining - (lam[i] - v), prefix + (v,))

    yield from rec(0, k, ())


def kostka(lam: tuple[int, ...], mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Zero unless lam majorizes the sorted content.  Two-row shapes with a
    two-letter content take a constant-time path (the filling is forced).
    """
    lam = _strip_zeros(_check_young(lam))
    mu = tuple(int(c) for c in mu)
    if any(c < 0 for c in mu):
        raise ValueError("negative content entry")
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    mu_clean = tuple(c for c in mu if c > 0)
    if len(lam) <= 2 and len(mu_clean) <= 2:
        a = lam[0] if lam else 0
        return 1 if a >= max(mu_clean, default=0) else 0
    if not _majorizes(lam, tuple(sorted(mu_clean, reverse=True))):
        return 0
    return _kostka_rec(lam, mu_clean)


# --- Schur polynomials ----------------------------------------------------

def log_schur_two_rows(a, b, x: float, y: float):
    """log s_(a,b)(x, y) by the bialternant (x^(a+1) y^b - x^b y^(a+1)) / (x - y).

    With x >= y and r = y/x this is a log x + b log y + log(1 - r^(a-b+1))
    - log(1 - r), and (a - b + 1) x^(a+b) at r = 1: constant time per
    shape at any block size.  ``a`` and ``b`` may be integer arrays.
    """
    if x < 0 or y < 0:
        raise ValueError("negative spectrum entry")
    x, y = max(x, y), min(x, y)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if x == 0.0:
        out = np.where(a + b == 0, 0.0, NEG_INF)
    elif y == 0.0:
        out = np.where(b == 0, a * math.log(x), NEG_INF)
    elif x == y:
        out = (a + b) * math.log(x) + np.log(a - b + 1)
    else:
        u = (x - y) / x  # 1 - r, exact when x and y are close
        out = (a * math.log(x) + b * math.log(y)
               + np.log(-np.expm1((a - b + 1) * math.log1p(-u))) - math.log(u))
    return float(out) if out.ndim == 0 else out


# A bialternant sum whose terms exceed its value by more than this factor
# would keep fewer than about ten correct digits; such labels are summed
# in exact rational arithmetic instead.
MAX_CANCELLATION = 1e5


@lru_cache(maxsize=None)
def _laplace_terms(groups: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Column-to-group assignments of the Laplace expansion of a confluent
    bialternant whose rows come in the given groups, and their signs.

    ``groups`` is nondecreasing and is itself the first (identity)
    assignment; with distinct entries the assignments are the r!
    permutations and the expansion is Leibniz's.
    """
    assign = np.array(sorted(set(itertools.permutations(groups))), dtype=np.int64).reshape(-1, len(groups))
    i, j = np.triu_indices(len(groups), 1)
    return assign, 1 - 2 * ((assign[:, i] > assign[:, j]).sum(axis=1) % 2)


def log_schur(labels, spec):
    """log s_lam(spec) for one label or an (L, w) array of labels.

    The bialternant det[x_i^(e_j)] / det[x_i^(d-j)], e = lam + delta
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3), over the
    nonzero entries x sorted descending; a label with more parts than x
    gets -inf.  Exactly equal entries form groups whose rows take the
    confluent limit: group (value y, m entries) on columns S has the minor
    y^(sum_S e - m(m-1)/2) prod_{i<j in S} (e_i - e_j), up to a constant
    that cancels.  The Laplace expansion over placements of the groups is
    divided by its leading term (each group on its own columns); with
    distinct entries each term is then exp(e . (log x_sigma - log x)) <= 1.
    The denominator is the leading term prod x_i^(d-i) times
    exp(sum of log1p(-x_j / x_i) over pairs i<j of unequal entries).  With
    one group this is Weyl's dimension formula times y^n.  Nearly equal
    entries cancel: the relative error is about machine epsilon times
    (sum of |terms|) / (their sum), so labels above MAX_CANCELLATION take
    ``_exact_log_schur``.  O(L d^2) per placement, at most d! placements.
    """
    lam = np.asarray(labels, dtype=np.int64)
    single = lam.ndim == 1
    lam = lam.reshape(-1, lam.shape[-1])
    x = np.asarray(spec, dtype=float).ravel()
    if np.any(x < -1e-15):
        raise ValueError("spectrum entries must be nonnegative")
    x = np.sort(x[x > 0])[::-1]
    r = len(x)
    if r == 0:
        out = np.where(lam.any(axis=1), NEG_INF, 0.0)
        return float(out[0]) if single else out
    width = lam.shape[1]
    outside = lam[:, r:].any(axis=1) if width > r else np.zeros(len(lam), dtype=bool)
    lam = np.pad(lam[:, :r], ((0, 0), (0, max(0, r - width))))
    group = np.concatenate([[0], np.cumsum(x[1:] != x[:-1])]).astype(np.int64)
    logy = np.log(x[np.flatnonzero(np.diff(group, prepend=-1))])
    e = lam + np.arange(r - 1, -1, -1)
    i, j = np.triu_indices(r, 1)
    logdiff = np.log((e[:, i] - e[:, j]).astype(float))
    own = group[i] == group[j]
    own_logdiff = logdiff[:, own].sum(axis=1)
    total = np.zeros(len(lam))
    size = np.zeros(len(lam))
    for assign, sign in zip(*_laplace_terms(tuple(group.tolist()))):
        term = np.exp(e @ (logy[assign] - logy[group]) + logdiff[:, assign[i] == assign[j]].sum(axis=1)
                      - own_logdiff)
        total += sign * term
        size += term
    with np.errstate(divide="ignore", invalid="ignore"):  # cancelled or outside: overwritten below
        out = (lam @ logy[group] + own_logdiff - np.log((j - i)[own]).sum()
               + np.log(total) - np.log1p(-x[j[~own]] / x[i[~own]]).sum())
    cancelled = np.flatnonzero(~(size <= MAX_CANCELLATION * total) & ~outside)
    out[cancelled] = [_exact_log_schur(row, x, group) for row in lam[cancelled].tolist()]
    out[outside] = NEG_INF
    return float(out[0]) if single else out


def _exact_log_schur(lam: list[int], x: np.ndarray, group: np.ndarray) -> float:
    """log s_lam(x) by the expansion of ``log_schur`` in exact rational
    arithmetic (every float is a dyadic rational), for labels whose float
    sum cancels; the constants that cancel between numerator and
    denominator are left out of both."""
    y = [Fraction(v) for v in x[np.flatnonzero(np.diff(group, prepend=-1))].tolist()]
    placements = list(zip(*_laplace_terms(tuple(group.tolist()))))

    def alternant(e: list[int]) -> Fraction:
        total = Fraction(0)
        for assign, sign in placements:
            term = Fraction(int(sign))
            for g, value in enumerate(y):
                cols = [v for v, a in zip(e, assign) if a == g]
                term *= value ** (sum(cols) - len(cols) * (len(cols) - 1) // 2)
                term *= math.prod(a - b for a, b in itertools.combinations(cols, 2))
            total += term
        return total

    r = len(x)
    s = alternant([v + r - 1 - k for k, v in enumerate(lam)]) / alternant(list(range(r - 1, -1, -1)))
    return math.log(s.numerator) - math.log(s.denominator)


def schur_poly(lam: tuple[int, ...], spec) -> float:
    """Schur polynomial s_lam evaluated on a nonnegative vector: exp(log_schur).

    Symmetric in the entries and homogeneous of degree |lam|.
    """
    val = log_schur(_check_young(lam), spec)
    return math.exp(val) if val > NEG_INF else 0.0


@lru_cache(maxsize=None)
def compositions(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All length-d tuples of nonnegative integers summing to n."""
    if d == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in compositions(n - first, d - 1):
            out.append((first,) + rest)
    return tuple(out)


def schur_poly_bialternant2(lam: tuple[int, ...], x: float, y: float) -> float:
    """d=2 bialternant (x^{a+1} y^b - x^b y^{a+1})/(x - y), limit at x=y.

    Kept as a linear-domain cross-check of ``log_schur_two_rows``.
    """
    a, b = (tuple(lam) + (0, 0))[:2]
    if abs(x - y) < 1e-9 * max(abs(x), abs(y), 1.0):
        # confluent limit: (a - b + 1) * x^(a+b)
        return (a - b + 1) * x ** (a + b)
    return (x ** (a + 1) * y**b - x**b * y ** (a + 1)) / (x - y)


def _log_vandermonde(l: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(l.shape[-1], 1)
    return np.log(l[..., i] - l[..., j]).sum(axis=-1)


def log_dim_sym_group(labels):
    """log dim of the S_n irrep, for one label or an (L, d) array of labels.

    Frobenius' hook length formula in lgamma, with l = lam + delta:
    ln n! - sum ln l_i! + sum over i<j of ln(l_i - l_j).
    """
    lam = np.asarray(labels, dtype=float)
    l = lam + np.arange(lam.shape[-1] - 1, -1, -1)
    out = gammaln(lam.sum(axis=-1) + 1) - gammaln(l + 1).sum(axis=-1) + _log_vandermonde(l)
    return float(out) if out.ndim == 0 else out


def log_dim_unitary_group(labels):
    """log dim of the U(d) irrep, d the label length, by Weyl's product
    over i<j of (l_i - l_j)/(j - i), l = lam + delta; arrays as above."""
    lam = np.asarray(labels, dtype=float)
    delta = np.arange(lam.shape[-1] - 1, -1, -1, dtype=float)
    out = _log_vandermonde(lam + delta) - _log_vandermonde(delta)
    return float(out) if out.ndim == 0 else out


def shannon_entropy_of_counts(parts, n: int | None = None) -> float:
    """H(parts/n) in nats, with 0 log 0 = 0."""
    parts = [int(p) for p in parts]
    if n is None:
        n = sum(parts)
    if n == 0:
        return 0.0
    return -sum((p / n) * math.log(p / n) for p in parts if p > 0)


def exact_block_weight(lam: tuple[int, ...], content) -> Fraction:
    """Exact <e|P_lam|e> for a basis vector of the given letter content.

    Equals dim(S_n irrep of lam) * Kostka(lam, content) / multinomial(content),
    as a Fraction.  Summing over lam for fixed content gives exactly 1.
    """
    lam = tuple(lam)
    content = tuple(int(c) for c in content)
    k = kostka(lam, content)
    if k == 0:
        return Fraction(0)
    return Fraction(dim_sym_group(lam) * k, multinomial(content))
