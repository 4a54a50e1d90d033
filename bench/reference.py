"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports qvlcode.  Each quantity is recomputed from its
definition or from a closed form the program does not use:

* block dimensions from the hook-length and hook-content formulas (d=2:
  dimV(a, b) = C(n, b) - C(n, b-1), dimU = a - b + 1);
* Schur values from the bialternant det(x_i^(lam_j+d-j)) / det(x_i^(d-j))
  in mpmath at 40 digits;
* qubit cluster sums of commuting sources from the telescoped count
  sum_{a=lo..hi} dimV(a) = C(n, n-lo) - C(n, n-hi-1), which fixes the
  diagonal block weight of a basis vector with c zeros as
  dimV(a) [a >= max(c, n-c)] / C(n, c);
* overflow exponents from the tilted family q_s ~ p^s with a bisection on
  H(q_s) = R.

Clusters follow the documented convention: outcome k covers every block
label within Euclidean distance n*delta of k, closed ball, with a 1e-9
relative tie guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import gammaln

mpmath.mp.dps = 40


def schedule(n: int) -> tuple[float, float]:
    """Radius schedule delta = n^(-1/4), delta1 = delta - n^(-1/3)."""
    delta = n ** (-0.25)
    delta1 = delta - n ** (-1.0 / 3.0)
    return delta, (delta1 if delta1 > 0 else delta / 2)


def _limit2(x: float) -> float:
    return x * x * (1 + 1e-9) + 1e-12


def zero_sum_ball(x: float, d: int) -> list[tuple[int, ...]]:
    """Zero-sum integer vectors z with |z|^2 <= x^2 (closed ball, tie guard)."""
    lim = _limit2(x)
    reach = int(math.isqrt(int(lim))) + 1
    out = []
    for head in itertools.product(range(-reach, reach + 1), repeat=d - 1):
        z = head + (-sum(head),)
        if sum(v * v for v in z) <= lim:
            out.append(z)
    return out


def qubit_halfwidth(n: int, delta: float) -> int:
    """Largest t with |(t, -t)|^2 = 2 t^2 inside the closed ball of radius n*delta."""
    lim = _limit2(n * delta)
    t = 0
    while 2 * (t + 1) ** 2 <= lim:
        t += 1
    return t


def partitions(n: int, d: int) -> list[tuple[int, ...]]:
    """Partitions of n into at most d parts, padded with zeros to length d."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        for rest in partitions(n - first, d - 1):
            if rest[0] <= first:
                out.append((first,) + rest)
    return out


def _hooks(lam):
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    for i, row in enumerate(lam):
        for j in range(row):
            yield i, j, (row - j - 1) + (conj[j] - i - 1) + 1


def dim_sym(lam) -> int:
    """Standard tableaux count n! / prod(hooks) (hook-length formula)."""
    n = sum(lam)
    prod = 1
    for _, _, h in _hooks(lam):
        prod *= h
    return math.factorial(n) // prod


def dim_unitary(lam, d: int) -> int:
    """prod over cells of (d + j - i) / hook (hook-content formula)."""
    val = Fraction(1)
    for i, j, h in _hooks(lam):
        val *= Fraction(d + j - i, h)
    return int(val)


def schur_bialternant(lam, x) -> mpmath.mpf:
    """s_lam(x) = det(x_i^(lam_j + d - j)) / det(x_i^(d - j)); x distinct."""
    d = len(x)
    xs = [mpmath.mpf(v) for v in x]
    num = mpmath.matrix([[xi ** (lam[j] + d - 1 - j) for j in range(d)] for xi in xs])
    den = mpmath.matrix([[xi ** (d - 1 - j) for j in range(d)] for xi in xs])
    return mpmath.det(num) / mpmath.det(den)


# --- the code's outcome lattice ---------------------------------------------


@dataclass
class Lattice:
    """Outcomes of the code and, per outcome, its covered block labels.

    ``clusters[i]`` lists indices into ``labels`` for outcome ``outcomes[i]``;
    ``log_lengths[i]`` is ln(#outcomes) + ln(total covered dimension).
    """

    n: int
    d: int
    labels: list
    outcomes: list
    clusters: list
    c1: int
    log_lengths: list

    def block_probs(self, spec) -> list:
        """dimV(lam) * s_lam(spec) per label, in mpmath."""
        return [dim_sym(lam) * schur_bialternant(lam, spec) for lam in self.labels]

    def outcome_probs(self, spec) -> list:
        blocks = self.block_probs(spec)
        return [mpmath.fsum(blocks[j] for j in cl) / self.c1 for cl in self.clusters]


def lattice(n: int, d: int, delta: float) -> Lattice:
    """The outcome lattice by its definition; meant for small n (d >= 3)."""
    labels = partitions(n, d)
    offsets = zero_sum_ball(n * delta, d)
    index = {lam: i for i, lam in enumerate(labels)}
    members: dict[tuple, set] = {}
    for lam in labels:
        for z in offsets:
            members.setdefault(tuple(a + b for a, b in zip(lam, z)), set()).add(index[lam])
    outcomes = sorted(members, reverse=True)
    dims = [dim_unitary(lam, d) * dim_sym(lam) for lam in labels]
    log_m = math.log(len(outcomes))
    clusters = [sorted(members[k]) for k in outcomes]
    log_lengths = [log_m + math.log(sum(dims[j] for j in cl)) for cl in clusters]
    return Lattice(n, d, labels, outcomes, clusters, len(offsets), log_lengths)


@dataclass
class QubitLattice:
    """d = 2 outcome lattice: outcome k = (k0, n - k0) covers the labels
    (a, n - a) with a in the window [lo, hi] (clipped to [ceil(n/2), n])."""

    n: int
    t: int
    amin: int
    k0: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    log_lengths: list

    @property
    def c1(self) -> int:
        return 2 * self.t + 1

    def outcome_probs(self, spec) -> list:
        """i.i.d. outcome probabilities for a two-entry spectrum, mpmath."""
        n = self.n
        x, y = sorted((mpmath.mpf(v) for v in spec), reverse=True)
        prefix = [mpmath.mpf(0)]
        for a in range(self.amin, n + 1):
            b = n - a
            dim_v = math.comb(n, b) - (math.comb(n, b - 1) if b else 0)
            # bialternant of the two-row shape (a, b)
            s = x**b * y**b * (x ** (a - b + 1) - y ** (a - b + 1)) / (x - y)
            prefix.append(prefix[-1] + dim_v * s)
        base = self.amin
        return [(prefix[h - base + 1] - prefix[l - base]) / self.c1
                for l, h in zip(self.lo, self.hi)]


def qubit_lattice(n: int, delta: float) -> QubitLattice:
    t = qubit_halfwidth(n, delta)
    amin = (n + 1) // 2
    k0 = np.arange(n + t, amin - t - 1, -1)
    lo = np.maximum(k0 - t, amin)
    hi = np.minimum(k0 + t, n)
    # total dimension of window [l, h]: sum of (a - b + 1) dimV(a, b)
    prefix = [0]
    for a in range(amin, n + 1):
        b = n - a
        prefix.append(prefix[-1] + (a - b + 1) * (math.comb(n, b) - (math.comb(n, b - 1) if b else 0)))
    log_m = math.log(len(k0))
    log_lengths = [log_m + math.log(prefix[h - amin + 1] - prefix[l - amin])
                   for l, h in zip(lo.tolist(), hi.tolist())]
    return QubitLattice(n, t, amin, k0, lo, hi, log_lengths)


# --- overflow --------------------------------------------------------------


def overflow(log_lengths, probs, n: int, rate: float) -> mpmath.mpf:
    """P{length/n >= rate} over all outcomes."""
    return mpmath.fsum(p for ll, p in zip(log_lengths, probs) if ll / n >= rate)


def pick_rate(log_lengths, probs, n: int, target: float, gap: float = 1e-7) -> float:
    """A rate midway between two adjacent per-symbol lengths whose overflow
    probability is the first to reach ``target`` from the top.

    The midpoint keeps every outcome at least gap/2 from the rate, so the
    program and the reference select the same outcomes.
    """
    levels: dict[float, mpmath.mpf] = {}
    for ll, p in zip(log_lengths, probs):
        levels[ll / n] = levels.get(ll / n, 0) + p
    ordered = sorted(levels, reverse=True)
    tail = mpmath.mpf(0)
    for hi, lo in zip(ordered, ordered[1:]):
        tail += levels[hi]
        if tail >= target and hi - lo > gap:
            return (hi + lo) / 2
    raise ValueError("no rate reaches the target overflow")


# --- errors of commuting qubit sources ---------------------------------------


def _log_comb(n: int, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    ok = (m >= 0) & (m <= n)
    safe = np.where(ok, m, 0.0)
    val = gammaln(n + 1.0) - gammaln(safe + 1.0) - gammaln(n - safe + 1.0)
    return np.where(ok, val, -np.inf)


def letter_weights(lat: QubitLattice) -> np.ndarray:
    """T[c, i] = <e|P_k|e> for a basis vector e with c zeros and outcome k_i.

    The weight of block a on e is dimV(a) [a >= max(c, n - c)] / C(n, c);
    the window sum telescopes to (C(n, n - lo') - C(n, n - hi - 1)) / C(n, c)
    with lo' = max(lo, max(c, n - c)).
    """
    n = lat.n
    c = np.arange(n + 1)[:, None]
    h = np.maximum(c, n - c)
    lo = np.maximum(lat.lo[None, :], h)
    hi = np.broadcast_to(lat.hi[None, :], lo.shape)
    top = _log_comb(n, n - lo)
    bottom = _log_comb(n, n - hi - 1)
    with np.errstate(invalid="ignore"):
        frac = -np.expm1(bottom - top)
        val = np.exp(top - _log_comb(n, c)) * frac
    return np.where(lo <= hi, val, 0.0)


def binomial_pmf(n: int, q: float) -> np.ndarray:
    """P(c zeros among n letters), each letter zero with probability q."""
    c = np.arange(n + 1)
    if q <= 0.0 or q >= 1.0:
        out = np.zeros(n + 1)
        out[0 if q <= 0.0 else n] = 1.0
        return out
    return np.exp(_log_comb(n, c) + c * math.log(q) + (n - c) * math.log1p(-q))


def commuting_expectations(lat: QubitLattice, weights, zero_probs, exponents) -> dict:
    """E over atom sequences of (Tr P_k rho_seq)^e per outcome, per exponent.

    Atom j is diag(zero_probs[j], 1 - zero_probs[j]) with probability
    weights[j].  Basis atoms (zero probability 0 or 1) make the trace a
    function of the letter count alone; otherwise sequences are grouped by
    atom type, whose letter count is a convolution of binomials.
    """
    n = lat.n
    tmat = letter_weights(lat)
    if all(q in (0.0, 1.0) for q in zero_probs):
        w0 = sum(w for w, q in zip(weights, zero_probs) if q == 1.0)
        rows, row_w = tmat, binomial_pmf(n, w0)
    else:
        m = len(weights)
        pmfs, row_w = [], []
        for tau in _compositions(n, m):
            logw = math.lgamma(n + 1) - sum(math.lgamma(t + 1) for t in tau)
            logw += sum(t * math.log(w) for t, w in zip(tau, weights) if t)
            pmf = np.ones(1)
            for t, q in zip(tau, zero_probs):
                if t:
                    pmf = np.convolve(pmf, binomial_pmf(t, q))
            pmfs.append(pmf)
            row_w.append(math.exp(logw))
        rows, row_w = np.array(pmfs) @ tmat, np.array(row_w)
    clipped = np.clip(rows, 0.0, 1.0)
    return {e: row_w @ clipped**e for e in exponents}


def _compositions(n: int, m: int):
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, m - 1):
            yield (first,) + rest


# --- overflow exponents ------------------------------------------------------


def entropy(q) -> float:
    return float(-sum(v * math.log(v) for v in q if v > 0))


def tilted_exponent(rate: float, p) -> float:
    """inf D(q||p) over H(q) >= rate, from the tilted family q_s ~ p^s.

    H(q_s) falls from ln d at s = 0 to H(p) at s = 1; bisection on s in
    mpmath finds H(q_s) = rate.
    """
    ps = [mpmath.mpf(v) for v in p]
    if entropy(p) >= rate:
        return 0.0

    def tilt(s):
        w = [v**s for v in ps]
        z = mpmath.fsum(w)
        return [v / z for v in w]

    def h(q):
        return -mpmath.fsum(v * mpmath.log(v) for v in q)

    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    r = mpmath.mpf(rate)
    for _ in range(120):
        mid = (lo + hi) / 2
        if h(tilt(mid)) > r:
            lo = mid
        else:
            hi = mid
    q = tilt((lo + hi) / 2)
    return float(mpmath.fsum(a * mpmath.log(a / b) for a, b in zip(q, ps)))
