"""Block projectors of the commutant decomposition of (C^d)^{x n}.

The n-fold tensor power splits into blocks labelled by partitions of n
with at most d parts; each block carries one SU(d) irrep tensored with
one symmetric-group irrep.  Three routes compute the weight a state
puts on a block:

* dense matrices (projectors built by character averaging, n <= 8,
  within the byte budget ``linalg.MAX_BYTES``);
* the i.i.d. closed form dim(S_n irrep) * s_lam(spectrum), the Schur
  value from the log-domain bialternant (``young.log_schur``), at any n;
* the diagonal route via Kostka numbers, valid for products of
  commuting factors at any n.

The routes agree on their common domains and the tests hold them to
1e-10 of each other.
"""

from __future__ import annotations

import itertools
import logging
import math
from functools import lru_cache

import numpy as np

from . import young
from .linalg import DimensionBudgetError, joint_eigenbasis, require_bytes

logger = logging.getLogger(__name__)


@lru_cache(maxsize=8)
def _slot_index_maps(n: int, d: int) -> np.ndarray:
    """Digit table: row J holds the base-d digits of J, most significant first.

    Cached and shared by every permutation of the same (n, d); read-only.
    """
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for slot in range(n - 1, -1, -1):
        digits[:, slot] = idx % d
        idx = idx // d
    digits.setflags(write=False)
    return digits


def permutation_index_map(sigma: tuple[int, ...], d: int) -> np.ndarray:
    """Index permutation of basis states of (C^d)^{x n} under a slot permutation.

    Convention: slot permutation sigma sends basis vector |j_0 ... j_{n-1}>
    to |j_{sigma^{-1}(0)} ... j_{sigma^{-1}(n-1)}>, i.e. the content of slot
    s moves to slot sigma(s).  Returns the array ``m`` with m[J] the image
    index of basis state J, so the matrix is M[m[J], J] = 1.
    """
    n = len(sigma)
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return _slot_index_maps(n, d) @ weights[list(sigma)]


def permutation_operator(sigma, d: int) -> np.ndarray:
    """Unitary permutation matrix acting on (C^d)^{x n} by permuting slots."""
    sigma = tuple(int(s) for s in sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{n - 1}")
    require_bytes(d ** (2 * n) * 8, f"a permutation matrix on d^n = {d**n} dimensions")
    m = np.zeros((d**n, d**n))
    m[permutation_index_map(sigma, d), np.arange(d**n)] = 1.0
    return m


@lru_cache(maxsize=8)
def _class_sums(n: int, d: int) -> dict[tuple[int, ...], np.ndarray]:
    """Sum of slot-permutation matrices over each conjugacy class of S_n.

    Shared by every block projector of the same (n, d); the n! loop runs
    once and each permutation is applied as an index map, never as a
    dense product.
    """
    dim = d**n
    sums: dict[tuple[int, ...], np.ndarray] = {
        ct: np.zeros((dim, dim)) for ct in young.cycle_types(n)
    }
    cols = np.arange(dim)
    for sigma in itertools.permutations(range(n)):
        ct = young.cycle_type_of(sigma)
        np.add.at(sums[ct], (permutation_index_map(sigma, d), cols), 1.0)
    return sums


def dense_bytes(n: int, d: int, extra: int = 0) -> int:
    """Bytes of the real d^n x d^n matrices a dense route holds: the class
    sums and block projectors of (n, d), plus ``extra`` more.

    Raises DimensionBudgetError above n = 8, where the n!-term character
    sum is capped.
    """
    if n > 8:
        raise DimensionBudgetError(f"n = {n}: the n!-term character sum is capped at n = 8")
    return (len(young.cycle_types(n)) + len(young.young_indices(n, d)) + extra) * d ** (2 * n) * 8


@lru_cache(maxsize=8)
def young_projectors(n: int, d: int, max_dim: int | None = None):
    """All block projectors on (C^d)^{x n} as a dict {label: matrix}.

    P_lam = (dim V_lam / n!) * sum_sigma chi_lam(sigma) Perm(sigma).
    Feasible for n <= 8 (factorial sum) within MAX_BYTES, or if given
    within ``max_dim`` dimensions; matrices are returned read-only.
    """
    nbytes = dense_bytes(n, d)
    if max_dim is None:
        require_bytes(nbytes, f"the block projectors of n = {n}, d = {d}")
    elif d**n > max_dim:
        raise DimensionBudgetError(f"d^n = {d**n} exceeds budget {max_dim}")
    sums = _class_sums(n, d)
    fact = math.factorial(n)
    out = {}
    for lam in young.young_indices(n, d):
        p = np.zeros((d**n, d**n))
        for ct, s in sums.items():
            chi = young.character(lam, ct)
            if chi:
                p += chi * s
        p *= young.dim_sym_group(lam) / fact
        p.setflags(write=False)
        out[lam] = p
    return out


def young_projector(lam, d: int, max_dim: int | None = None) -> np.ndarray:
    """Projector onto the block labelled by the partition ``lam``."""
    lam = tuple(int(v) for v in lam)
    return young_projectors(sum(lam), d, max_dim)[lam]


def _clip_probability(p: float, what: str) -> float:
    if p < 0.0 or p > 1.0:
        clipped = min(1.0, max(0.0, p))
        if abs(p - clipped) > 1e-9:
            raise ValueError(f"{what} = {p} is not a probability")
        logger.debug("clipped %s by %.3e", what, p - clipped)
        return clipped
    return p


def block_prob_iid(lam, spec) -> float:
    """Probability of block ``lam`` under n i.i.d. copies with the given spectrum.

    Tr P_lam rho^{x n} depends on rho only through its spectrum and equals
    dim(S_n irrep) * schur_poly(lam, spectrum).
    """
    lam = tuple(int(v) for v in lam)
    val = young.dim_sym_group(lam) * young.schur_poly(lam, spec)
    return _clip_probability(val, f"block probability {lam}")


def log_block_prob_iid_two_level(a: int, b: int, p1: float, p2: float) -> float:
    """log Tr P_(a,b) rho^{x n} for a two-level spectrum, safe for large n."""
    ls = young.log_schur_two_rows(a, b, p1, p2)
    if ls == young.NEG_INF:
        return young.NEG_INF
    return young.log_dim_sym_group((a, b)) + ls


def block_prob_diagonal(lam, content) -> float:
    """Diagonal matrix element <e|P_lam|e> for a basis vector of given content.

    Exact rational value dim(S_n irrep) * Kostka(lam, content) / multinomial,
    converted to float.
    """
    return float(young.exact_block_weight(tuple(lam), tuple(content)))


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
                if q[i] == 0.0:
                    continue
                key = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                nxt[key] = nxt.get(key, 0.0) + prob * q[i]
        dist = nxt
    return dist


def block_prob_product(lam, states, max_dim: int | None = None) -> float:
    """Tr P_lam (rho_1 x ... x rho_n) for an explicit list of factors.

    Commuting factors route through the Kostka formula at any n; the
    general case builds the dense projectors, within MAX_BYTES.
    """
    lam = tuple(int(v) for v in lam)
    states = [np.asarray(s, dtype=complex) for s in states]
    d = states[0].shape[0]
    n = len(states)
    if sum(lam) != n:
        raise ValueError(f"|lam| = {sum(lam)} but n = {n}")
    joint = joint_eigenbasis(states)
    if joint is not None:
        _, diags = joint
        types = type_distribution([np.clip(q, 0.0, None) for q in diags])
        total = 0.0
        for content, prob in types.items():
            if prob == 0.0:
                continue
            total += prob * block_prob_diagonal(lam, content)
        return _clip_probability(total, f"block probability {lam}")
    p = young_projector(lam, d, max_dim)
    rho = states[0]
    for s in states[1:]:
        rho = np.kron(rho, s)
    val = float(np.real(np.trace(p @ rho)))
    return _clip_probability(val, f"block probability {lam}")

