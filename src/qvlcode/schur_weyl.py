"""Block projectors of the commutant decomposition of (C^d)^{x n}.

The n-fold tensor power splits into blocks labelled by partitions of n
with at most d parts; each block carries one SU(d) irrep tensored with
one symmetric-group irrep.  Three routes give the weight Tr P_lam rho of
every row of an (L, d) label array, and the per-label functions are
entries of them: ``dense_block_probs`` (projectors as eigenspaces of
two class sums, within ``linalg.MAX_BYTES``); ``log_block_probs_iid``
(the i.i.d. closed form, log-factorial dimensions plus a log-domain
bialternant, any n); ``diagonal_block_probs`` (products of commuting
factors, any n and d, for a batch of atom types at once: each atom's
letter-count laws in one array pass, convolved per type, read off by the
two-row closed form for d = 2 and by Kostka weights otherwise).  The tests hold them to 1e-10 of each other;
a value off [0, 1] by more than 1e-9 raises NumericalFailure.
"""

from __future__ import annotations

import itertools
import logging
import math
from functools import lru_cache, reduce

import numpy as np

from . import young
from .linalg import NumericalFailure, joint_eigenbasis, require_bytes, tensor

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


def dense_bytes(n: int, d: int, extra: int = 0) -> int:
    """Bytes of the real d^n x d^n matrices a dense route holds: the central
    element Z and the block projectors of (n, d), plus ``extra`` more."""
    return (1 + len(young.young_indices(n, d)) + extra) * d ** (2 * n) * 8


def _content_sums(lam) -> tuple[int, int]:
    """(sum c, sum c^2) over the contents c = j - i of the boxes (i, j) of ``lam``."""
    contents = [j - i for i, row in enumerate(lam) for j in range(row)]
    return sum(contents), sum(c * c for c in contents)


@lru_cache(maxsize=8)
def young_projectors(n: int, d: int):
    """All block projectors on (C^d)^{x n} as a dict {label: matrix}.

    The sums C2 of the transpositions and C3 of the 3-cycles of S_n are
    central, so they act on block lam as the scalars sum c and
    sum c^2 - n(n-1)/2 over its contents c (Jucys 1974; Okounkov and
    Vershik 1996).  With beta = 1 / (2 spread(sum c^2) + 1) the
    eigenvalues omega_lam of Z = C2 + beta C3 are at least min(beta, 1/2)
    apart, so P_lam is the spectral projector of Z at omega_lam.  Z keeps
    the letter content of a basis state, so it is diagonalized one content
    block at a time.  NumericalFailure if two omega_lam coincide, an
    eigenvalue lies more than 1e-9 from its omega_lam, or an eigenspace
    has not the dimension of its block.  Within MAX_BYTES; matrices are
    returned read-only.
    """
    require_bytes(dense_bytes(n, d), f"the block projectors of n = {n}, d = {d}")
    labels = young.young_indices(n, d)
    sums = [_content_sums(lam) for lam in labels]
    if len(set(sums)) < len(labels):
        raise NumericalFailure(f"two blocks of n = {n}, d = {d} share their class-sum eigenvalues")
    s1, s2 = np.array(sums, dtype=float).T
    beta = 1.0 / (2 * (s2.max() - s2.min()) + 1)
    omega = s1 + beta * (s2 - n * (n - 1) / 2)
    dim = d**n
    z = np.zeros((dim, dim))
    cols = np.arange(dim)
    ident = list(range(n))
    # a slot permutation's (image, column) pairs are distinct, so += adds each once
    for i, j in itertools.combinations(range(n), 2):
        sigma = ident.copy()
        sigma[i], sigma[j] = j, i
        z[permutation_index_map(tuple(sigma), d), cols] += 1.0
    for a, b, c in itertools.combinations(range(n), 3):
        for images in ((b, c, a), (c, a, b)):
            sigma = ident.copy()
            sigma[a], sigma[b], sigma[c] = images
            z[permutation_index_map(tuple(sigma), d), cols] += beta
    # basis states with equal letter counts: the key sums (n + 1)^letter over slots
    key = ((n + 1) ** _slot_index_maps(n, d)).sum(axis=1)
    order = np.argsort(key, kind="stable")
    projs = np.zeros((len(labels), dim, dim))
    found = np.zeros(len(labels), dtype=np.int64)
    for idx in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        w, v = np.linalg.eigh(z[np.ix_(idx, idx)])
        which = np.abs(w[:, None] - omega).argmin(axis=1)
        off = float(np.abs(w - omega[which]).max())
        if off > 1e-9:
            raise NumericalFailure(f"an eigenvalue of the class sums is {off:.3e} from its block's")
        found += np.bincount(which, minlength=len(labels))
        for k in np.unique(which):
            vk = v[:, which == k]
            projs[k][np.ix_(idx, idx)] = vk @ vk.T
    dims = [young.dim_block(lam, d) for lam in labels]
    if found.tolist() != dims:
        raise NumericalFailure(f"eigenspace dimensions {found.tolist()} are not the block dimensions {dims}")
    projs.setflags(write=False)
    return dict(zip(labels, projs))


def young_projector(lam, d: int) -> np.ndarray:
    """Projector onto the block labelled by the partition ``lam``."""
    lam = tuple(int(v) for v in lam)
    return young_projectors(sum(lam), d)[lam]


# --- block probabilities over label arrays ------------------------------------

def _probabilities(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` clipped to [0, 1]; NumericalFailure if one lies outside
    by more than 1e-9, which roundoff cannot explain."""
    worst = max(-values.min(initial=0.0), values.max(initial=1.0) - 1.0)
    if worst > 1e-9:
        raise NumericalFailure(f"{what} is off [0, 1] by {worst:.3e}: not a probability")
    if worst:
        logger.debug("clipped %s by %.3e", what, worst)
    return np.clip(values, 0.0, 1.0) if worst else values


def _rows(labels, n: int, d: int) -> list[int]:
    """Position of each label in ``young.young_indices(n, d)`` (KeyError if none)."""
    pos = {lam: i for i, lam in enumerate(young.young_indices(n, d))}
    return [pos[lam] for lam in map(tuple, np.asarray(labels).tolist())]


def log_block_probs_iid(labels, spec) -> np.ndarray:
    """log Tr P_lam rho^{x n} for each row of an (L, w) label array: the
    log-factorial dimension of the S_n irrep plus log s_lam(spectrum), by
    ``young.log_schur_two_rows`` for two rows over a two-level spectrum
    and by ``young.log_schur`` otherwise.  Any n; not clipped."""
    labels = np.asarray(labels, dtype=np.int64)
    spec = np.sort(np.asarray(spec, dtype=float).ravel())[::-1]
    if labels.shape[1] == spec.size == 2:
        return young.log_dim_sym_group(labels) + young.log_schur_two_rows(*labels.T, *spec)
    return young.log_dim_sym_group(labels) + young.log_schur(labels, spec)


# Dropped from an atom's letter-count law: its tails below this probability
NEGLIGIBLE_PMF = 1e-30


def _atom_laws(q: np.ndarray, counts: np.ndarray, strides: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Laws of the letter counts c of each of the sorted distinct ``counts``
    of draws from q on the index strides @ c, strides = (n + 1)^(d - 2), ...,
    n + 1, 1, 0, where count vectors add as their indices: (first index of
    each law, values), tails below NEGLIGIBLE_PMF cut.  One broadcast log
    pmf over the live letters (q > 0), all but the last within Hoeffding's
    sqrt(count ln(2 / NEGLIGIBLE_PMF) / 2) of their means, beyond which a
    letter count is less likely than the cut."""
    live = np.flatnonzero(q > 0)
    free, s = len(live) - 1, strides[live]
    reach = np.sqrt(counts * math.log(2 / NEGLIGIBLE_PMF) / 2)
    width = min(int(counts[-1]), 2 * math.ceil(reach[-1])) + 1
    low = np.maximum(np.ceil(np.outer(q[live[:-1]], counts) - reach), 0).astype(np.int64)
    grid = np.indices((width,) * free).reshape(free, width**free)
    step = (s[:-1] - s[-1]) @ grid  # rising: the count vectors are base-(n + 1) digits
    require_bytes(len(counts) * (2 * (free + 2) * width**free + step[-1] + 1) * 8, "the letter-count laws")
    c = low[:, :, None] + grid[:, None, :]
    c = np.concatenate([c, (counts[:, None] - c.sum(axis=0))[None]])
    log_fact = young.log_factorial(np.arange(counts[-1] + 1))  # off its ends only where c < 0
    logp = log_fact[counts, None] - log_fact.take(c, mode="clip").sum(axis=0) + np.tensordot(np.log(q[live]), c, 1)
    logp[(c < 0).any(axis=0)] = -np.inf
    rows = np.zeros((len(counts), step[-1] + 1))
    rows[:, step] = np.exp(logp)
    big = rows >= NEGLIGIBLE_PMF
    lo, hi = big.argmax(axis=1), big.shape[1] - big[:, ::-1].argmax(axis=1)
    return s @ c[:, :, 0] + lo, [row[a:b] for row, a, b in zip(rows, lo.tolist(), hi.tolist())]


@lru_cache(maxsize=8)
def _content_groups(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``_atom_laws`` indices of the count vectors of n, ordered by the
    position of their sorted content in ``young.young_indices(n, d)``, and
    the first of each position; read-only."""
    c = np.array(young.compositions(n, d)).T
    pos = np.array(_rows(np.sort(c, axis=0)[::-1].T, n, d))
    order = np.argsort(pos, kind="stable")
    out = ((n + 1) ** np.arange(d - 2, -1, -1) @ c[:-1])[order], np.flatnonzero(np.diff(pos[order], prepend=-1))
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _diagonal_weights(n: int, d: int) -> np.ndarray:
    """Floats <e|P_lam|e> = dim(S_n irrep) Kostka(lam, mu) / multinomial(mu), e of sorted
    content mu; rows lam and columns mu in ``young.young_indices(n, d)`` order, read-only."""
    labels = young.young_indices(n, d)
    out = np.array([[float(young.exact_block_weight(lam, mu)) for mu in labels] for lam in labels])
    out.setflags(write=False)
    return out


def diagonal_block_probs(labels, spectra, counts=None) -> np.ndarray:
    """Tr P_lam (diag(spectra[0])^{x counts[0]} x ... x diag(spectra[m-1])^{x counts[m-1]})
    for each row of an (L, d) label array and each row of a (..., m) array
    of atom counts summing to n (default: each spectrum once), as a (..., L)
    array, at any n.

    The state depends on the slots only through the law of its letter
    counts: the laws of each atom's distinct counts in the batch, from one
    ``_atom_laws`` pass, convolved over each type's atoms on their index.
    Two rows take the closed form: Kostka numbers of two rows are 0/1, so
    with h = max(c, n - c)
    over the counts c of the first letter,
    Tr P_(a, n - a) = dim S_n(a) sum over h <= a of law(h) / C(n, h).
    More rows weigh the law, summed by sorted content, against the Kostka
    matrix of ``_diagonal_weights``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    spectra = np.asarray(spectra, dtype=float)
    counts = np.ones(len(spectra), dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
    types = counts.reshape(-1, len(spectra))
    n, d = int(types[0].sum()), spectra.shape[1]
    strides = np.append((n + 1) ** np.arange(d - 2, -1, -1), 0)
    starts, factors = np.zeros(len(types), dtype=np.int64), []
    for q, column in zip(spectra, types.T):
        distinct, inverse = np.unique(column, return_inverse=True)
        first, rows = _atom_laws(q, distinct, strides)
        starts += first[inverse]
        factors.append([rows[i] for i in inverse.tolist()])
    law = np.zeros((len(types), (n + 1) ** (d - 1)))
    for row, start, parts in zip(law, starts.tolist(), zip(*factors)):
        vals = reduce(np.convolve, parts)
        row[start:start + len(vals)] = vals
    if d == 2:
        amin = (n + 1) // 2
        if (labels.sum(axis=1) != n).any() or (labels[:, 0] < amin).any():
            raise KeyError(f"labels off the partitions of n = {n} into two parts")
        h = np.arange(amin, n + 1)
        by_h = law[:, amin:] + law[:, n - amin::-1]  # c = h and c = n - h
        if n % 2 == 0:
            by_h[:, 0] /= 2  # h = n/2 is a single c
        log_comb = young.log_factorial(n) - young.log_factorial(h) - young.log_factorial(n - h)
        with np.errstate(divide="ignore"):
            log_s = np.logaddexp.accumulate(np.log(by_h) - log_comb, axis=1)
        probs = np.exp(young.log_dim_sym_group(labels) + log_s[:, labels[:, 0] - amin])
    else:
        cells, starts = _content_groups(n, d)
        probs = np.add.reduceat(law[:, cells], starts, axis=1) @ _diagonal_weights(n, d)[_rows(labels, n, d)].T
    return _probabilities(probs.reshape(counts.shape[:-1] + (len(labels),)), "a diagonal block probability")


def dense_block_probs(labels, rho) -> np.ndarray:
    """Tr P_lam rho for each row of an (L, d) label array and a Hermitian
    rho on (C^d)^{x n}, by the dense projectors (within MAX_BYTES).  P_lam
    is real symmetric, so the trace is its inner product with Re(rho)."""
    labels = np.asarray(labels)
    projs = young_projectors(int(labels[0].sum()), labels.shape[1])
    re = np.ascontiguousarray(rho.real)
    return _probabilities(np.array([np.vdot(projs[lam], re) for lam in map(tuple, labels.tolist())]),
                          "a dense block probability")


def block_probs_product(labels, states) -> np.ndarray:
    """Tr P_lam (rho_1 x ... x rho_n) for each row of an (L, d) label array:
    commuting factors take the diagonal route, the others the dense one."""
    states = [np.asarray(s, dtype=complex) for s in states]
    joint = joint_eigenbasis(states)
    if joint is not None:
        return diagonal_block_probs(labels, [np.clip(q, 0.0, None) for q in joint[1]])
    n, d = len(states), states[0].shape[0]
    require_bytes(dense_bytes(n, d), f"the block projectors of n = {n}, d = {d}")
    return dense_block_probs(labels, tensor(*states))


# --- one label at a time: entries of the array routes ---------------------------

def block_prob_iid(lam, spec) -> float:
    """Probability of block ``lam`` under n i.i.d. copies with the given spectrum."""
    return float(_probabilities(np.exp(log_block_probs_iid([lam], spec)), f"block probability {lam}")[0])


def log_block_prob_iid_two_level(a: int, b: int, p1: float, p2: float) -> float:
    """log Tr P_(a,b) rho^{x n} for a two-level spectrum, safe for large n."""
    return float(log_block_probs_iid([(a, b)], (p1, p2))[0])


def block_prob_diagonal(lam, content) -> float:
    """Diagonal matrix element <e|P_lam|e> for a basis vector of given content."""
    return float(diagonal_block_probs([lam], np.eye(len(content)), content)[0])


def block_prob_product(lam, states) -> float:
    """Tr P_lam (rho_1 x ... x rho_n) for an explicit list of factors."""
    return float(block_probs_product([lam], states)[0])
