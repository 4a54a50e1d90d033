"""Block projectors of the commutant decomposition of (C^d)^{x n}.

The n-fold tensor power splits into blocks labelled by partitions of n
with at most d parts; each block carries one SU(d) irrep tensored with
one symmetric-group irrep.  Four routes give the weight Tr P_lam rho of
every row of an (L, d) label array, and the per-label functions are
entries of them: ``dense_block_probs`` (projectors as eigenspaces of
two class sums, within ``linalg.MAX_BYTES``); ``log_block_probs_iid``
(the i.i.d. closed form, any n); ``diagonal_block_probs`` (commuting
factors, any n and d, for a batch of atom types: letter-count laws read
off by the two-row closed form on a band of labels for d = 2
(``two_row_bands``), weighed by Kostka numbers otherwise);
``polarized_block_probs`` (qubit atoms that need not commute, any n, a
batch of types by one FFT per tilt of the atoms' mixture).  The tests
hold them to 1e-10 of each other; a value off [0, 1] by more than 1e-9
raises NumericalFailure.
"""

from __future__ import annotations

import itertools
import logging
import math
from functools import lru_cache, reduce

import numpy as np
import numpy.fft  # noqa: F401  at import, not in the first operation (numpy loads it lazily)
from numpy.lib.stride_tricks import sliding_window_view

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


@lru_cache(maxsize=2)
def _log_factorials(size: int) -> np.ndarray:
    """ln k! for k < size, read-only: every batch's letter-count laws read it."""
    out = young.log_factorial(np.arange(size))
    out.setflags(write=False)
    return out


def _atom_law_rows(q: np.ndarray, counts: np.ndarray, strides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Laws of the letter counts c of each of the sorted distinct ``counts``
    of draws from q on the index strides @ c, strides = (n + 1)^(d - 2), ...,
    n + 1, 1, 0, where count vectors add as their indices: (first index of
    each law, one row of values per count).  One broadcast log pmf over the
    live letters (q > 0), all but the last within Hoeffding's
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
    log_fact = _log_factorials(1 << int(counts[-1]).bit_length())  # off its ends only where c < 0
    logp = log_fact[counts, None] - log_fact.take(c, mode="clip").sum(axis=0) + np.tensordot(np.log(q[live]), c, 1)
    logp[(c < 0).any(axis=0)] = -np.inf
    rows = np.zeros((len(counts), step[-1] + 1))
    rows[:, step] = np.exp(logp)
    return s @ c[:, :, 0], rows


def _atom_laws(q: np.ndarray, counts: np.ndarray, strides: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``_atom_law_rows`` with tails below NEGLIGIBLE_PMF cut: (first index of each law, values)."""
    first, rows = _atom_law_rows(q, counts, strides)
    big = rows >= NEGLIGIBLE_PMF
    lo, hi = big.argmax(axis=1), big.shape[1] - big[:, ::-1].argmax(axis=1)
    return first + lo, [row[a:b] for row, a, b in zip(rows, lo.tolist(), hi.tolist())]


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


# Labels per block of the two-row read-out: a scale within a block stays within n^READ_BLOCK
READ_BLOCK = 16


@lru_cache(maxsize=4)
def _two_row_tables(n: int) -> tuple[np.ndarray, ...]:
    """Per h = ceil(n/2), ... in blocks of READ_BLOCK, and one more block
    past n that later blocks read: e^-off(h) and e^off(h) (2h - n + 1) / (h + 1)
    (0 past n), off(h) = ln C(n, h) - ln C(n, h0) from the block's first h0;
    per block ln C(n, h0) and its rise to the next block's.  off and the
    rises sum ln((n - j + 1) / j), so are exact to rounding at any n."""
    amin = (n + 1) // 2
    h = amin + np.arange((-(-(n + 1 - amin) // READ_BLOCK) + 1) * READ_BLOCK).reshape(-1, READ_BLOCK)
    step = np.where(h <= n, np.log(np.maximum(n - h + 1, 1) / h), 0.0)  # ln C(n, h) - ln C(n, h - 1)
    off = np.cumsum(step, axis=1) - step[:, :1]
    h0 = np.minimum(h[:, 0], n)
    out = (np.exp(-off), np.where(h <= n, np.exp(off) * (2 * h - n + 1) / (h + 1), 0.0),
           young.log_factorial(n) - young.log_factorial(h0) - young.log_factorial(n - h0),
           off[:, -1] + np.append(step[1:, 0], 0.0))
    for a in out:
        a.setflags(write=False)
    return out


def _count_window(spectra, types) -> tuple[np.ndarray, np.ndarray]:
    """The first-letter counts of each type that Bernstein's bound leaves
    likelier than NEGLIGIBLE_PMF in all: (first, last), within [0, n]."""
    cut = math.log(2 / NEGLIGIBLE_PMF)
    mean, var = types @ spectra[:, 0], types @ (spectra[:, 0] * spectra[:, 1])
    reach = cut / 3 + np.sqrt(cut * cut / 9 + 2 * var * cut)
    return np.maximum(np.ceil(mean - reach), 0).astype(np.int64), \
        np.minimum(np.floor(mean + reach), types.sum(axis=1)).astype(np.int64)


def two_row_bytes(spectra, types, reach: int) -> np.ndarray:
    """Bytes that ``two_row_bands`` and a reduction of its bands hold per
    type, as a (T, m + 1) array: 8 rows of each atom's law (Hoeffding's
    width, 1 for a point mass), then 8 rows of the FFT and 4 of the band.
    A batch holds at most its length times the sum of its column maxima."""
    types, spectra = np.asarray(types, dtype=np.int64), np.asarray(spectra, dtype=float)
    first, last = _count_window(spectra, types)
    width = last - first + 1  # the band is shorter than width + reach + 2 blocks
    hoeffding = np.minimum(types, 2 * np.ceil(np.sqrt(types * math.log(2 / NEGLIGIBLE_PMF) / 2))) + 1
    laws = np.where((spectra > 0).all(axis=1), hoeffding, 1)
    return 8 * np.column_stack([8 * laws, 8 * np.exp2(np.ceil(np.log2(width))) + 4 * (width + reach + 2 * READ_BLOCK)])


def two_row_bands(spectra, types, reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tr P_(a, n - a) of the product of diag(spectra[j])^{x types[i, j]}
    for each row i of a (T, m) array of atom counts summing to n, on a band
    of labels: (starts, bands, log totals).  Row i holds a = starts[i], ...
    from below the type's lowest h = max(c, n - c), c a first-letter count
    likelier than NEGLIGIBLE_PMF, to ``reach`` past its highest (0 past n).
    Below the band Tr P_(a, n - a) is 0; above it, dim S_n(a) e^(log total).

    The law of c is the product of the atoms' laws (``_atom_law_rows``),
    folded by one cyclic FFT as long as the widest type's run of those
    counts, in Bernstein's bound, rounded up to a power of two: what wraps
    onto a type's run is less likely than the cut.  Kostka numbers of two
    rows are 0/1, so Tr P_(a, n - a) is dim S_n(a) sum over h <= a of
    law(h) / C(n, h), read out as C(n, a) times the sum: a cumulative sum
    per block of READ_BLOCK labels scaled to its first, and a log-domain
    one over blocks, so no term leaves the float range.
    """
    types, spectra = np.asarray(types, dtype=np.int64), np.asarray(spectra, dtype=float)
    n, b, t = int(types[0].sum()), READ_BLOCK, len(types)
    amin = (n + 1) // 2
    einv, scale, log_comb, rise = _two_row_tables(n)
    lo, hi, laws = np.zeros(t, dtype=np.int64), np.zeros(t, dtype=np.int64), []
    for q, column in zip(spectra, types.T):
        distinct, inverse = np.unique(column, return_inverse=True)
        begin, rows = _atom_law_rows(q, distinct, np.array([1, 0]))
        lo += begin[inverse]
        hi += begin[inverse] + rows.shape[1] - 1
        laws.append((rows, inverse))
    first, last = _count_window(spectra, types)
    first, last = np.maximum(first, lo), np.minimum(last, hi)
    size = 1 << int((last - first).max()).bit_length()
    product = 1.0
    for rows, inverse in laws:  # each law folded onto its counts modulo size
        folded = np.pad(rows, ((0, 0), (0, -rows.shape[1] % size))).reshape(len(rows), -1, size).sum(axis=1)
        product = product * np.fft.rfft(folded)[inverse]
    low = np.maximum(np.maximum(first, n - last), amin)
    start = low - (low - amin) % b
    top = np.maximum(last, n - first) + 1
    core = -(-int((top - start).max()) // b)  # blocks holding the law
    blocks = max(core, -(-int((top + reach - start).max()) // b))
    # law(h) + law(n - h) for h = start, ...: windows of the law between zeros
    span = core * b
    padded, rows, origin = np.zeros((t, size + 2 * span)), np.arange(t), first
    cyclic, turn = np.fft.irfft(product, size), (first - lo) % size  # index i the count lo + i modulo size
    if turn.any():  # each row turned to start at its count first
        cyclic = sliding_window_view(np.concatenate([cyclic, cyclic], axis=1), size, axis=1)[rows, turn]
    padded[:, span:span + size] = cyclic
    by_h = sliding_window_view(padded, span, axis=1)[rows, np.clip(span + start - origin, 0, size + span)]
    by_h += sliding_window_view(padded[:, ::-1], span, axis=1)[
        rows, np.clip(size + span - 1 - n + start + origin, 0, size + span)]
    by_h[start * 2 == n, 0] /= 2  # h = n/2 is the one count c = n/2
    idx = np.minimum((start - amin)[:, None] // b + np.arange(blocks), len(rise) - 1)
    sums = by_h.reshape(t, core, b)
    sums *= einv[idx[:, :core]]
    np.cumsum(sums, axis=2, out=sums)
    up = np.cumsum(rise[idx], axis=1) - rise[idx]  # ln C(n, h0) - ln C(n, start) per block
    with np.errstate(divide="ignore"):
        prefix = np.logaddexp.accumulate(np.log(np.maximum(sums[:, :, -1], 0.0)) - up[:, :core], axis=1)
    earlier = np.concatenate([np.full((t, 1), -np.inf), prefix, np.repeat(prefix[:, -1:], blocks - core, axis=1)],
                             axis=1)[:, :blocks]
    carry = np.exp(up + earlier)[:, :, None]
    bands = scale[idx]
    bands[:, core:] *= carry[:, core:]
    bands[:, :core] *= carry[:, :core] + sums
    return start, bands.reshape(t, blocks * b), prefix[:, -1] - log_comb[idx[:, 0]]


def diagonal_block_probs(labels, spectra, counts=None) -> np.ndarray:
    """Tr P_lam (diag(spectra[0])^{x counts[0]} x ... x diag(spectra[m-1])^{x counts[m-1]})
    for each row of an (L, d) label array and each row of a (..., m) array
    of atom counts summing to n (default: each spectrum once), as a (..., L)
    array, at any n.

    The state depends on the slots only through the law of its letter
    counts.  Two rows take ``two_row_bands`` on bands that reach n, 0
    below them.  More rows convolve the laws of each atom's distinct
    counts in the batch, from one ``_atom_laws`` pass, over each type's
    atoms on their index, and weigh the law, summed by sorted content,
    against the Kostka matrix of ``_diagonal_weights``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    spectra = np.asarray(spectra, dtype=float)
    counts = np.ones(len(spectra), dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
    types = counts.reshape(-1, len(spectra))
    n, d = int(types[0].sum()), spectra.shape[1]
    if d == 2:
        if (labels.sum(axis=1) != n).any() or (labels[:, 0] < (n + 1) // 2).any():
            raise KeyError(f"labels off the partitions of n = {n} into two parts")
        start, bands, _ = two_row_bands(spectra, types, n)  # each band reaches n
        j = labels[:, 0] - start[:, None]
        probs = np.where(j < 0, 0.0, np.take_along_axis(bands, np.maximum(j, 0), axis=1))
        return _probabilities(probs.reshape(counts.shape[:-1] + (len(labels),)), "a diagonal block probability")
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
    cells, starts = _content_groups(n, d)
    probs = np.add.reduceat(law[:, cells], starts, axis=1) @ _diagonal_weights(n, d)[_rows(labels, n, d)].T
    return _probabilities(probs.reshape(counts.shape[:-1] + (len(labels),)), "a diagonal block probability")


def log_type_probs(s, taus) -> np.ndarray:
    """ln(multinomial(tau) prod s_j^tau_j) for each row tau of a (T, m) count array (0 ln 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(taus > 0, taus * np.log(s), 0.0)
    return young.log_factorial(taus.sum(axis=1)) - young.log_factorial(taus).sum(axis=1) + terms.sum(axis=1)


def _tilts(taus):
    """Tilts s with the rows of ``taus`` read from each: the first unread type's own s = tau/n,
    for every unread type at least 1/e as likely under it as under its own."""
    left, best = np.arange(len(taus)), log_type_probs(taus / taus[0].sum(), taus) - 1
    while len(left):
        s = taus[left[0]] / taus[left[0]].sum()
        near = log_type_probs(s, taus[left]) >= best[left]
        yield s, left[near]
        left = left[~near]


CHUNK_BYTES = 24 << 20  # most bytes of a chunk of labels in ``polarized_block_probs``


def polarized_block_probs(labels, states, taus) -> np.ndarray:
    """Tr P_lam (rho_1^{x tau_1} x ... x rho_m^{x tau_m}) for each row of an
    (L, 2) label array and each row of a (T, m) array of atom counts summing
    to n, as a (T, L) array, for qubit atoms that need not commute.

    Tr P_lam X^{x n} = dim S_n(lam) s_lam(eig X) for every 2x2 X (Fulton and
    Harris, Representation Theory, 6.1).  So for a tilt s, s_lam of X(theta)
    = sum_j s_j e^(i theta_j) rho_j has the coefficients multinomial(tau)
    prod s_j^tau_j Tr P_lam(...) / dim S_n(lam) >= 0 in theta: one FFT over
    roots of unity, folded to powers of two past the counts Bernstein's bound
    leaves likelier than NEGLIGIBLE_PMF, reads off every type, each label
    scaled by its value at theta = 0 (``log_block_probs_iid``).  s_(a,b) =
    e2^b h_(a-b), h_k = e1 h_(k-1) - e2 h_(k-2) (e1 = tr X, e2 = det X), from
    the lowest k by doubling.  A coefficient is off by about eps times its
    label's scale, so a type is read from a tilt near tau/n (``_tilts``);
    labels whose scale over its probability is below NEGLIGIBLE_PMF are 0.
    """
    labels, taus = np.asarray(labels, dtype=np.int64), np.asarray(taus, dtype=np.int64)
    states = np.asarray(states, dtype=complex).reshape(-1, 4)  # an atom in no type gets a grid axis of 1
    n, m, out = int(taus[0].sum()), len(states), np.zeros((len(taus), len(labels)))
    diff = labels[:, 0] - labels[:, 1]  # k = a - b, distinct per label
    for s, rows in _tilts(taus):
        spec = np.linalg.eigvalsh((s @ states).reshape(2, 2))[::-1].clip(0.0)
        log_p, log_scale = log_type_probs(s, taus[rows]), log_block_probs_iid(labels, spec)
        live = np.flatnonzero(log_scale >= log_p.min() + math.log(NEGLIGIBLE_PMF))
        live = live[np.argsort(diff[live])]
        first, last = _count_window(np.column_stack([s, 1 - s]), n * np.eye(m, dtype=np.int64))
        span = np.where(s > 0, np.maximum(last - taus[rows].min(axis=0), taus[rows].max(axis=0) - first) + 1, 1)
        axes = np.argsort(s == s.max(), kind="stable")  # theta = 0 on the last, a likeliest atom
        sizes = tuple(min(1 << int(v - 1).bit_length(), n + 1) for v in span[axes[:-1]].tolist())
        size = math.prod(sizes)
        chunk = max(1, CHUNK_BYTES // (48 * size))  # labels per chunk: three complex arrays over the grid
        require_bytes(48 * size * min(chunk, len(live)) + 64 * m * size, f"a polarization grid of {size} points")
        phases = np.exp(2j * np.pi * np.indices(sizes).reshape(m - 1, size).T / np.array(sizes))
        x = np.column_stack([phases, np.ones(size)]) @ (s[:, None] * states)[axes] / spec[0]
        e1, e2 = x[:, 0] + x[:, 3], x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]
        log_q = np.log(np.where(e2 == 0, np.finfo(float).tiny, e2)) - np.log(e2[0] or 1.0)  # |q| <= 1
        h, prev, k = np.ones(size, dtype=complex), np.zeros(size, dtype=complex), int(diff[live].min(initial=n))
        for bit in bin(k)[2:]:  # (h_j, h_(j-1)) to j = k from the top bit: j -> 2j, then j -> j + 1
            h, prev = h * h - e2 * prev * prev, prev * (2 * h - e1 * prev)
            if bit == "1":
                h, prev = e1 * h - e2 * prev, h
        index = np.ravel_multi_index(tuple((taus[np.ix_(rows, axes[:-1])] % sizes).T), sizes)
        for part in (live[i:i + chunk] for i in range(0, len(live), chunk)):
            terms = np.empty((len(part), size), dtype=complex)
            for i, j in enumerate(diff[part].tolist()):
                while k < j:
                    h, prev, k = e1 * h - e2 * prev, h, k + 1
                h[np.abs(h) < 1e-200], prev[np.abs(prev) < 1e-200] = 0.0, 0.0  # no slow subnormals; h(0) >= 1
                terms[i] = h / h[0]
            terms *= np.exp(labels[part, 1, None] * log_q)
            coeffs = np.fft.fftn(terms.reshape((-1,) + sizes), axes=tuple(range(1, m))).reshape(-1, size)
            out[np.ix_(rows, part)] = coeffs[:, index].real.T / size * np.exp(log_scale[part] - log_p[:, None])
    return _probabilities(out, "a polarized block probability")


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
