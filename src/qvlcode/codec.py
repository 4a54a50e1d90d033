"""The variable-length code: outcome lattice, instrument, lengths, errors.

The encoder measures which cluster of blocks the n-copy state lies in.
Clusters are indexed by integer vectors k summing to n; cluster k covers
every block label within Euclidean distance n*delta of k, and each block
label is covered by exactly C1 = c1(n*delta, d) clusters, so the
normalized cluster projectors form a complete instrument.  The encoder
then ships the outcome k plus the post-measurement state, truncated to
the covered blocks; the decoder embeds that subspace back.

Everything observable about the code reduces to block probabilities,
which ``schur_weyl`` computes over label arrays (dense, i.i.d. closed
form, letter-count law); this module only reduces them over clusters,
by one function for log-domain values (outcome statistics, lengths) and
linear ones (error expectations): one row-window sum over a grid of the
labels, for every d.  The instrument commutes with permutations of the
copies, so every expectation over the source is a sum over atom types
(``_atom_types``), one sequence per type, evaluated a batch of types at
a time; seeded Monte Carlo over the types is the fallback.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, young
from .info import sorted_spectrum, sum_zero_ball
from .linalg import (
    DimensionBudgetError,
    Source,
    factor_fidelity,
    fidelity,
    joint_eigenbasis,
    psd_factor,
    require_bytes,
    tensor,
)
from .schur_weyl import (
    block_probs_product,
    dense_block_probs,
    dense_bytes,
    diagonal_block_probs,
    log_block_probs_iid,
    log_type_probs,
    polarized_block_probs,
    two_row_bands,
    two_row_batches,
    young_projectors,
)

NEG_INF = float("-inf")

# Sentinel outcome for states rejected by a restricted code: only the
# classical flag is sent, no quantum subspace.
REJECT = None

# Complex d^n x R matrices (X_k, X_k / sqrt(p_k), V* X_k) one outcome holds
# at once in the instrument simulation: tracemalloc reads 3.1 to 3.4 at
# n = 6..8 for R = 1 and R = d^n, and LAPACK workspace comes on top.
SIMULATION_STACKS = 6


@dataclass(frozen=True)
class CodeParams:
    """Parameters of one instrument: block length, dimension, lattice radii.

    ``delta`` sets the cluster radius (n*delta); ``delta1`` and
    ``spectrum_set`` (a tuple of probability vectors) restrict the
    accepted outcomes to clusters near the listed spectra.
    """

    n: int
    d: int
    delta: float
    delta1: float | None = None
    spectrum_set: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.delta1 is not None and not 0 < self.delta1 < self.delta:
            raise ValueError("need 0 < delta1 < delta")
        if (self.spectrum_set is None) != (self.delta1 is None):
            raise ValueError("delta1 and spectrum_set must be given together")

    @property
    def restricted(self) -> bool:
        return self.spectrum_set is not None


def delta_schedule(n: int) -> tuple[float, float]:
    """The radius schedule delta = n^(-1/4), delta1 = n^(-1/4) - n^(-1/3).

    delta1 is positive for every n >= 2; at n = 1 the difference
    degenerates to 0 and delta/2 is substituted.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    delta = n ** (-0.25)
    delta1 = delta - n ** (-1.0 / 3.0)
    if delta1 <= 0:
        delta1 = delta / 2
    return delta, delta1


class VLCode:
    """A built instrument: outcomes, their block clusters, and lengths.

    Outcome k covers the labels k - z over the ball offsets z of
    ``info.sum_zero_ball``.  Per-label values are reduced over the clusters
    on a dense grid over the label coordinates 1..d-1 (coordinate 1 alone,
    one cell, for d = 1).  The ball is a stack of rows: with z_1..z_(d-2)
    fixed, z_(d-1) runs over one interval, the constraint being convex.  So
    a cluster sum is a sum over rows of one window reduction along the
    grid's last axis (``_window_reduce``), shifted into a box of outcomes
    padded by the ball's reach; d = 2 is the one-row case.  The outcomes
    are the box cells some label reaches, in descending order.  The grid,
    the box and the window temporaries are held within linalg.MAX_BYTES;
    ``blocks`` lists a cluster when asked for it.
    """

    def __init__(self, params: CodeParams):
        self.params = params
        n, d = params.n, params.d
        x = n * params.delta
        # the grid: label coordinates 1..d-1 (1 alone for d = 1), lambda_1 >= n / d and lambda_i <= n / i
        low = np.array([-(-n // d)] + [0] * max(d - 2, 0))
        shape = [n // i - lo + 1 for i, lo in enumerate(low.tolist(), 1)]
        r = math.floor(x)  # grid, box and window temporaries, before any is allocated; no offset exceeds x
        require_bytes(8 * (math.prod(shape) + math.prod(s + 2 * r for s in shape)
                           + 4 * math.prod(shape[:-1]) * (shape[-1] + 4 * r + 2)),
                      f"the cluster grid of n = {n}, d = {d}")
        ball, a = sum_zero_ball(x, d), len(shape)
        self.c1_count, self._offsets = len(ball), np.array(ball)
        # the rows: z_(d-1) on one interval per head z_1..z_(d-2), runs of the descending ball; as
        # (width, first offset), by width so that one window reduction serves a run of rows
        runs = (list(run) for _, run in itertools.groupby(ball, lambda z: z[:a - 1]))
        self._rows = sorted((run[0][a - 1] - run[-1][a - 1] + 1, run[-1][:a]) for run in runs)
        self._pad = np.abs(self._offsets[:, :a]).max(axis=0)
        self._grid_shape, self._box_shape = tuple(shape), tuple((shape + 2 * self._pad).tolist())
        self._terms = math.prod(self._box_shape)  # the padded box of one type
        # the labels: the grid cells that are partitions, descending (young_indices order)
        axes = np.ogrid[tuple(slice(lo, lo + s) for lo, s in zip(low.tolist(), shape))]
        self._grid_cells = np.flatnonzero(_partitions((*axes, n - sum(axes))))[::-1]
        labels = self._label_array = _full_vectors(np.unravel_index(self._grid_cells, shape), low, n, d)
        self._cells = slice(None)  # every box cell, until the reached ones are known
        log_dims = self._cluster_reduce(young.log_dim_sym_group(labels) + young.log_dim_unitary_group(labels),
                                        np.logaddexp)
        self._cells = np.flatnonzero(log_dims > NEG_INF)[::-1]  # every label's dimension is positive
        self._log_dims = log_dims[self._cells]
        ks = _full_vectors(np.unravel_index(self._cells, self._box_shape), low - self._pad, n, d)
        self.outcomes = tuple(zip(*ks.T.tolist()))
        self.blocks = _Clusters(self)
        if params.restricted:
            limit = params.delta1 * (1 + 1e-9) + 1e-12
            specs = np.asarray(params.spectrum_set, dtype=float)
            near = np.linalg.norm(ks[:, None, :] / n - specs[None, :, :], axis=-1) <= limit
            self._accepted_mask = near.any(axis=1)
            self.accepted = tuple(itertools.compress(self.outcomes, self._accepted_mask))
        else:
            self._accepted_mask = np.ones(len(self.outcomes), dtype=bool)
            self.accepted = self.outcomes
        self.num_symbols = len(self.accepted) + (1 if params.restricted else 0)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return young.young_indices(self.n, self.d)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        return {k: i for i, k in enumerate(self.outcomes)}

    def _cluster_reduce(self, values: np.ndarray, ufunc) -> np.ndarray:
        """Reduce the last axis of ``values`` (one entry per row of
        ``_label_array``) over each cluster by ``ufunc`` (np.add, or
        np.logaddexp for log-domain values), in ``outcomes`` order: each row
        of the ball adds its window reduction into the box of outcomes."""
        lead = values.shape[:-1]
        grid = np.full(lead + (math.prod(self._grid_shape),), ufunc.identity, dtype=float)
        grid[..., self._grid_cells] = values
        grid = grid.reshape(lead + self._grid_shape)
        box = np.full(lead + self._box_shape, ufunc.identity, dtype=float)
        width = 0
        for w, corner in self._rows:
            if w != width:
                width, runs = w, _window_reduce(grid, w, ufunc)
            view = box[(...,) + tuple(map(slice, self._pad + corner, self._pad + corner + runs.shape[len(lead):]))]
            ufunc(view, runs, out=view)
        return box.reshape(lead + (-1,))[..., self._cells]

    def subspace_dim(self, k) -> int:
        """Total dimension of the blocks covered by outcome k (exact integer)."""
        return sum(young.dim_block(lam, self.d) for lam in self.blocks[k])

    def coding_length(self, k) -> float:
        """ln(number of symbols) + ln(subspace dimension), in nats.

        The reject flag carries no quantum subspace, so only the symbol
        count contributes for it.  The dimension is summed in the log
        domain from log-factorial dimensions (``subspace_dim`` is its exact twin).
        """
        if k is REJECT:
            if not self.params.restricted:
                raise KeyError("this code has no reject symbol")
            return math.log(self.num_symbols)
        return math.log(self.num_symbols) + float(self._log_dims[self._position[tuple(k)]])

    def length_ceiling(self) -> float:
        """Largest possible per-symbol coding length of this code."""
        return (math.log(self.num_symbols) + float(self._log_dims[self._accepted_mask].max())) / self.n


class _Clusters(Mapping):
    """Outcome -> covered labels, listed when asked for: the labels k - z
    over the ball offsets z that are partitions (non-increasing, last entry
    >= 0), in descending order."""

    def __init__(self, code: VLCode):
        self._code = code

    def __getitem__(self, k) -> tuple[tuple[int, ...], ...]:
        code = self._code
        if tuple(k) not in code._position:
            raise KeyError(k)
        labels = np.asarray(k)[:, None] - code._offsets.T
        return tuple(zip(*labels[:, _partitions(labels)][:, ::-1].tolist()))  # the ball is sorted descending

    def __iter__(self):
        return iter(self._code.outcomes)

    def __len__(self) -> int:
        return len(self._code.outcomes)


def build_code(params: CodeParams) -> VLCode:
    return VLCode(params)


def _partitions(coords) -> np.ndarray:
    """Where the vectors of the coordinate arrays ``coords`` (broadcast
    together) are non-increasing with a last entry >= 0."""
    keep = coords[-1] >= 0
    for u, v in zip(coords[:-1], coords[1:]):
        keep = keep & (u >= v)
    return keep


def _full_vectors(coords, low, n: int, d: int) -> np.ndarray:
    """Grid or box cells (index arrays per axis, counted from ``low``) as
    (count, d) vectors summing to n; for d = 1 the one axis is the vector."""
    head = np.column_stack(coords) + low
    return np.column_stack([head, n - head.sum(axis=1)])[:, :d]


# --- log-domain sums --------------------------------------------------------

def _window_reduce(v: np.ndarray, width: int, ufunc) -> np.ndarray:
    """``ufunc``-reduction (np.add on nonnegative terms, or np.logaddexp)
    of every run of ``width`` consecutive positions that meets the last
    axis of v, positions off v counting as ``ufunc.identity``: the
    len + width - 1 runs, first the one that ends at v's first entry.

    Van Herk / Gil-Werman: cut the padded axis into blocks of ``width``; a
    run is a block suffix joined to the next block's prefix, so O(len) in
    all and no difference of prefix sums.  The suffixes are the prefixes
    of the reversed axis, read backwards.
    """
    lead, size = v.shape[:-1], v.shape[-1]
    runs = size + width - 1
    padded = np.full(lead + (-(-(runs + width - 1) // width) * width,), ufunc.identity, dtype=float)
    padded[..., width - 1:runs] = v
    prefix = ufunc.accumulate(padded.reshape(lead + (-1, width)), axis=-1).reshape(lead + (-1,))
    suffix = ufunc.accumulate(padded[..., ::-1].reshape(lead + (-1, width)), axis=-1)
    suffix = suffix.reshape(lead + (-1,))[..., ::-1]
    out = ufunc(suffix[..., :runs], prefix[..., width - 1:runs + width - 1])
    out[..., ::width] = suffix[..., :runs:width]  # the runs that are one whole block
    return out


# --- block cluster expectations ---------------------------------------------

# Skipped: atom types of total weight below this (no expectation moves by more)
NEGLIGIBLE_WEIGHT = 1e-17
# Above this many kept atom types the expectations fall back to this many Monte Carlo draws
MAX_ATOM_TYPES = 10**6
FALLBACK_SAMPLES = 10**5
# Most types per batch of the two-row route, and most bytes of its arrays (schur_weyl.two_row_batches)
BATCH_TYPES, BATCH_BYTES = 1024, 4 << 20


def _atom_types(weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atom-count vectors tau of n i.i.d. draws from ``weights``, and their
    probabilities n!/prod(tau_j!) prod(w_j^tau_j), in descending
    lexicographic order.

    Every expectation of the code is invariant under permuting the copies
    (the instrument commutes with permutations), so a sequence enters only
    through its type and ``np.repeat(arange(m), tau)`` stands for all of
    them.  Types below NEGLIGIBLE_WEIGHT over the number of types are
    dropped, and only the kept ones are built, one atom at a time: a prefix
    with the other draws lumped is at least as likely as any type that
    extends it, and its next count is binomial given the prefix, so kept
    only within Hoeffding's reach of its mean.  More than MAX_ATOM_TYPES
    kept prefixes raise DimensionBudgetError.
    """
    w, m = np.asarray(weights, dtype=float), len(weights)
    cut = math.log(NEGLIGIBLE_WEIGHT / math.comb(n + m - 1, m - 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # tau_j ln w_j is 0 where tau_j = 0
        log_w, log_rest = np.log(w), np.log(np.append(w[::-1].cumsum()[::-1], 0.0))

        def times(k, log_p):
            return np.where(k > 0, k * log_p, 0.0)

        taus, base = np.zeros((1, 0), dtype=np.int64), np.array([young.log_factorial(n)])
        for j in range(m - 1):
            rest = n - taus.sum(axis=1)
            # P(x) <= e^(-2 (x - mean)^2 / rest) is below the cut (less 1e-6 of rounding) beyond the reach
            mean, reach = rest * (w[j] / max(w[j:].sum(), 1e-300)), np.sqrt(rest * (1 - cut) / 2)
            lo = np.maximum(np.ceil(mean - reach), 0).astype(np.int64)
            counts = np.minimum(np.floor(mean + reach).astype(np.int64), rest) - lo + 1
            x = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
            rows = np.repeat(np.arange(len(taus)), counts)
            base = base[rows] - young.log_factorial(x) + times(x, log_w[j])
            kept = base - young.log_factorial(rest[rows] - x) + times(rest[rows] - x, log_rest[j + 1]) >= cut - 1e-6
            if kept.sum() > MAX_ATOM_TYPES:
                raise DimensionBudgetError(f"more than {MAX_ATOM_TYPES} atom types of {m} atoms at n = {n} "
                                           f"carry weight (MAX_ATOM_TYPES)")
            taus, base = np.column_stack([taus[rows[kept]], x[kept]]), base[kept]
        taus = np.column_stack([taus, n - taus.sum(axis=1)])[::-1]
        log_w = log_type_probs(w, taus)
    keep = log_w >= cut
    return taus[keep], np.exp(log_w[keep])


def _by_nearby_counts(taus, weights, batch: int):
    """The types and their weights in blocks of nearby counts: a batch of
    ``batch`` types meets few counts of an atom, so evaluates few of its laws."""
    order = np.lexsort((taus // math.ceil(batch ** (1 / max(taus.shape[1] - 1, 1)))).T[::-1])
    return taus[order], weights[order]


def _commuting_diag(states):
    """The states' joint diagonals clipped at 0, or None if they do not commute."""
    joint = joint_eigenbasis(states)
    return None if joint is None else np.clip(joint[1], 0.0, None)


def cluster_expectations(code: VLCode, source: Source, exponents: tuple[float, ...],
                         samples: int | None = None, seed: int = 0):
    """E over the source of (Tr P_k rho_1 x ... x rho_n)^e per outcome, for
    each exponent e in ``exponents``.

    Returns (one dict outcome -> expectation per exponent, one stderr per
    exponent or None).  One sequence per atom type (atoms of weight 0 in
    none) is weighed with the type's probability, its traces computed once
    for all exponents: by ``_two_row_expectations`` for commuting qubit
    atoms, else a batch of types at a time, block probabilities from
    ``schur_weyl``: ``diagonal_block_probs`` (commuting atoms, any n and d),
    ``polarized_block_probs`` (other qubit atoms, any n) or
    ``dense_block_probs`` (within linalg.MAX_BYTES), summed over each
    cluster by ``VLCode._cluster_reduce``.  Above MAX_ATOM_TYPES kept
    types, or for ``samples`` (at least 2), the counts of the types of one
    seeded multinomial draw replace the type probabilities; stderr is the
    standard error of the estimate 1 - sum over accepted outcomes / C1, by
    the sample variance (divisor samples - 1).
    """
    n, live = code.n, np.asarray(source.weights) > 0  # the atoms that can take part in a type
    states = [rho for rho, keep in zip(source.states, live) if keep]
    m, diag = len(states), _commuting_diag(states)
    labels = code._label_array
    if diag is None and code.d > 2:  # before any tensor product is built
        require_bytes(dense_bytes(n, code.d), f"the block projectors of n = {n}, d = {code.d}")

    def block_probs(taus) -> np.ndarray:
        if diag is not None:
            return diagonal_block_probs(labels, diag, taus)
        if code.d == 2:
            return polarized_block_probs(labels, states, taus)
        seqs = (np.repeat(np.arange(m), tau) for tau in taus)
        return np.array([dense_block_probs(labels, tensor(*(states[j] for j in seq))) for seq in seqs])
    sampled = samples is not None
    if not sampled:
        try:
            taus, weights = _atom_types(source.weights, n)
        except DimensionBudgetError:
            sampled = True
    if sampled:
        samples = samples or FALLBACK_SAMPLES
        if samples < 2:
            raise ValueError(f"a Monte Carlo standard error needs at least 2 samples, got {samples}")
        draws = np.random.default_rng(seed).multinomial(n, source.weights, size=samples)  # atom-count vectors
        taus, weights = np.unique(draws, axis=0, return_counts=True)
    taus = taus[:, live]
    if not sampled and code.d == 2 and diag is not None:
        totals = _two_row_expectations(code, diag, taus, weights, exponents)
        return [dict(zip(code.outcomes, row.tolist())) for row in totals], None
    # about 8 MB per array: a type's letter-count law, its cluster terms, its traces
    batch = max(1, (1 << 20) // ((n + 1) ** (code.d - 1) + code._terms + len(code.outcomes)))
    taus, weights = _by_nearby_counts(taus, weights, batch)
    totals = np.zeros((len(exponents), len(code.outcomes)))
    kept = np.zeros((len(exponents), len(taus)))  # a sampled type's accepted sum per exponent
    for first in range(0, len(taus), batch):
        rows = slice(first, first + batch)
        clipped = np.clip(code._cluster_reduce(block_probs(taus[rows]), np.add), 0.0, 1.0)
        for j, e in enumerate(exponents):
            vals = clipped**e
            totals[j] += weights[rows] @ vals
            if sampled:
                kept[j, rows] = vals[:, code._accepted_mask].sum(axis=1)
    stderrs = None
    if sampled:  # the sample variance of the draws' accepted sums, each sum exactly rounded
        spreads = [row - math.fsum(weights * row) / samples for row in kept]
        stderrs = [math.sqrt(math.fsum(weights * s**2) / (samples - 1) / samples) / code.c1_count for s in spreads]
    return [dict(zip(code.outcomes, row.tolist())) for row in totals / (samples or 1)], stderrs


def _two_row_expectations(code: VLCode, diag, taus, weights, exponents) -> np.ndarray:
    """The weighed sums over the types of each outcome's clipped trace to
    each exponent, in ``outcomes`` order, for commuting qubit atoms.

    Outcome k0 sums the labels within t of it.  Each type's band from
    ``schur_weyl.two_row_bands``, reaching 2t past its law, gives every
    outcome that meets it by a cumulative sum; types whose bands start
    together add up by one matrix product.  Below the band an outcome is
    0.  Above it the outcome is S_tau D(k0), with S_tau the type's total
    and D(k0) the window sum of dim S_n, so its e-th power separates: those
    of all types are D(k0)^e times one log-domain prefix sum of
    w_tau S_tau^e over the types ordered by where their band ends.
    """
    n, t = code.n, code.c1_count // 2  # C1 = 2t + 1
    amin, width, size = (n + 1) // 2, 2 * t + 1, len(code.outcomes)
    # outcome u = k0 - amin + t, rising; ln D(k0) once for all types
    log_dims = code._cluster_reduce(young.log_dim_sym_group(code._label_array), np.logaddexp)[::-1]
    taus, weights = _by_nearby_counts(taus, weights, BATCH_TYPES)
    totals = np.zeros((len(exponents), size))
    ends, log_totals = np.zeros(len(taus), dtype=np.int64), np.zeros(len(taus))
    for rows, _ in two_row_batches(diag, taus, 2 * t, BATCH_BYTES, BATCH_TYPES):
        start, bands, log_totals[rows] = two_row_bands(diag, taus[rows], 2 * t)
        span = bands.shape[1]
        np.cumsum(bands, axis=1, out=bands)
        bands[:, width:] -= bands[:, :-width]  # numpy reads the overlapping operand from a copy
        np.clip(bands, 0.0, 1.0, out=bands)
        ends[rows] = start - amin + span  # the first outcome above the band
        offsets, group = np.unique(start - amin, return_inverse=True)
        weighed = np.zeros((len(offsets), len(group)))
        weighed[group, np.arange(len(group))] = weights[rows]
        for j, e in enumerate(exponents):
            for u, row in zip(offsets.tolist(), weighed @ bands**e):
                totals[j, u:u + span] += row[:size - u]
    by_end = np.argsort(ends, kind="stable")
    below = np.searchsorted(ends[by_end], np.arange(size), side="right")  # the types below each outcome
    for j, e in enumerate(exponents):
        prefix = np.logaddexp.accumulate((np.log(weights) + e * log_totals)[by_end])
        totals[j] += np.exp(e * log_dims + np.append(-np.inf, prefix)[below])
    return totals[:, ::-1]


# --- outcome statistics -----------------------------------------------------

def _log_outcome_probs(code: VLCode, spec) -> np.ndarray:
    """log P(outcome k) in ``outcomes`` order for an i.i.d. spectrum: one
    log-sum-exp of the i.i.d. block probabilities per cluster."""
    logs = code._cluster_reduce(log_block_probs_iid(code._label_array, spec), np.logaddexp)
    return logs - math.log(code.c1_count)


def _with_reject(code: VLCode, per_outcome: np.ndarray, reduce) -> dict:
    """Outcome -> value, a restricted code's rejected outcomes folded into REJECT by ``reduce``."""
    if not code.params.restricted:
        return dict(zip(code.outcomes, per_outcome.tolist()))
    out = dict(zip(code.accepted, per_outcome[code._accepted_mask].tolist()))
    out[REJECT] = float(reduce(per_outcome[~code._accepted_mask]))
    return out


def log_outcome_distribution(code: VLCode, spec) -> dict:
    """log P(outcome k), and of a restricted code's reject flag, for an i.i.d. spectrum."""
    return _with_reject(code, _log_outcome_probs(code, spec), np.logaddexp.reduce)


def outcome_distribution(code: VLCode, state) -> dict:
    """P(outcome) for an i.i.d. spectrum, a Source, or a list of factor states.

    A Source is reduced to the spectrum of its average state: the outcome
    statistics of the instrument depend on the source only through that
    mixture.  A list of factors takes ``schur_weyl.block_probs_product``.
    """
    if isinstance(state, (list, tuple)) and np.asarray(state[0]).ndim == 2:
        probs = code._cluster_reduce(block_probs_product(code._label_array, state), np.add) / code.c1_count
        return _with_reject(code, probs, np.sum)
    spec = sorted_spectrum(state.average_state()) if isinstance(state, Source) else state
    return {k: math.exp(v) for k, v in log_outcome_distribution(code, spec).items()}


def log_overflow_probability(code: VLCode, spec, rate: float) -> float:
    """log P{per-symbol coding length >= rate} for an i.i.d. spectrum."""
    over = code._accepted_mask & ((math.log(code.num_symbols) + code._log_dims) / code.n >= rate)
    if code.params.restricted and math.log(code.num_symbols) / code.n >= rate:
        over |= ~code._accepted_mask  # the reject flag
    return float(np.logaddexp.reduce(_log_outcome_probs(code, spec)[over]))


def overflow_probability(code: VLCode, spec, rate: float) -> float:
    v = log_overflow_probability(code, spec, rate)
    return math.exp(v) if v > NEG_INF else 0.0


# --- error functionals ------------------------------------------------------

def average_error_chain(code: VLCode, source: Source, exponent: float = 1.5,
                        samples: int | None = None, seed: int = 0):
    """Average error via the closed expectation chain, 1 - sum E[(Tr P_k rho)^e]/C1.

    Exponent 1.5 is the squared-Bures criterion and equals the
    instrument-simulation value exactly (the tests hold the two routes
    to 1e-9); exponent 2 is the overlap-squared criterion, equal to its
    definition for pure-state ensembles.  Rejected outcomes of a
    restricted code are charged the worst-case error 1.  Returns
    (value, stderr); stderr is None off the Monte Carlo route.
    """
    (exps,), stderrs = cluster_expectations(code, source, (exponent,), samples=samples, seed=seed)
    acc = sum(exps[k] for k in code.accepted)
    return 1.0 - acc / code.c1_count, None if stderrs is None else stderrs[0]


def average_error_exact(code: VLCode, source: Source,
                        samples: int | None = None, seed: int = 0) -> float:
    """Average error of the code on an i.i.d. source (exact route)."""
    return average_error_chain(code, source, 1.5, samples=samples, seed=seed)[0]


def average_error_dprime(code: VLCode, source: Source,
                         samples: int | None = None, seed: int = 0) -> float:
    """Alternative overlap-squared criterion: exponent 2 in the chain."""
    return average_error_chain(code, source, 2.0, samples=samples, seed=seed)[0]


def _instrument_matrices(code: VLCode) -> np.ndarray:
    """The cluster projectors P_k stacked in ``outcomes`` order; the
    instrument's elements are M_k = P_k / C1."""
    projs = young_projectors(code.n, code.d)
    # filled in place: stacking a list of sums would hold every P_k twice
    out = np.zeros((len(code.outcomes), code.d**code.n, code.d**code.n))
    for p, k in zip(out, code.outcomes):
        for lam in code.blocks[k]:
            p += projs[lam]
    return out


def _simulated_error(code: VLCode, source: Source, accepted_error) -> float:
    """Average over atom sequences and outcomes of p_k times the error of
    the normalized post-measurement state, by instrument simulation: the
    definition (Kraus action, renormalization, criterion), not the chain's
    identity in Tr(P_k rho)^(3/2).  The state is a factor, rho = V V*, V
    the tensor product of the atoms' ``psd_factor``s (d^n x R, R the
    product of their ranks); P_k / sqrt(C1) takes V to X_k, of squared
    norm p_k, and ``accepted_error(seq, v, xs)`` gives the error of a stack
    of accepted outcomes' X_k / sqrt(p_k).  The reject flag is charged the
    worst case 1.  Both criteria are invariant under permuting the copies,
    so one sequence per atom type carries the type's probability.  A type's
    outcomes go in chunks, at least one outcome each, whose SIMULATION_STACKS
    d^n x R matrices per outcome fit beside the projectors in MAX_BYTES.
    """
    held = dense_bytes(code.n, code.d, len(code.outcomes))
    require_bytes(held, "the dense instrument simulation")
    kraus = _instrument_matrices(code)
    kraus /= math.sqrt(code.c1_count)
    factors = [psd_factor(s) for s in source.states]
    total = 0.0
    for tau, w in zip(*_atom_types(source.weights, code.n)):
        seq = np.repeat(np.arange(source.num_atoms), tau)
        v = np.ascontiguousarray(tensor(*(factors[j] for j in seq)))  # viewed as float below
        chunk = max(1, (linalg.MAX_BYTES - held) // (SIMULATION_STACKS * 16 * v.size))
        for first in range(0, len(kraus), chunk):
            # P_k is real: one real product on V's interleaved real and imaginary parts
            xs = kraus[first:first + chunk] @ v.view(float)
            p = np.einsum("kij,kij->k", xs, xs)
            live = p > 1e-15
            acc = live & code._accepted_mask[first:first + chunk]
            total += w * p[live & ~acc].sum()
            if acc.any():
                normalized = xs[acc].view(complex) / np.sqrt(p[acc, None, None])
                total += w * (p[acc] @ accepted_error(seq, v, normalized))
    return total


def average_error_definitional(code: VLCode, source: Source) -> float:
    """Average error by direct instrument simulation: applies the Kraus
    operator, renormalizes, and averages the squared Bures distance over
    outcomes and atom sequences, the root fidelity by ``factor_fidelity``.
    This is the defining expression, not the chain's Tr(P_k rho)^(3/2)
    identity, so the two routes can check each other.
    """
    return _simulated_error(code, source, lambda seq, v, xs: 1.0 - factor_fidelity(v, xs))


def average_error_prime(code: VLCode, source: Source) -> float:
    """Per-copy error by the same simulation (Kraus action, renormalization,
    fidelity; not the chain's identity): mean squared Bures distance between
    each input factor and the matching marginal of the normalized output,
    slot i's of X X* contracting X with its conjugate over the other slots."""
    def per_copy(seq, v, xs):
        parts = (xs.reshape(len(xs), code.d**i, code.d, -1) for i in range(code.n))
        marginals = np.stack([np.einsum("kaib,kajb->kij", x, x.conj()) for x in parts], axis=1)
        return (1.0 - fidelity(np.array(source.states)[seq], marginals)).mean(axis=1)

    return _simulated_error(code, source, per_copy)


# --- outcome records and the fixed-length conversion -------------------------

@dataclass(frozen=True)
class OutcomeRecord:
    k: tuple[int, ...] | None
    probability: float
    coding_length: float
    error_contribution: float


def outcome_records(code: VLCode, source: Source,
                    samples: int | None = None, seed: int = 0) -> tuple[list[OutcomeRecord], float | None]:
    """Per-outcome probability, length, and error contribution for a source,
    and the Monte Carlo stderr of the contributions' sum (else None)."""
    (exp1, exp32), stderrs = cluster_expectations(code, source, (1.0, 1.5), samples=samples, seed=seed)
    acc = set(code.accepted)
    records = []
    reject_prob = 0.0
    for k in code.outcomes:
        p = exp1[k] / code.c1_count
        if k in acc:
            contrib = p - exp32[k] / code.c1_count
            records.append(OutcomeRecord(k, p, code.coding_length(k), contrib))
        else:
            reject_prob += p
    if code.params.restricted:
        records.append(OutcomeRecord(REJECT, reject_prob, code.coding_length(REJECT), reject_prob))
    return records, None if stderrs is None else stderrs[1]


@dataclass(frozen=True)
class FixedLengthReport:
    rate: float
    error_fixed: float
    error_variable: float
    overflow: float
    kept_outcomes: int
    stderr: float | None = None  # of error_variable, on the Monte Carlo route

    @property
    def slack(self) -> float:
        """RHS minus LHS of the conversion inequality (nonnegative)."""
        return self.overflow - (self.error_fixed - self.error_variable)


def to_fixed_length(code: VLCode, rate: float, source: Source,
                    samples: int | None = None, seed: int = 0) -> FixedLengthReport:
    """Convert to a fixed-rate code: long outcomes become a failure flag.

    Outcomes whose per-symbol length reaches ``rate`` are replaced by a
    classical failure marker decoded to a state outside the input space,
    charged the worst-case squared Bures distance 1.  The report carries
    both errors and the overflow probability; the error increase never
    exceeds the overflow.
    """
    records, stderr = outcome_records(code, source, samples=samples, seed=seed)
    n = code.n
    err_fixed = err_vl = overflow = 0.0
    kept = 0
    for rec in records:
        err_vl += rec.error_contribution
        if rec.coding_length / n >= rate:
            err_fixed += rec.probability
            overflow += rec.probability
        else:
            # a short reject flag keeps its variable-length error (already
            # the worst case); kept outcomes keep their quantum payload
            err_fixed += rec.error_contribution
            if rec.k is not REJECT:
                kept += 1
    return FixedLengthReport(rate, err_fixed, err_vl, overflow, kept, stderr)
