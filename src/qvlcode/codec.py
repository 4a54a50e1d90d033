"""The variable-length code: outcome lattice, instrument, lengths, errors.

The encoder measures which cluster of blocks the n-copy state lies in.
Clusters are indexed by integer vectors k summing to n; cluster k covers
every block label within Euclidean distance n*delta of k, and each block
label is covered by exactly C1 = c1(n*delta, d) clusters, so the
normalized cluster projectors form a complete instrument.  The encoder
then ships the outcome k plus the post-measurement state, truncated to
the covered blocks; the decoder embeds that subspace back.

Everything observable about the code reduces to block probabilities, so
the evaluation routes mirror the three block-probability routes: exact
dense matrices at small n, the i.i.d. closed form (lgamma dimensions
times the log-domain bialternant, one log-sum-exp per cluster) for
outcome statistics, the Kostka closed form for errors of commuting
sources, and seeded Monte Carlo as a fallback.  The instrument
commutes with permutations of the copies, so every expectation over the
source is a sum over atom types (``_atom_types``), one sequence per type.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from . import young
from .info import lattice_count_bounds, sorted_spectrum, sum_zero_ball
from .linalg import (
    DimensionBudgetError,
    Source,
    fidelity,
    joint_eigenbasis,
    partial_trace,
    psd_sqrt,
    require_bytes,
    tensor,
)
from .schur_weyl import block_prob_product, dense_bytes, type_distribution, young_projectors

NEG_INF = float("-inf")

# Sentinel outcome for states rejected by a restricted code: only the
# classical flag is sent, no quantum subspace.
REJECT = None

# Bytes per membership and coordinate held while the d >= 3 cluster index
# is built (the sums, the sort keys and order, and the sorted copy).
MEMBER_BYTES = 32


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

    For d = 2, outcome (k0, n - k0) covers the labels (a, n - a) with a in
    the window [max(k0 - t, ceil(n/2)), min(k0 + t, n)], t =
    ``window_halfwidth``.  For d >= 3 the memberships (label + ball
    offset) form one array index grouped by outcome, held within
    linalg.MAX_BYTES: outcome i covers the labels numbered
    ``_index[_starts[i]:_starts[i + 1]]``.  Either way ``blocks`` lists a
    cluster when asked for it.
    """

    def __init__(self, params: CodeParams):
        self.params = params
        n, d = params.n, params.d
        if d == 2:
            offsets = sum_zero_ball(n * params.delta, d)
            self.c1_count = len(offsets)
            t = self.window_halfwidth = offsets[0][0]
            self.outcomes = tuple((k0, n - k0) for k0 in range(n + t, (n + 1) // 2 - t - 1, -1))
        else:
            self._index, self._starts, outcomes, self.c1_count = self._members()
            self.outcomes = tuple(map(tuple, outcomes.tolist()))
        self.blocks = _Clusters(self)
        if params.restricted:
            limit = params.delta1 * (1 + 1e-9) + 1e-12
            ks = np.asarray(self.outcomes, dtype=float) / n
            specs = np.asarray(params.spectrum_set, dtype=float)
            near = np.linalg.norm(ks[:, None, :] - specs[None, :, :], axis=-1) <= limit
            self.accepted = tuple(itertools.compress(self.outcomes, near.any(axis=1)))
        else:
            self.accepted = self.outcomes
        self.num_symbols = len(self.accepted) + (1 if params.restricted else 0)

    def _members(self):
        """(label index of each membership, first membership of each
        outcome, outcomes, C1), memberships sorted by outcome descending,
        then label descending."""
        n, d = self.n, self.d
        x = n * self.params.delta
        # lower bounds first, so that no enumeration starts past the budget:
        # labels >= C(n + d - 1, d - 1) / d!, offsets >= the lattice count bound
        what = f"the cluster index of n = {n}, d = {d}"
        ball = lattice_count_bounds(x, d)[0]
        require_bytes(math.comb(n + d - 1, d - 1) / math.factorial(d) * ball * MEMBER_BYTES * d, what)
        labels = np.array(self.labels)
        offsets = np.array(sum_zero_ball(x, d))
        require_bytes(len(labels) * len(offsets) * MEMBER_BYTES * d, what)
        ks = (labels[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        order = np.lexsort((np.repeat(np.arange(len(labels)), len(offsets)), *(-ks.T[::-1])))
        ks = ks[order]
        starts = np.flatnonzero(np.concatenate([[True], (ks[1:] != ks[:-1]).any(axis=1)]))
        return order // len(offsets), np.append(starts, len(ks)), ks[starts], len(offsets)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return young.young_indices(self.n, self.d)

    def window(self, k) -> tuple[int, int]:
        """Range [lo, hi] of the larger parts a of the labels (a, n - a)
        covered by outcome k of a d = 2 code."""
        n, t = self.n, self.window_halfwidth
        if len(k) != 2 or k[0] + k[1] != n or not (n + 1) // 2 - t <= k[0] <= n + t:
            raise KeyError(f"unknown outcome {tuple(k)}")
        return max(k[0] - t, (n + 1) // 2), min(k[0] + t, n)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        return {k: i for i, k in enumerate(self.outcomes)}

    def _cluster_logsumexp(self, block_logs: np.ndarray) -> np.ndarray:
        """Per-outcome log-sum-exp of ``block_logs`` over each cluster, in
        ``outcomes`` order.  For d = 2 entry i is for the label
        (ceil(n/2) + i, .), padded by 2t on both sides so every window has
        the full width 2t + 1; otherwise entry i is for ``labels[i]``."""
        if self.d == 2:
            pad = np.full(2 * self.window_halfwidth, NEG_INF)
            width = 2 * self.window_halfwidth + 1
            return _window_logsumexp(np.concatenate([pad, block_logs, pad]), width)[::-1]
        return _grouped_logsumexp(block_logs[self._index], self._starts)

    @property
    def _label_array(self) -> np.ndarray:
        """The labels as an (L, d) array in ``_cluster_logsumexp`` order:
        (a, n - a) for a rising from ceil(n/2) when d = 2, else ``labels``."""
        if self.d == 2:
            a = np.arange((self.n + 1) // 2, self.n + 1)
            return np.stack([a, self.n - a], axis=1)
        return np.array(self.labels)

    @cached_property
    def _log_dims(self) -> dict[tuple[int, ...], float]:
        """Outcome -> ln(subspace dimension), in lgamma."""
        labels = self._label_array
        block = young.log_dim_sym_group(labels) + young.log_dim_unitary_group(labels)
        return dict(zip(self.outcomes, self._cluster_logsumexp(block).tolist()))

    def subspace_dim(self, k) -> int:
        """Total dimension of the blocks covered by outcome k (exact integer)."""
        return sum(young.dim_block(lam, self.d) for lam in self.blocks[k])

    def coding_length(self, k) -> float:
        """ln(number of symbols) + ln(subspace dimension), in nats.

        The reject flag carries no quantum subspace, so only the symbol
        count contributes for it.  The dimension is summed in the log
        domain from lgamma dimensions (``subspace_dim`` is its exact twin).
        """
        if k is REJECT:
            if not self.params.restricted:
                raise KeyError("this code has no reject symbol")
            return math.log(self.num_symbols)
        return math.log(self.num_symbols) + self._log_dims[tuple(k)]

    def length_ceiling(self) -> float:
        """Largest possible per-symbol coding length of this code."""
        return max(self.coding_length(k) for k in self.accepted) / self.n


class _Clusters(Mapping):
    """Outcome -> covered labels, listed when asked for: from the window
    for d = 2, from the membership index otherwise."""

    def __init__(self, code: VLCode):
        self._code = code

    def __getitem__(self, k) -> tuple[tuple[int, ...], ...]:
        code = self._code
        if code.d == 2:
            lo, hi = code.window(k)
            return tuple((a, code.n - a) for a in range(hi, lo - 1, -1))
        i = code._position[tuple(k)]
        return tuple(code.labels[j] for j in code._index[code._starts[i]:code._starts[i + 1]].tolist())

    def __iter__(self):
        return iter(self._code.outcomes)

    def __len__(self) -> int:
        return len(self._code.outcomes)


def build_code(params: CodeParams) -> VLCode:
    return VLCode(params)


# --- log-domain sums --------------------------------------------------------

def _logsumexp(values: list[float]) -> float:
    m = max(values, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in values))


def _window_logsumexp(v: np.ndarray, width: int) -> np.ndarray:
    """Log-sum-exp of every run of ``width`` consecutive entries of v.

    Van Herk / Gil-Werman: cut v into blocks of ``width``; a run is a block
    suffix joined to the next block's prefix, so O(len(v)) in all.
    """
    blocks = np.concatenate([v, np.full(-len(v) % width, NEG_INF)]).reshape(-1, width)
    prefix = np.logaddexp.accumulate(blocks, axis=1).ravel()
    suffix = np.logaddexp.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    start = np.arange(len(v) - width + 1)
    out = np.logaddexp(suffix[start], prefix[start + width - 1])
    whole = start % width == 0  # the run is one whole block
    out[whole] = suffix[start[whole]]
    return out


def _grouped_logsumexp(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each run v[starts[i]:starts[i + 1]] (all nonempty)."""
    top = np.maximum.reduceat(v, starts[:-1])
    shift = np.where(top > NEG_INF, top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.add.reduceat(np.exp(v - np.repeat(shift, np.diff(starts))), starts[:-1]))


# --- block cluster expectations ---------------------------------------------

# Skipped: atom types of total weight below this (no expectation moves by more)
NEGLIGIBLE_WEIGHT = 1e-17
# Dropped from the convolutions: binomial letter-count probabilities below this
NEGLIGIBLE_PMF = 1e-30
# Above this many atom types the expectations fall back to Monte Carlo
MAX_ATOM_TYPES = 10**6


def _atom_types(weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atom-count vectors tau of n i.i.d. draws from ``weights``, and their
    probabilities n!/prod(tau_j!) prod(w_j^tau_j).

    Every expectation of the code is invariant under permuting the copies
    (the instrument commutes with permutations), so a sequence enters only
    through its type and ``np.repeat(arange(m), tau)`` stands for all of
    them.  Types of total weight below NEGLIGIBLE_WEIGHT are dropped.
    More than MAX_ATOM_TYPES types raise DimensionBudgetError before any
    is built.
    """
    count = math.comb(n + len(weights) - 1, len(weights) - 1)
    if count > MAX_ATOM_TYPES:
        raise DimensionBudgetError(f"{count} atom types of {len(weights)} atoms at n = {n} exceed the "
                                   f"limit of {MAX_ATOM_TYPES} (MAX_ATOM_TYPES)")
    taus = np.array(young.compositions(n, len(weights)))
    log_w = gammaln(n + 1.0) - gammaln(taus + 1.0).sum(axis=1) + xlogy(taus, np.asarray(weights)).sum(axis=1)
    keep = log_w >= math.log(NEGLIGIBLE_WEIGHT / len(taus))
    return taus[keep], np.exp(log_w[keep])


def _two_level_expectations(code: VLCode, diag, exponents) -> np.ndarray:
    """E[(Tr P_k rho_1 x ... x rho_n)^e] per exponent e and outcome, commuting d = 2 source.

    A basis vector with c zeros puts weight dimV(a) [a >= h] / C(n, c) on
    block (a, n - a), h = max(c, n - c), and a window [lo, hi] of blocks
    telescopes to (C(n, n - max(lo, h)) - C(n, n - hi - 1)) / C(n, c).  So
    for a letter-count law pmf the outcome's trace is
    C(n, lo) S(lo) + P(hi) - P(lo) - C(n, hi + 1) S(hi), with P and S the
    prefix sums over h of pmf and pmf / C(n, c); S is kept in the log
    domain.  One O(n) pass per atom type.
    """
    n = code.n
    amin = (n + 1) // 2
    weights, diags = diag
    qs = [float(q[0]) for q in diags]
    h = np.arange(amin, n + 1)
    log_comb = gammaln(n + 1.0) - gammaln(h + 1.0) - gammaln(n - h + 1.0)
    lo, hi = (np.array([code.window(k) for k in code.outcomes]) - amin).T
    log_comb_lo = log_comb[lo]
    log_comb_above = np.append(log_comb[1:], NEG_INF)[hi]
    taus, probs = _atom_types(weights, n)
    binomials = {}

    def binomial(j: int, tj: int):
        if (j, tj) not in binomials:
            c = np.arange(tj + 1)
            pmf = np.exp(gammaln(tj + 1.0) - gammaln(c + 1.0) - gammaln(tj - c + 1.0)
                         + xlogy(c, qs[j]) + xlog1py(tj - c, -qs[j]))
            big = np.flatnonzero(pmf >= NEGLIGIBLE_PMF)
            binomials[j, tj] = big[0], pmf[big[0]:big[-1] + 1]
        return binomials[j, tj]

    total = np.zeros((len(exponents), len(lo)))
    batch = max(1, (1 << 20) // (n + 1 + len(lo)))  # about 8 MB per array
    for first in range(0, len(taus), batch):
        rows = taus[first:first + batch]
        pmf = np.zeros((len(rows), n + 1))
        for r, tau in enumerate(rows):
            start, vals = 0, np.ones(1)
            for j, tj in enumerate(tau):
                if tj:
                    offset, part = binomial(j, int(tj))
                    start += offset
                    vals = np.convolve(vals, part)
            pmf[r, start:start + len(vals)] = vals
        by_h = pmf[:, amin:] + pmf[:, n - amin::-1]  # c = h and c = n - h
        if n % 2 == 0:
            by_h[:, 0] /= 2  # h = n/2 is a single c
        cum = np.cumsum(by_h, axis=1)
        with np.errstate(divide="ignore"):
            log_s = np.logaddexp.accumulate(np.log(by_h) - log_comb, axis=1)
        v = (np.exp(log_comb_lo + log_s[:, lo]) + cum[:, hi] - cum[:, lo]
             - np.exp(log_comb_above + log_s[:, hi]))
        v = np.clip(v, 0.0, 1.0)
        for row, e in zip(total, exponents):
            row += probs[first:first + batch] @ v**e
    return total


def _commuting_diag(source: Source):
    joint = joint_eigenbasis(source.states)
    if joint is None:
        return None
    _, diags = joint
    return source.weights, [np.clip(q, 0.0, None) for q in diags]


def _kostka_traces(code: VLCode, diags):
    """Per-outcome traces of one sequence of commuting atoms, from the
    letter-count law of its diagonals and the exact diagonal block weights."""
    clusters = list(code.blocks.values())

    def traces(seq) -> np.ndarray:
        types = type_distribution([diags[j] for j in seq])
        per_block = {
            lam: sum(p * young.exact_block_weight(lam, c) for c, p in types.items())
            for lam in code.labels
        }
        return np.array([float(sum(per_block[lam] for lam in labels)) for labels in clusters])
    return traces


def _dense_traces(code: VLCode, source: Source):
    """Per-outcome traces of one atom sequence against the dense cluster
    projectors.  P_k is real symmetric, so Tr P_k rho = Tr P_k Re(rho): a
    real contraction, where the complex one promotes the whole stack."""
    require_bytes(dense_bytes(code.n, code.d, len(code.outcomes)), "the dense cluster projectors")
    clusters = _instrument_matrices(code)

    def traces(seq) -> np.ndarray:
        return np.einsum("kij,ji->k", clusters, tensor(*(source.states[j] for j in seq)).real)
    return traces


def cluster_expectations(code: VLCode, source: Source, exponents: tuple[float, ...],
                         samples: int | None = None, seed: int = 0):
    """E over the source of (Tr P_k rho_1 x ... x rho_n)^e per outcome, for
    each exponent e in ``exponents``.

    Returns (one dict outcome -> expectation per exponent, one stderr per
    exponent or None).  Each sequence's traces are computed once for all
    exponents.  For d = 2 a commuting source takes the O(n)-per-type
    closed form, which raises DimensionBudgetError above MAX_ATOM_TYPES
    types.  Otherwise one sequence per atom type is weighed with the
    type's probability, its traces from the Kostka block weights
    (commuting atoms, any n) or from the dense cluster projectors (within
    linalg.MAX_BYTES).  Above MAX_ATOM_TYPES types, or when ``samples``
    is given (which also forces the dense traces), counter-seeded Monte
    Carlo over sequences replaces the type sum; its stderr is the
    standard error of the average error estimate 1 - sum over accepted
    outcomes / C1.
    """
    n, m = code.n, source.num_atoms
    diag = None if samples is not None else _commuting_diag(source)
    if diag is not None and code.d == 2:
        totals = _two_level_expectations(code, diag, exponents)
        return [dict(zip(code.outcomes, row.tolist())) for row in totals], None
    traces = _dense_traces(code, source) if diag is None else _kostka_traces(code, diag[1])
    totals = np.zeros((len(exponents), len(code.outcomes)))
    if samples is None and math.comb(n + m - 1, m - 1) <= MAX_ATOM_TYPES:
        for tau, w in zip(*_atom_types(source.weights, n)):
            clipped = np.clip(traces(np.repeat(np.arange(m), tau)), 0.0, 1.0)
            for row, e in zip(totals, exponents):
                row += w * clipped**e
        return [dict(zip(code.outcomes, row.tolist())) for row in totals], None
    if samples is None:
        samples = 10**5
    accepted = set(code.accepted)
    acc = np.array([k in accepted for k in code.outcomes])
    kept = [0.0] * len(exponents)
    sq = [0.0] * len(exponents)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        clipped = np.clip(traces(rng.choice(m, size=n, p=source.weights)), 0.0, 1.0)
        for j, e in enumerate(exponents):
            vals = clipped**e
            totals[j] += vals
            one = sum(vals[acc].tolist())
            kept[j] += one
            sq[j] += one * one
    stderrs = [math.sqrt(max(0.0, q / samples - (t / samples) ** 2) / samples) / code.c1_count
               for t, q in zip(kept, sq)]
    return [dict(zip(code.outcomes, row.tolist())) for row in totals / samples], stderrs


# --- outcome statistics -----------------------------------------------------

def log_outcome_distribution(code: VLCode, spec) -> dict:
    """log P(outcome k) for an i.i.d. source with the given single-copy spectrum.

    Includes the reject flag of a restricted code.  One log-domain pass:
    lgamma dimensions plus log Schur values per label (for d = 2 the
    two-row bialternant, otherwise ``young.log_schur``), then one
    log-sum-exp per cluster (sliding windows for d = 2, the grouped
    membership index otherwise).
    """
    spec = np.sort(np.asarray(spec, dtype=float))[::-1]
    labels = code._label_array
    schur = young.log_schur_two_rows(*labels.T, *spec) if code.d == 2 else young.log_schur(labels, spec)
    logs = young.log_dim_sym_group(labels) + schur
    out = dict(zip(code.outcomes, (code._cluster_logsumexp(logs) - math.log(code.c1_count)).tolist()))
    if code.params.restricted:
        acc = set(code.accepted)
        reject = _logsumexp([out[k] for k in code.outcomes if k not in acc])
        out = {k: out[k] for k in code.accepted}
        out[REJECT] = reject
    return out


def outcome_distribution(code: VLCode, state) -> dict:
    """P(outcome) for an i.i.d. spectrum, a Source, or a list of factor states.

    A Source is reduced to the spectrum of its average state: the outcome
    statistics of the instrument depend on the source only through that
    mixture.
    """
    if isinstance(state, Source):
        spec = sorted_spectrum(state.average_state())
        return {k: math.exp(v) for k, v in log_outcome_distribution(code, spec).items()}
    if isinstance(state, (list, tuple)) and np.asarray(state[0]).ndim == 2:
        per_block = {lam: block_prob_product(lam, state) for lam in code.labels}
        out = {}
        for k in code.outcomes:
            out[k] = sum(per_block[lam] for lam in code.blocks[k]) / code.c1_count
        if code.params.restricted:
            acc = set(code.accepted)
            out[REJECT] = sum(v for k, v in out.items() if k not in acc)
            out = {k: out[k] for k in (*code.accepted, REJECT)}
        return out
    spec = np.asarray(state, dtype=float)
    return {k: math.exp(v) for k, v in log_outcome_distribution(code, spec).items()}


def log_overflow_probability(code: VLCode, spec, rate: float) -> float:
    """log P{per-symbol coding length >= rate} for an i.i.d. spectrum."""
    logp = log_outcome_distribution(code, spec)
    return _logsumexp([v for k, v in logp.items() if code.coding_length(k) / code.n >= rate])


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
    the normalized post-measurement state, by dense instrument simulation.

    ``accepted_error(seq, rho, sigma)`` gives it for accepted outcomes; the
    reject flag leaves the decoder no copy and is charged the worst case 1.
    Both criteria are invariant under permuting the copies (the
    post-measurement state is permuted alike), so one sequence per atom
    type carries the type's probability.
    """
    n = code.n
    # the stacked projectors and their complex square roots
    require_bytes(dense_bytes(n, code.d, 3 * len(code.outcomes)), "the dense instrument simulation")
    roots = [psd_sqrt(p / code.c1_count) for p in _instrument_matrices(code)]
    acc = set(code.accepted)
    total = 0.0
    for tau, w in zip(*_atom_types(source.weights, n)):
        seq = np.repeat(np.arange(source.num_atoms), tau)
        rho = tensor(*(source.states[j] for j in seq))
        for k, root in zip(code.outcomes, roots):
            post = root @ rho @ root
            p = float(np.real(np.trace(post)))
            if p > 1e-15:
                total += w * p * (accepted_error(seq, rho, post / p) if k in acc else 1.0)
    return total


def average_error_definitional(code: VLCode, source: Source) -> float:
    """Average error by direct instrument simulation (dense matrices).

    Applies sqrt(M_k) . sqrt(M_k), renormalizes, embeds, and averages the
    squared Bures distance over outcomes and atom sequences.  This is the
    defining expression, kept independent of the closed chain so the two
    can check each other.
    """
    return _simulated_error(code, source, lambda seq, rho, sigma: 1.0 - fidelity(rho, sigma))


def average_error_prime(code: VLCode, source: Source) -> float:
    """Per-copy error: mean squared Bures distance between each input
    factor and the matching normalized partial trace of the output."""
    def per_copy(seq, rho, sigma):
        return sum(1.0 - fidelity(source.states[j], partial_trace(sigma, code.d, i))
                   for i, j in enumerate(seq)) / code.n

    return _simulated_error(code, source, per_copy)


# --- outcome records and the fixed-length conversion -------------------------

@dataclass(frozen=True)
class OutcomeRecord:
    k: tuple[int, ...] | None
    probability: float
    coding_length: float
    error_contribution: float


def outcome_records(code: VLCode, source: Source,
                    samples: int | None = None, seed: int = 0) -> list[OutcomeRecord]:
    """Per-outcome probability, length, and error contribution for a source."""
    (exp1, exp32), _ = cluster_expectations(code, source, (1.0, 1.5), samples=samples, seed=seed)
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
    return records


@dataclass(frozen=True)
class FixedLengthReport:
    rate: float
    error_fixed: float
    error_variable: float
    overflow: float
    kept_outcomes: int

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
    records = outcome_records(code, source, samples=samples, seed=seed)
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
    return FixedLengthReport(rate, err_fixed, err_vl, overflow, kept)
