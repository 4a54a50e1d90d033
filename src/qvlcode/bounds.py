"""Closed-form right-hand sides for the code's error and overflow bounds.

Every evaluator works in the log domain so that prefactors like
(n+d)^(4d) against exp(-n * rate) survive block lengths in the tens of
thousands.  Each function returns the bound value; ``BoundReport``
packages an (LHS, RHS) pair for regression sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.special import wrightomega

from .info import (
    INF,
    binary_divergence,
    c2,
    c3,
    divergence,
    entropy,
    entropy_contour_point,
    lattice_count_bounds,
)
from .linalg import NumericalFailure

NEG_INF = float("-inf")


@dataclass(frozen=True)
class BoundReport:
    """One row of a dominance regression: exact value vs closed-form bound."""

    name: str
    inputs: dict = field(compare=False)
    rhs_value: float = 0.0
    lhs_value: float | None = None

    @property
    def satisfied(self) -> bool:
        if self.lhs_value is None:
            return True
        return self.lhs_value <= self.rhs_value + 1e-9


def _error_bound_bracket(n: int, d: int, delta: float, delta1: float, exponent: float) -> float:
    """1 - (C2/C1) * (1 - (n+d)^(4d) exp(-n C3 (delta-delta1)^2))^exponent.

    C3 = ``info.c3(d)`` = 1, C2 = ``info.c2(n delta1, d)``, and in place of
    C1 its upper bound from ``info.lattice_count_bounds``: both counts err
    towards a larger value, so the result is still a ceiling.
    """
    log_poly = 4 * d * math.log(n + d) - n * c3(d) * (delta - delta1) ** 2
    if log_poly >= 0:
        return 1.0  # the bracket is nonpositive: vacuous regime
    bracket = -math.expm1(log_poly)  # 1 - exp(log_poly), accurately
    c2v = c2(n * delta1, d)
    if c2v == 0:
        return 1.0
    val = 1.0 - (c2v / lattice_count_bounds(n * delta, d)[1]) * bracket**exponent
    return min(1.0, max(0.0, val))


def error_ceiling(n: int, d: int, delta: float, exponent: float = 1.5) -> float:
    """Source-independent ceiling on the average error of the code.

    ``exponent`` 1.5 gives the squared-Bures criterion and 2 the
    overlap-squared criterion.  Any inner radius delta1 = delta - s gives
    a ceiling; this takes the s that maximizes the bracket's smooth part
    (delta - s)^(d-1) (1 - (n+d)^(4d) exp(-n C3 s^2))^exponent (C2 grows as
    delta1^(d-1)).  Its log-derivative falls from +inf at s0 =
    sqrt(4d ln(n+d) / (n C3)), the edge of the vacuous regime, to -inf at
    delta, crossing zero once, at the root of
    2 exponent n C3 s (delta - s) = (d - 1) expm1(n C3 s^2 - 4d ln(n+d)).
    Every constant is a closed form (``_error_bound_bracket``), so the
    cost does not grow with n.
    """
    log_poly = 4 * d * math.log(n + d)
    curv = n * c3(d)
    if delta <= 0 or curv * delta**2 <= log_poly:
        return 1.0

    def slope(s: float) -> float:
        return 2 * exponent * curv * s * (delta - s) - (d - 1) * math.expm1(min(curv * s * s - log_poly, 700.0))

    s = optimize.brentq(slope, math.sqrt(log_poly / curv), delta, xtol=1e-15 * delta)
    return _error_bound_bracket(n, d, delta, delta - s, exponent)


def error_ceiling_bures(n: int, d: int, delta: float) -> float:
    return error_ceiling(n, d, delta, 1.5)


def error_ceiling_overlap2(n: int, d: int, delta: float) -> float:
    return error_ceiling(n, d, delta, 2.0)


def restricted_error_ceiling(n: int, d: int, delta: float, delta1: float,
                             exponent: float = 1.5) -> float:
    """Error ceiling of the restricted code at its actual (delta, delta1)."""
    if delta <= 0 or delta1 <= 0 or delta1 >= delta:
        return 1.0
    return _error_bound_bracket(n, d, delta, delta1, exponent)


def _max_entropy_in_ball(anchor: np.ndarray, radius: float) -> float:
    """max H(q) over probability vectors q within ``radius`` of ``anchor``.

    ln d when the uniform law lies in the ball (to 1e-9, where H is ln d
    to O(1e-18)).  Otherwise the maximizer sits on the sphere, on the
    Lagrange path log q + lam q = lam anchor + mu, solved by
    q = wrightomega(lam anchor + mu + ln lam) / lam: mu makes q sum to 1,
    and lam puts q at distance ``radius``.  Along the path q runs from
    the uniform law (lam -> 0) to the anchor (lam -> inf), each point the
    maximizer for its own distance.
    """
    d = len(anchor)
    if np.linalg.norm(anchor - 1.0 / d) <= radius + 1e-9:
        return math.log(d)

    def on_path(log_lam: float) -> np.ndarray:
        lam = math.exp(log_lam)
        # c = mu + ln lam; every q_i is at most (at least) 1/d at the lower
        # (upper) end of this bracket
        base = lam / d + math.log(lam / d)
        c = optimize.brentq(lambda c: wrightomega(lam * anchor + c).sum() - lam,
                            base - lam * anchor.max(), base - lam * anchor.min(), xtol=1e-14)
        return wrightomega(lam * anchor + c) / lam

    def gap(log_lam: float) -> float:
        return float(np.linalg.norm(on_path(log_lam) - anchor)) - radius

    lo = hi = 0.0
    while gap(lo) <= 0:
        lo -= 4.0
    while gap(hi) > 0:
        if hi > 40:  # a ball below the path's resolution: the larger ball's maximum bounds it
            return entropy(on_path(hi))
        lo, hi = hi, hi + 4.0
    return entropy(on_path(optimize.brentq(gap, lo, hi, xtol=1e-13)))


def _max_entropy_near_face(support: np.ndarray, slack: float) -> float:
    """max H(q) over probability vectors q within ``slack`` of one on ``support``.

    The problem is concave and symmetric under permutations that keep the
    support, so a symmetric maximizer exists: a on the k support entries,
    b off them.  Its nearest point on the face is the uniform law there,
    at distance b sqrt(d (d-k) / k), and H grows with b up to b = 1/d.
    """
    d, k = len(support), int(support.sum())
    b = min(1.0 / d, slack * math.sqrt(k / (d * (d - k)))) if k < d else 1.0 / d
    a = (1.0 - (d - k) * b) / k
    return entropy(np.repeat([a, b], [k, d - k]))


def _min_divergence(rate: float, p: np.ndarray, slack: float,
                    anchor: np.ndarray | None = None, radius: float | None = None) -> float:
    """inf D(q' || p) over q' within ``slack`` of the entropy super-level set.

    Feasible pairs: H(q) >= rate, ||q - q'|| <= slack and, with an
    ``anchor``, ||q - anchor|| <= radius; minimized over q'.  d=2 reduces
    to intervals.  Higher d solves the joint program in z = (q', q) with
    SLSQP and closed-form gradients: D has gradient log q' - log p + 1, H
    has -log q - 1, and the balls -/+2 (q' - q) and -2 (q - anchor).  q'
    is held at 0 off supp(p), where D would be infinite.  The program is
    jointly convex (D convex, H concave, both balls convex), so the first
    start that succeeds returns the minimum; the rest are fallbacks.
    +inf for a feasible set that the closed-form tests find empty (the
    entropy reachable near the face or in the ball, and the ball's
    distance to the face); a solver that succeeds from no start raises
    NumericalFailure.
    """
    d = len(p)
    if rate > math.log(d):
        return INF
    if anchor is None and (rate <= 0 or entropy(p) >= rate - 1e-15):
        return 0.0
    if d == 2:
        t = entropy_contour_point(min(rate, math.log(2)))
        # contour q2 in [t, 1-t], cut to the anchor's radius; q2' reaches
        # a further slack/sqrt(2) each way
        lo_q, hi_q = t, 1.0 - t
        if anchor is not None:
            a2 = min(anchor)
            lo_q = max(lo_q, a2 - radius / math.sqrt(2))
            hi_q = min(hi_q, a2 + radius / math.sqrt(2))
            if lo_q > hi_q:
                return INF
        lo = max(0.0, lo_q - slack / math.sqrt(2))
        hi = min(1.0, hi_q + slack / math.sqrt(2))
        p2 = min(p)
        if lo <= p2 <= hi:
            return 0.0
        edge = lo if p2 < lo else hi
        return binary_divergence(edge, p2)
    support = p > 0
    if _max_entropy_near_face(support, slack) < rate:
        return INF
    if anchor is not None:
        off = anchor[~support]  # the face point nearest the anchor spreads this mass evenly on the support
        face_gap = math.sqrt(off @ off + off.sum() ** 2 / support.sum()) - radius
        if face_gap > slack or _max_entropy_in_ball(anchor, radius) < rate:
            return INF
    log_p = np.log(p[support])
    zeros = np.zeros(d)

    def objective(z):
        qp = z[:d][support]
        return float(qp @ (np.log(qp) - log_p))

    def gradient(z):
        grad = np.zeros(2 * d)
        grad[:d][support] = np.log(z[:d][support]) - log_p + 1.0
        return grad

    def step(z):
        return z[:d] - z[d:]

    constraints = [
        {"type": "eq", "fun": lambda z: z[:d].sum() - 1.0, "jac": lambda z: np.repeat([1.0, 0.0], d)},
        {"type": "eq", "fun": lambda z: z[d:].sum() - 1.0, "jac": lambda z: np.repeat([0.0, 1.0], d)},
        {"type": "ineq", "fun": lambda z: -float(z[d:] @ np.log(z[d:])) - rate,
         "jac": lambda z: np.concatenate([zeros, -np.log(z[d:]) - 1.0])},
        {"type": "ineq", "fun": lambda z: slack**2 - float(step(z) @ step(z)),
         "jac": lambda z: np.concatenate([-2.0 * step(z), 2.0 * step(z)])},
    ]
    starts = [np.ones(d) / d]
    if anchor is not None:
        constraints.append({"type": "ineq", "fun": lambda z: radius**2 - float((z[d:] - anchor) @ (z[d:] - anchor)),
                            "jac": lambda z: np.concatenate([zeros, -2.0 * (z[d:] - anchor)])})
        starts.insert(0, anchor)
    rng = np.random.default_rng(0)
    starts += [rng.dirichlet(np.ones(d)) for _ in range(10 - len(starts))]
    limits = [(1e-12, 1.0) if on else (0.0, 0.0) for on in support] + [(1e-12, 1.0)] * d
    for q0 in starts:
        res = optimize.minimize(objective, np.concatenate([q0, q0]), method="SLSQP", jac=gradient,
                                bounds=limits, constraints=constraints,
                                options={"ftol": 1e-12, "maxiter": 500})
        if res.success:
            return max(0.0, float(res.fun))
    raise NumericalFailure(f"SLSQP found no minimizer of D(q' || p) at rate {rate!r} from {len(starts)} starts")


def overflow_exponent_floor(n: int, d: int, delta: float, rate: float, p_spec) -> float:
    """Lower bound on the overflow exponent -(1/n) log P{length >= n*rate}.

    -(5d/n) log(n+d) plus the divergence from the spectrum to the
    2*delta-widened entropy contour at the polynomially reduced rate.
    """
    p = np.asarray(sorted(p_spec, reverse=True), dtype=float)
    reduced = rate - (4 * d / n) * math.log(n + d)
    inner = _min_divergence(reduced, p, 2 * delta)
    if math.isinf(inner):
        return INF
    return -(5 * d / n) * math.log(n + d) + inner


def restricted_overflow_exponent_floor(n: int, d: int, delta: float, delta1: float,
                                       spectrum_set, rate: float, p_spec) -> float:
    """Restricted-code overflow exponent bound: the contour constraint is
    intersected with proximity (within delta1) to the allowed spectra."""
    p = np.asarray(sorted(p_spec, reverse=True), dtype=float)
    reduced = rate - (4 * d / n) * math.log(n + d)
    if reduced <= 0:
        return -(5 * d / n) * math.log(n + d)
    best = INF
    for s in spectrum_set:
        s = np.asarray(sorted(s, reverse=True), dtype=float)
        best = min(best, _min_divergence(reduced, p, 2 * delta, s, delta1))
    if math.isinf(best):
        return INF
    return -(5 * d / n) * math.log(n + d) + best


def log_block_probability_ceiling(lam, p_spec, d: int) -> float:
    """log of (n+d)^(3d) exp(-n D(lam/n || p)): per-block probability ceiling."""
    lam = tuple(lam)
    n = sum(lam)
    p = np.asarray(sorted(p_spec, reverse=True), dtype=float)
    q = np.asarray(lam, dtype=float) / n
    dv = divergence(q, p)
    if math.isinf(dv):
        return NEG_INF if dv > 0 else 0.0
    return 3 * d * math.log(n + d) - n * dv


def block_probability_ceiling(lam, p_spec, d: int) -> float:
    v = log_block_probability_ceiling(lam, p_spec, d)
    return math.exp(min(v, 700.0)) if v > NEG_INF else 0.0


def min_divergence_outside_boxes(boxes, p_spec, d: int) -> float:
    """min D(q || p) over probability vectors outside a union of boxes.

    Boxes constrain the first d-1 coordinates of q.  The minimum is 0 when
    p lies in no box's open interior; otherwise it sits on the boundary
    of the union, which lies on the box faces.  On a face (q_axis = edge,
    the other box coordinates in their intervals, q_last free) the
    minimizer is q_i = clip(t p_i, lo_i, hi_i), with one monotone root find
    on t for sum q = 1.  Faces wholly inside another box's open interior
    are skipped.  Exact for one box and for d = 2; for a union in d >= 3
    a face may still reach into another box, so the result is a lower
    bound on the minimum, which only raises the tail-mass ceiling.
    """
    p = np.asarray(sorted(p_spec, reverse=True), dtype=float)
    cube = np.asarray(boxes, dtype=float).reshape(-1, d - 1, 2)
    lows, highs = cube[..., 0], cube[..., 1]
    if not np.all((lows < p[:-1]) & (p[:-1] < highs), axis=1).any():
        return 0.0
    best = INF
    for box_lo, box_hi in zip(lows, highs):
        for axis in range(d - 1):
            for edge in (box_lo[axis], box_hi[axis]):
                lo, hi = box_lo.copy(), box_hi.copy()
                lo[axis] = hi[axis] = edge
                if not 0.0 <= edge <= 1.0 or np.all((lows < lo) & (hi < highs), axis=1).any():
                    continue
                lo = np.append(np.clip(lo, 0.0, 1.0), 0.0)
                hi = np.append(np.clip(hi, 0.0, 1.0), INF)
                if np.any(lo > hi) or lo.sum() > 1.0:
                    continue  # no probability vector on this face

                def excess(t: float) -> float:
                    return float(np.clip(t * p, lo, hi).sum()) - 1.0

                # q_last = 1 at t = 1/p_last; with p_last = 0 every
                # coordinate is at its cap once t reaches max(hi / p)
                top = 1.0 / p[-1] if p[-1] > 0 else float(np.max(hi[p > 0] / p[p > 0]))
                if excess(top) < 0:
                    continue
                t = optimize.brentq(excess, 0.0, top, xtol=1e-300)
                best = min(best, divergence(np.clip(t * p, lo, hi), p))
    return best


def log_tail_mass_ceiling(boxes, p_spec, n: int, d: int) -> float:
    """log of (n+d)^(4d) exp(-n min_{q outside} D(q||p)): tail-mass ceiling."""
    dv = min_divergence_outside_boxes(boxes, p_spec, d)
    if math.isinf(dv):
        return NEG_INF
    return 4 * d * math.log(n + d) - n * dv


def tail_mass_ceiling(boxes, p_spec, n: int, d: int) -> float:
    v = log_tail_mass_ceiling(boxes, p_spec, n, d)
    return math.exp(min(v, 700.0)) if v > NEG_INF else 0.0


# --- slow-decay diagnostics ---------------------------------------------------

def zero_radius_error_floor(p_spec) -> float:
    """Floor constant of the zero-radius code's error on a two-letter source.

    1 - ((p2/p1)^(3/2) + ((p1-p2)/p1)^(3/2)) for p1 > p2; the error of
    the radius-0 code stays above this for large n.  Degenerate spectra
    (p1 = p2) are rejected: the constant collapses only in the limit.
    """
    p = sorted((float(v) for v in p_spec), reverse=True)
    if len(p) != 2:
        raise ValueError("two-level spectra only")
    p1, p2 = p
    if not p1 > p2 >= 0:
        raise ValueError(f"need p1 > p2 >= 0, got {p}")
    return 1.0 - ((p2 / p1) ** 1.5 + ((p1 - p2) / p1) ** 1.5)


def decay_rate_ceiling(p_spec, n: int) -> float:
    """Per-symbol ceiling (1/n)(ln 2(n+1)^2 - ln c) on -(1/n) ln error.

    c = r - r^(3/2) with r = (p1-p2)/p1; valid for any radius sequence,
    so the error of the code cannot decay exponentially.
    """
    p = sorted((float(v) for v in p_spec), reverse=True)
    p1, p2 = p
    if not 0 < p2 < p1:
        raise ValueError("need p1 > p2 > 0")
    r = (p1 - p2) / p1
    c = r - r**1.5
    return (math.log(2 * (n + 1) ** 2) - math.log(c)) / n


def decay_rate_table(p_spec, n_grid, delta_fn=None):
    """Table of (n, -(1/n) ln error, ceiling) for the basis source.

    ``delta_fn`` defaults to n^(-1/4).  Uses the qubit closed form, one
    O(n) pass per atom type kept, so the grid reaches n = 10^4 in about a
    second per point.
    """
    from .codec import CodeParams, average_error_exact, build_code
    from .linalg import basis_source

    p = sorted((float(v) for v in p_spec), reverse=True)
    if delta_fn is None:
        delta_fn = lambda n: n ** (-0.25)
    source = basis_source(2, p)
    rows = []
    for n in n_grid:
        code = build_code(CodeParams(n=int(n), d=2, delta=float(delta_fn(n))))
        err = average_error_exact(code, source)
        rows.append((int(n), -math.log(err) / n, decay_rate_ceiling(p, int(n))))
    return rows
