"""Closed-form right-hand sides for the code's error and overflow bounds.

Every evaluator works in the log domain so that prefactors like
(n+d)^(4d) against exp(-n * rate) survive block lengths in the tens of
thousands.  Each function returns the bound value; ``BoundReport``
packages an (LHS, RHS) pair for regression sweeps.  The floor on the
overflow exponent at d >= 3 is a convex program (``_interior_point``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .info import (
    INF,
    binary_divergence,
    c2,
    c3,
    divergence,
    entropy,
    entropy_contour_point,
    lattice_count_bounds,
    optimal_overflow_exponent,
    root,
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

    s = root(slope, math.sqrt(log_poly / curv), delta, 1e-15 * delta)
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


def _wright_omega(z) -> np.ndarray:
    """Wright omega, the w with w + ln w = z, entrywise.

    Newton steps on Python floats, from z - ln z above 1 and otherwise
    from e^z on w = e^z e^(-w), which keeps the relative precision as
    w -> 0.  The residuals are concave, so the iterates rise; a step below
    1e-10 w ends them.
    """
    out = []
    for x in np.asarray(z, dtype=float).tolist():
        big, ex = x > 1.0, math.exp(min(x, 1.0))
        w, new = 0.0, x - math.log(x) if big else ex
        while abs(new - w) > 1e-10 * new:
            w = new
            new = (w * (1.0 + x - math.log(w)) if big else w * w + ex * math.exp(-w)) / (1.0 + w)
        out.append(new)
    return np.array(out)


def _max_entropy_in_ball(anchor: np.ndarray, radius: float) -> tuple[float, np.ndarray]:
    """max H(q) over probability vectors q within ``radius`` of ``anchor``,
    and a maximizer.

    ln d when the uniform law lies in the ball (to 1e-9, where H is ln d
    to O(1e-18)).  Otherwise the maximizer sits on the sphere, on the
    Lagrange path log q + lam q = lam anchor + mu, solved by
    q = omega(lam anchor + c) / lam with c = mu + ln lam (``_wright_omega``):
    c makes q sum to 1, and lam puts q at distance ``radius``.  Along the
    path q runs from the uniform law (lam -> 0) to the anchor (lam -> inf),
    each point the maximizer for its own distance.
    """
    d = len(anchor)
    if np.linalg.norm(anchor - 1.0 / d) <= radius + 1e-9:
        return math.log(d), np.full(d, 1.0 / d)

    def on_path(log_lam: float) -> np.ndarray:
        # Newton steps on c descend to the root: sum omega(lam anchor + c) - lam
        # is convex, increasing, and at least 0 at c = ln(lam/d) (Jensen)
        lam, c = math.exp(log_lam), log_lam - math.log(d)
        w = _wright_omega(lam * anchor + c)
        while (excess := w.sum() - lam) > 1e-14 * lam:
            c -= excess / (w / (1.0 + w)).sum()
            w = _wright_omega(lam * anchor + c)
        return w / lam

    def gap(log_lam: float) -> float:
        return float(np.linalg.norm(on_path(log_lam) - anchor)) - radius

    lo = hi = 0.0
    while gap(lo) <= 0:
        lo -= 4.0
    while gap(hi) > 0:
        if hi > 40:  # a ball below the path's resolution: the larger ball's maximum bounds it
            return entropy(on_path(hi)), anchor  # and the anchor is in it
        lo, hi = hi, hi + 4.0
    q = on_path(root(gap, lo, hi, 1e-13))
    return entropy(q), q


def _max_entropy_near_face(support: np.ndarray, slack: float) -> tuple[float, np.ndarray]:
    """max H(q) over probability vectors q within ``slack`` of one on
    ``support``, and a maximizer.

    The problem is concave and symmetric under permutations that keep the
    support, so a symmetric maximizer exists: a on the k support entries,
    b off them.  Its nearest point on the face is the uniform law there,
    at distance b sqrt(d (d-k) / k), and H grows with b up to b = 1/d.
    """
    d, k = len(support), int(support.sum())
    b = min(1.0 / d, slack * math.sqrt(k / (d * (d - k)))) if k < d else 1.0 / d
    a = (1.0 - (d - k) * b) / k
    q = np.where(support, a, b)
    return entropy(q), q


MAX_ITERATIONS = 100  # interior-point steps; about 20 suffice


def _interior_point(rate: float, p: np.ndarray, slack: float, anchor: np.ndarray | None,
                    radius: float | None, x: np.ndarray) -> float:
    """min D(q' || p) over the pairs of ``_min_divergence``, by the
    primal-dual interior-point method (Boyd & Vandenberghe, Convex
    Optimization, 2004, sec. 11.7; mu = 10), from a strictly feasible x.

    Each ball is the unit ball in its own variables, whatever its radius:
    q = anchor + radius x or, without an anchor, q = x with the entries
    off supp(p) in units of the slack; q' = q + slack v on supp(p), and
    v = -q / slack off it, where q' is 0.  Written in q and q' themselves,
    a slack or radius below about 1e-8 would be lost to rounding in q' - q
    and q - anchor, and the steps would stall.  The variables are
    z = (x, v on supp p); g <= 0 are rate - H(q), |v|^2 - 1 and, with an
    anchor, |x|^2 - 1; the equalities hold sum q at 1 (at the anchor's
    sum) and sum v at 0.  Each step solves the KKT system with the
    multipliers' step eliminated (size d + k + 2, k = |supp p|); the line
    search keeps them positive and z strictly feasible, then cuts the
    residual norm.  Stops at residuals <= 1e-10 and surrogate gap
    <= 1e-13, or at the gap's rounding floor: each g is of order 1, known
    to about 4 eps, so the gap sum lam_i (-g_i) only to about 4 eps sum lam.
    """
    on = p > 0
    d, k, log_p = len(p), int(on.sum()), np.log(p[on])
    size = d + k
    # the affine maps z -> q, q' on supp(p) and v, as (matrix, offset)
    if anchor is None:
        centre, scale = np.zeros(d), np.where(on, 1.0, slack)
    else:
        centre, scale = anchor, np.full(d, radius)
    to_q = np.hstack([np.diag(scale), np.zeros((d, k))])
    to_qp = to_q[on] + np.hstack([np.zeros((k, d)), slack * np.eye(k)])
    to_v = np.zeros((d, size))
    to_v[on, d:], to_v[~on] = np.eye(k), -to_q[~on] / slack
    v0 = np.zeros(d)
    v0[~on] = -centre[~on] / slack
    ball = 2.0 * to_v.T @ to_v  # the Hessian of |v|^2
    kkt = np.zeros((size + 2, size + 2))
    eq, eq_rhs = kkt[size:, :size], np.array([1.0 if anchor is None else 0.0, -v0.sum()])
    eq[0, :d], eq[1] = scale if anchor is None else 1.0, to_v.sum(axis=0)
    kkt[:size, size:] = eq.T

    def evaluate(z):
        """(gradient of D, g, Jacobian of g, q, q'), or None off the domain or the strict inequalities."""
        q, qp, v = to_q @ z + centre, to_qp @ z + centre[on], to_v @ z + v0
        if min(q.tolist() + qp.tolist()) <= 0:
            return None
        log_q = np.log(q)
        g = [rate + q @ log_q, v @ v - 1.0]
        dg = [(log_q + 1.0) @ to_q, 2.0 * v @ to_v]
        if anchor is not None:
            g.append(z[:d] @ z[:d] - 1.0)
            dg.append(np.concatenate([2.0 * z[:d], np.zeros(k)]))
        if max(g) >= 0:
            return None
        return (np.log(qp) - log_p + 1.0) @ to_qp, np.array(g), np.array(dg), q, qp

    # q' starts at the point of the face nearest q: q's mass off supp(p) spread evenly on it
    spread = (scale * x + centre)[~on].sum() / (k * slack) if k < d else 0.0
    z = np.concatenate([x, np.full(k, spread)])
    if (parts := evaluate(z)) is None:
        raise NumericalFailure(f"no strictly feasible start for D(q' || p) at rate {rate!r}")
    lam, nu = -1.0 / parts[1], np.zeros(2)
    mu_m = 10.0 * len(lam)  # t = mu m / gap
    for _ in range(MAX_ITERATIONS):
        grad, g, dg, q, qp = parts
        gap = -g @ lam
        r_dual, r_cent, r_pri = grad + lam @ dg + nu @ eq, -lam * g - gap / mu_m, eq @ z - eq_rhs
        if max(r_dual @ r_dual, r_pri @ r_pri) <= 1e-20 and gap <= 1e-13 + 1e-15 * lam.sum():
            return max(0.0, float(qp @ (np.log(qp) - log_p)))
        # the Hessian of the Lagrangian plus sum lam_i / -g_i grad g_i grad g_i^T, from the eliminated multipliers
        hess = (to_qp.T / qp) @ to_qp + lam[0] * (to_q.T / q) @ to_q + lam[1] * ball
        if anchor is not None:
            hess[:d, :d] += 2.0 * lam[2] * np.eye(d)
        kkt[:size, :size] = hess + dg.T @ (dg * (lam / -g)[:, None])
        sol = np.linalg.solve(kkt, -np.concatenate([r_dual + (r_cent / g) @ dg, r_pri]))
        dz, dnu = sol[:size], sol[size:]
        dlam = (r_cent - lam * (dg @ dz)) / g
        s = 0.99 * min([1.0] + [-a / b for a, b in zip(lam.tolist(), dlam.tolist()) if b < 0])
        norm2 = r_dual @ r_dual + r_cent @ r_cent
        while True:
            parts = evaluate(z + s * dz)
            if parts is not None:
                res_dual = parts[0] + (lam + s * dlam) @ parts[2] + (nu + s * dnu) @ eq
                res_cent = -(lam + s * dlam) * parts[1] - gap / mu_m
                if res_dual @ res_dual + res_cent @ res_cent <= (1 - 0.01 * s) ** 2 * norm2 or s < 1e-10:
                    break
            s *= 0.5
        z, lam, nu = z + s * dz, lam + s * dlam, nu + s * dnu
    raise NumericalFailure(f"no minimizer of D(q' || p) at rate {rate!r} in {MAX_ITERATIONS} interior-point steps")


def _min_divergence(rate: float, p: np.ndarray, slack: float,
                    anchor: np.ndarray | None = None, radius: float | None = None) -> float:
    """inf D(q' || p) over q' within ``slack`` of the entropy super-level set.

    Feasible pairs: H(q) >= rate, ||q - q'|| <= slack and, with an
    ``anchor``, ||q - anchor|| <= radius; minimized over q'.  d=2 reduces
    to intervals.  Higher d solves the joint program (D convex, H concave,
    both balls convex) by ``_interior_point``, q' held at 0 off supp(p)
    where D is infinite, from a strictly feasible start built from the
    closed forms.  0 without an anchor when p is within ``slack`` of the
    level set, and the tilted family's exponent at zero slack; +inf for a
    feasible set that the closed-form tests find empty (the entropy
    reachable near the face or in the ball, and its distance to the face).
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

    def face(x: np.ndarray) -> float:
        """Distance to the face supp(p), whose nearest point spreads the mass off it evenly on it."""
        return math.sqrt(x[~support] @ x[~support] + x[~support].sum() ** 2 / support.sum())

    top, far = _max_entropy_near_face(support, slack)
    if top < rate:
        return INF
    if anchor is None:
        if slack == 0:  # q' = q: the exponent itself
            return optimal_overflow_exponent(rate, p)
        # H lies below its tangent plane at p, so the ball about p reaches the rate only if that plane does
        reach = entropy(p) + slack * float(np.linalg.norm(np.log(p) - np.log(p).mean())) if support.all() else INF
        if reach >= rate and _max_entropy_in_ball(p, slack)[0] >= rate:
            return 0.0  # p itself is a feasible q'
        near = support / support.sum()
    else:
        if face(anchor) - radius > slack or (ball := _max_entropy_in_ball(anchor, radius))[0] < rate:
            return INF
        top, far = ball
        to_face = np.where(support, anchor[~support].sum() / support.sum(), -anchor)
        if face(anchor) < radius and not support.all():
            # the face meets the ball in a ball about centre; from there towards its entropy maximizer,
            # halfway between where H passes the rate on the chord and the sphere
            centre = (anchor + to_face)[support]
            top_face, inner = _max_entropy_in_ball(centre, math.sqrt(radius**2 - face(anchor) ** 2))
            lo = 0.0 if (h := entropy(centre)) >= rate else (rate - h) / max(top_face - h, 1e-300)
            near = np.zeros(d)
            near[support] = centre + min(1.0, (lo + 1.0) / 2) * (inner - centre)
            shift = near - anchor
        else:  # towards the face, halfway between coming within slack of it and reaching it or the sphere
            step = (max(0.0, face(anchor) - slack) + min(face(anchor), radius)) / 2
            shift = step * to_face / max(face(anchor), 1e-300)
            near = anchor + shift
    # q from near towards far, halfway between where H (concave) and the face distance (convex) pass on chords
    lo = 0.0 if (h := entropy(near)) >= rate else (rate - h) / (top - h)
    hi = 1.0 if face(far) <= slack else (slack - face(near)) / (face(far) - face(near))
    t = (lo + hi) / 2
    if anchor is None:
        q = near + t * (far - near)
        x = np.where(support, q, q / slack)
    else:  # (q - anchor) / radius from the steps that built q, in the unit ball for the least radius
        x = (shift + t * (far - anchor - shift)) / radius if radius > 0 else np.zeros(d)
    return _interior_point(rate, p, slack, anchor, radius, x)


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
                t = root(excess, 0.0, top, 1e-300)
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

    ``delta_fn`` defaults to n^(-1/4).  Uses the banded commuting-qubit
    route, O(band) per atom type kept, so ``lemma-l2`` on the grid
    100000, 1000000 takes about 1.6 s.
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
