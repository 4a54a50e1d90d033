"""Classical information quantities, lattice constants, and rate exponents.

All logarithms are natural (nats).  The norm on probability vectors and
on the integer lattice is the Euclidean one throughout; lattice-count
constants below inherit that convention.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import numpy.linalg as npl
from scipy import optimize

from .linalg import hermitianize

INF = float("inf")


def entropy(q) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    q = np.asarray(q, dtype=float)
    if np.any(q < -1e-12) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError(f"{q} is not a probability vector")
    pos = q[q > 0]
    return float(-(pos * np.log(pos)).sum())


def binary_entropy(t: float) -> float:
    """h(t) = -t ln t - (1-t) ln(1-t)."""
    return entropy([t, 1.0 - t])


def divergence(q, p) -> float:
    """Relative entropy D(q || p) in nats; +inf outside the support of p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape:
        raise ValueError("dimension mismatch")
    total = 0.0
    for qi, pi in zip(q, p):
        if qi <= 0.0:
            continue
        if pi <= 0.0:
            return INF
        total += qi * math.log(qi / pi)
    return max(0.0, total)


def binary_divergence(t: float, s: float) -> float:
    """d(t, s) = t ln(t/s) + (1-t) ln((1-t)/(1-s))."""
    return divergence([t, 1.0 - t], [s, 1.0 - s])


def quantum_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) = Tr rho (log rho - log sigma); +inf off support."""
    rho = hermitianize(np.asarray(rho, dtype=complex))
    sigma = hermitianize(np.asarray(sigma, dtype=complex))
    wr, vr = npl.eigh(rho)
    ws, vs = npl.eigh(sigma)
    tol = 1e-12
    # support condition: rho's range must lie in sigma's range
    kernel = vs[:, ws <= tol]
    if kernel.size and npl.norm(kernel.conj().T @ rho @ kernel) > 1e-10:
        return INF
    ent = float(-(wr[wr > tol] * np.log(wr[wr > tol])).sum())
    log_sigma = (vs * np.log(np.clip(ws, 1e-300, None))) @ vs.conj().T
    cross = float(np.real(np.trace(rho @ log_sigma)))
    return max(0.0, -ent - cross)


def sorted_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, descending, clipped and renormalized."""
    w = npl.eigvalsh(hermitianize(np.asarray(rho, dtype=complex)))[::-1]
    w = np.clip(w, 0.0, None)
    return w / w.sum()


# --- lattice constants ------------------------------------------------------

def sum_zero_ball(x: float, d: int) -> list[tuple[int, ...]]:
    """Zero-sum integer vectors in the closed Euclidean ball of radius x.

    Membership compares exact integer squared length against x^2 with a
    1e-9 relative guard, so points at distance exactly x count as inside.
    Sorted descending for reproducible iteration order.
    """
    if x < 0:
        raise ValueError("radius must be nonnegative")
    limit2 = x * x * (1 + 1e-9) + 1e-12
    if d == 2:
        t = 0
        while 2 * (t + 1) * (t + 1) <= limit2:
            t += 1
        return [(z, -z) for z in range(t, -t - 1, -1)]
    reach = int(math.floor(x)) + 1
    out = []
    for head in itertools.product(range(-reach, reach + 1), repeat=d - 1):
        tail = -sum(head)
        vec = head + (tail,)
        if sum(v * v for v in vec) <= limit2:
            out.append(vec)
    return sorted(out, reverse=True)


def c1(x: float, d: int) -> int:
    """Number of zero-sum integer vectors within Euclidean distance x of 0.

    Always at least 1 (the origin); the count used to normalize the
    instrument, so it shares the closed-ball tie convention of
    ``sum_zero_ball``.  d=2 is counted without materializing the ball,
    keeping radii ~1e6 (block lengths ~1e12 on the schedule) cheap.
    """
    if x < 0:
        raise ValueError("radius must be nonnegative")
    if d == 2:
        limit2 = x * x * (1 + 1e-9) + 1e-12
        t = int(math.sqrt(limit2 / 2))
        while 2 * (t + 1) * (t + 1) <= limit2:
            t += 1
        while t > 0 and 2 * t * t > limit2:
            t -= 1
        return 2 * t + 1
    return len(sum_zero_ball(x, d))


def lattice_count_bounds(x: float, d: int) -> tuple[int, int]:
    """(lower, upper) bounds on the number of zero-sum integer vectors
    within distance x of any point of the zero-sum hyperplane.

    The zero-sum lattice is A_(d-1): its Voronoi cells have volume sqrt(d)
    and covering radius rho = sqrt(a (d - a) / d), a = floor(d/2) (Conway
    & Sloane, Sphere Packings, Lattices and Groups, ch. 4).  The cells of
    the points within x of a centre are disjoint and lie within x + rho of
    it, and they cover the ball of radius x - rho, so the count lies
    between vol B_(d-1)(x -/+ rho) / sqrt(d).  Rounded inward with a
    1e-12 relative guard; the upper radius takes c1's 1e-9 tie guard.
    """
    if x < 0:
        raise ValueError("radius must be nonnegative")
    rho = math.sqrt((d // 2) * (d - d // 2) / d)

    def cells(r: float) -> float:
        return math.pi ** ((d - 1) / 2) * max(r, 0.0) ** (d - 1) / math.gamma((d + 1) / 2) / math.sqrt(d)

    return math.ceil(cells(x - rho) * (1 - 1e-12)), math.floor(cells(x * (1 + 1e-9) + rho) * (1 + 1e-12))


def c2(x: float, d: int) -> int:
    """Worst-case count of zero-sum lattice points in a shifted radius-x ball.

    The minimum over all real zero-sum offsets of the number of lattice
    points within x: exact for d = 2 (floor(sqrt(2) x)), and for d >= 3
    the certified lower bound of ``lattice_count_bounds``.
    """
    if x < 0:
        raise ValueError("radius must be nonnegative")
    if d == 2:
        # lattice is {t*(1,-1)}: the ball is an interval of length sqrt(2)*x
        # in t, and the adversarial shift leaves floor(sqrt(2)*x) integers
        # inside (exactly sqrt(2)*x when that is an integer, ties inside).
        length = math.sqrt(2) * x
        if abs(length - round(length)) <= 1e-9 * max(1.0, length):
            return int(round(length))
        return int(math.floor(length))
    return lattice_count_bounds(x, d)[0]


def c3(d: int) -> float:
    """Curvature constant: the largest C with D(q||p) >= C ||q - p||^2 for
    every pair of probability vectors in d >= 2 dimensions.  It is 1.

    Pinsker gives D >= ||q-p||_1^2 / 2.  A zero-sum w whose positive part
    has mass S has ||w||_1 = 2S, and each of its two parts has squared l2
    norm at most S^2, so ||w||_1^2 >= 2 ||w||_2^2 and D >= ||q-p||_2^2.
    Near p = (1/2, 1/2, 0, ...) with q - p along (1, -1, 0, ...), D is
    sum w_i^2 / (2 p_i) + O(|w|^3) = ||w||^2 + O(|w|^3): the ratio tends
    to 1, so no larger constant holds.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return 1.0


# --- exponents --------------------------------------------------------------

def entropy_contour_point(R: float) -> float:
    """The t in (0, 1/2] with binary entropy h(t) = R (R in [0, ln 2])."""
    if not 0.0 <= R <= math.log(2) + 1e-12:
        raise ValueError(f"R = {R} outside [0, ln 2]")
    if R >= math.log(2):
        return 0.5
    if R == 0.0:
        return 0.0
    return float(optimize.brentq(lambda t: binary_entropy(t) - R, 1e-300, 0.5, xtol=1e-15))


def optimal_overflow_exponent(R: float, p_spec) -> float:
    """Optimal overflow exponent inf of D(q || p) over {q : H(q) >= R}.

    Zero when H(p) >= R.  Otherwise the minimizer is the I-projection of
    p onto the entropy super-level set, a member of the tilted family
    q_s ~ p^s on the support of p: H(q_s) falls from ln |supp p| at s = 0
    to H(p) at s = 1, and one root find on s in [0, 1] fixes H(q_s) = R.
    Rates above ln |supp p| leave no q with D(q || p) finite (+inf).
    """
    p = np.asarray(p_spec, dtype=float)
    d = len(p)
    if R > math.log(d) + 1e-12:
        raise ValueError(f"R = {R} exceeds ln d = {math.log(d)}: no feasible q")
    if entropy(p) >= R:
        return 0.0
    p = p[p > 0]
    if R > math.log(len(p)) + 1e-12:
        return INF

    def tilt(s: float) -> np.ndarray:
        q = p**s
        return q / q.sum()

    target = min(R, entropy(tilt(0.0)))  # ln |supp p|, as rounded
    s = optimize.brentq(lambda s: entropy(tilt(s)) - target, 0.0, 1.0, xtol=1e-15)
    return divergence(tilt(s), p)


def universality_ceiling(R: float, p_state: np.ndarray, family) -> float:
    """Universality ceiling on the overflow exponent at rate R.

    ``family`` is a finite list of (state, admissible_rate) pairs; the
    value is the infimum of D(state || p_state) over members whose
    admissible rate exceeds R (+inf if none qualify).  All states must
    be of one kind: density matrices (matrix relative entropy) or bare
    spectra (classical divergence); mixing the two is ambiguous.
    """
    p_state = np.asarray(p_state)
    best = INF
    for state, rate in family:
        if rate <= R:
            continue
        state = np.asarray(state)
        if state.ndim != p_state.ndim:
            raise ValueError("family and reference must both be spectra or both matrices")
        if state.ndim == 1:
            val = divergence(np.sort(state)[::-1], np.sort(np.asarray(p_state, dtype=float))[::-1])
        else:
            val = quantum_relative_entropy(state, p_state)
        best = min(best, val)
    return best


def min_unitary_divergence(rho: np.ndarray, sigma: np.ndarray) -> float:
    """min over unitaries V of D(rho || V sigma V*) = D(spec rho || spec sigma)."""
    return divergence(sorted_spectrum(rho), sorted_spectrum(sigma))


def rotated_two_level_state(t: float, theta: float) -> np.ndarray:
    """diag(t, 1-t) conjugated by a rotation of angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, -s], [s, c]])
    return u @ np.diag([t, 1.0 - t]) @ u.T


def rotating_family_gap(t1: float, t0: float, theta_fn) -> float:
    """Exponent gap for the rotating two-level family.

    For the one-parameter family rho(t) = R(theta(t)) diag(t, 1-t)
    R(theta(t))^T with t in (0, 1/2), the achievable overflow exponent at
    rate h(t1) is d(t1, t0) while the universality ceiling is
    cos^2(dtheta) d(t1, t0) + sin^2(dtheta) d(t1, 1-t0); their difference
    is sin^2(dtheta) * (d(t1, 1-t0) - d(t1, t0)) >= 0.
    """
    if not (0.0 < t1 < 0.5 and 0.0 < t0 < 0.5):
        raise ValueError("need t1, t0 in (0, 1/2)")
    dtheta = float(theta_fn(t1) - theta_fn(t0))
    return math.sin(dtheta) ** 2 * (binary_divergence(t1, 1.0 - t0) - binary_divergence(t1, t0))
