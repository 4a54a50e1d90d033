import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import optimize, special

import oracles
from qvlcode import info, linalg
from qvlcode.linalg import DimensionBudgetError, pure_state, random_density, random_unitary

RNG = np.random.default_rng(99)


class TestEntropy:
    def test_examples(self):
        assert info.entropy([1.0, 0.0]) == 0.0
        assert info.entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
        assert info.entropy([0.7, 0.3]) == pytest.approx(0.610864, abs=1e-6)

    def test_binary_form(self):
        for t in (0.1, 0.25, 0.4):
            direct = -t * math.log(t) - (1 - t) * math.log(1 - t)
            assert info.binary_entropy(t) == pytest.approx(direct, rel=1e-14)

    def test_range(self):
        for _ in range(20):
            q = RNG.dirichlet(np.ones(4))
            assert 0.0 <= info.entropy(q) <= math.log(4) + 1e-12


class TestDivergence:
    def test_examples(self):
        assert info.divergence([0.4, 0.6], [0.4, 0.6]) == 0.0
        assert info.divergence([1, 0], [0.5, 0.5]) == pytest.approx(math.log(2))
        assert info.divergence([0.5, 0.5], [0.7, 0.3]) == pytest.approx(0.087176, abs=1e-6)

    def test_support_mismatch(self):
        assert info.divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_nonnegative_zero_iff_equal(self):
        for _ in range(30):
            q = RNG.dirichlet(np.ones(3))
            p = RNG.dirichlet(np.ones(3))
            d = info.divergence(q, p)
            assert d >= 0.0
        assert info.divergence([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_pinsker_euclidean(self):
        # D >= ||q - p||_2^2 / 2, the certified curvature constant
        for _ in range(200):
            q = RNG.dirichlet(np.ones(3))
            p = RNG.dirichlet(np.ones(3))
            assert info.divergence(q, p) >= 0.5 * np.sum((q - p) ** 2) - 1e-12


class TestQuantumRelativeEntropy:
    def test_commuting_reduces_to_classical(self):
        rho = np.diag([0.6, 0.4])
        sigma = np.diag([0.7, 0.3])
        assert info.quantum_relative_entropy(rho, sigma) == pytest.approx(
            info.divergence([0.6, 0.4], [0.7, 0.3]), abs=1e-12)

    def test_support_condition(self):
        assert info.quantum_relative_entropy(np.eye(2) / 2, pure_state([1, 0])) == math.inf

    def test_unitary_invariance(self):
        rho = random_density(3, RNG)
        sigma = random_density(3, RNG)
        u = random_unitary(3, RNG)
        a = info.quantum_relative_entropy(rho, sigma)
        b = info.quantum_relative_entropy(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert a == pytest.approx(b, abs=1e-10)


class TestSortedSpectrum:
    def test_examples(self):
        assert np.allclose(info.sorted_spectrum(np.eye(2) / 2), [0.5, 0.5])
        assert np.allclose(info.sorted_spectrum(pure_state([1, 0])), [1.0, 0.0])
        plus = pure_state([1, 1])
        minus = pure_state([1, -1])
        rho = 0.7 * plus + 0.3 * minus
        assert np.allclose(info.sorted_spectrum(rho), [0.7, 0.3], atol=1e-12)

    def test_unitary_invariance(self):
        for _ in range(5):
            rho = random_density(3, RNG)
            u = random_unitary(3, RNG)
            a = info.sorted_spectrum(rho)
            b = info.sorted_spectrum(u @ rho @ u.conj().T)
            assert np.allclose(a, b, atol=1e-10)


class TestLatticeCounts:
    @staticmethod
    def brute_c1(x, d):
        r = int(x) + 1
        count = 0
        for head in itertools.product(range(-r, r + 1), repeat=d - 1):
            vec = head + (-sum(head),)
            if sum(v * v for v in vec) <= x * x * (1 + 1e-9) + 1e-12:
                count += 1
        return count

    def test_examples(self):
        assert info.c1(1.0, 2) == 1   # (1,-1) has length sqrt(2) > 1
        assert info.c1(1.5, 2) == 3
        assert info.c1(0.0, 2) == 1
        assert info.c1(0.0, 4) == 1

    def test_brute_force_grid(self):
        for d in (2, 3, 4):
            for x in (0.0, 0.3, 1.0, 1.5, 2.0, 3.3, 5.0, 8.7, 12.0, 20.0):
                assert info.c1(x, d) == self.brute_c1(x, d), (x, d)

    def test_monotone(self):
        xs = np.linspace(0, 12, 40)
        for d in (2, 3):
            vals = [info.c1(x, d) for x in xs]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_c2_examples(self):
        assert info.c2(0.1, 2) == 0     # offset midway between points
        assert info.c2(math.sqrt(2), 2) == 2

    def test_c2_below_c1(self):
        for d in (2, 3, 4, 5):
            for x in (0.1, 0.7, 1.3, 2.4, 4.0):
                assert info.c2(x, d) <= info.c1(x, d)

    @staticmethod
    def brute_count(center, x):
        """Zero-sum integer vectors within x of ``center``, c1's tie guard."""
        d = len(center)
        axes = [np.arange(math.floor(c - x) - 1, math.ceil(c + x) + 2) for c in center[:-1]]
        heads = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d - 1)
        pts = np.concatenate([heads, -heads.sum(axis=1, keepdims=True)], axis=1)
        return int((((pts - center) ** 2).sum(axis=1) <= x * x * (1 + 1e-9) + 1e-12).sum())

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_count_bounds_bracket_origin(self, d):
        for x in np.linspace(0.0, 12.0, 49):
            lower, upper = info.lattice_count_bounds(x, d)
            assert lower <= self.brute_count(np.zeros(d), x) <= upper, (d, x)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_count_bounds_bracket_random_centres(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(200):
            center = rng.normal(size=d) * 3
            center -= center.mean()  # onto the zero-sum hyperplane
            x = rng.uniform(0.0, 6.0 if d < 5 else 4.5)
            lower, upper = info.lattice_count_bounds(x, d)
            assert lower <= self.brute_count(center, x) <= upper, (d, center, x)
            assert info.c2(x, d) <= self.brute_count(center, x)

    def test_count_bounds_closed_form_at_large_radius(self):
        # no enumeration: radii of block lengths ~1e12 cost no more than small ones
        for d in (3, 4, 5):
            lower, upper = info.lattice_count_bounds(1e9, d)
            assert 0 < lower < upper
            assert upper / lower == pytest.approx(1.0, rel=1e-8 * d)

    def test_c2_grows(self):
        assert info.c2(10.0, 2) == 14  # floor(sqrt(2) * 10)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_ball_grid_against_loop(self, d):
        # radii with x^2 an integer put lattice points exactly on the sphere
        for x in (0.0, 1.0, math.sqrt(2), math.sqrt(3), 2.0, math.sqrt(6), 3.0, math.sqrt(14), 4.0, 7.24):
            if d == 5 and x > 4:
                continue
            assert info.sum_zero_ball(x, d) == oracles.sum_zero_ball(x, d), (d, x)

    def test_ball_grid_within_the_byte_budget(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_BYTES", 1 << 16)
        assert info.sum_zero_ball(2.0, 3) == oracles.sum_zero_ball(2.0, 3)
        with pytest.raises(DimensionBudgetError):
            info.sum_zero_ball(20.0, 4)


class TestCurvatureConstant:
    def test_certified_value(self):
        for d in range(2, 9):
            assert info.c3(d) == 1.0
        with pytest.raises(ValueError):
            info.c3(1)

    def test_ratio_example(self):
        q, p = np.array([0.6, 0.4]), np.array([0.5, 0.5])
        ratio = info.divergence(q, p) / np.sum((q - p) ** 2)
        assert ratio == pytest.approx(1.0068, abs=1e-4)
        assert ratio >= info.c3(2)

    def test_local_limit_at_uniform(self):
        # Taylor oracle: ratio -> 1 as q -> p = (1/2, 1/2)
        eps = 1e-4
        q = np.array([0.5 + eps, 0.5 - eps])
        p = np.array([0.5, 0.5])
        ratio = info.divergence(q, p) / np.sum((q - p) ** 2)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_estimate_near_one_for_qubits(self):
        # the constant is sharp: along (1, -1, 0, ...) at p = (1/2, 1/2, 0, ...)
        # the ratio is 1 + (2/3) eps^2 in every dimension
        eps = 1e-3
        for d in range(2, 7):
            p = np.zeros(d)
            p[:2] = 0.5
            q = p.copy()
            q[:2] += (eps, -eps)
            ratio = info.divergence(q, p) / np.sum((q - p) ** 2)
            assert info.c3(d) <= ratio <= info.c3(d) + 1e-5

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_bound_on_random_pairs(self, alpha):
        # D(q||p) >= c3 ||q - p||^2 on seeded Dirichlet pairs
        rng = np.random.default_rng(3)
        for d in range(2, 7):
            q, p = rng.dirichlet(np.full(d, alpha), size=(2, 20000))
            div = special.rel_entr(q, p).sum(axis=1)
            assert np.all(div >= info.c3(d) * np.sum((q - p) ** 2, axis=1) - 1e-15)


def slsqp_overflow_exponent(R, p_spec, restarts=20, seed=0):
    """The multi-start SLSQP program the tilted family replaced, kept as an oracle."""
    p = np.asarray(sorted(p_spec, reverse=True), dtype=float)
    d = len(p)
    if info.entropy(p) >= R:
        return 0.0
    rng = np.random.default_rng(seed)
    best = math.inf

    def objective(q):
        return info.divergence(np.clip(q, 1e-14, None) / np.clip(q, 1e-14, None).sum(), p)

    constraints = [
        {"type": "eq", "fun": lambda q: q.sum() - 1.0},
        {"type": "ineq", "fun": lambda q: info.entropy(np.clip(q, 0, None) / np.clip(q, 0, None).sum()) - R},
    ]
    starts = [np.ones(d) / d] + [rng.dirichlet(np.ones(d)) for _ in range(restarts - 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # SLSQP bound-clipping chatter
        for q0 in starts:
            res = optimize.minimize(objective, q0, method="SLSQP", bounds=[(1e-12, 1.0)] * d,
                                    constraints=constraints, options={"ftol": 1e-12, "maxiter": 500})
            if res.success and res.fun < best:
                best = float(res.fun)
    return max(0.0, best)


@pytest.mark.filterwarnings("error")
class TestOptimalOverflowExponent:
    def test_zero_when_feasible(self):
        assert info.optimal_overflow_exponent(0.3, [0.7, 0.3]) == 0.0
        h = info.entropy([0.7, 0.3])
        assert info.optimal_overflow_exponent(h, [0.7, 0.3]) == 0.0

    def test_support_mismatch_infinite(self):
        assert info.optimal_overflow_exponent(math.log(2), [1.0, 0.0]) == math.inf

    def test_contour_example(self):
        rate = info.binary_entropy(0.4)
        value = info.optimal_overflow_exponent(rate, [0.7, 0.3])
        assert value == pytest.approx(info.binary_divergence(0.4, 0.3), abs=1e-12)
        assert value == pytest.approx(0.022582, abs=1e-6)

    def test_rate_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            info.optimal_overflow_exponent(math.log(2) + 0.05, [0.7, 0.3])

    def test_boundary_transition(self):
        h = info.entropy([0.7, 0.3])
        assert info.optimal_overflow_exponent(h - 1e-6, [0.7, 0.3]) == 0.0
        assert info.optimal_overflow_exponent(h + 1e-4, [0.7, 0.3]) > 0.0

    def test_d3_against_grid_oracle(self):
        p = np.array([0.5, 0.3, 0.2])
        rate = info.entropy(p) + 0.05
        value = info.optimal_overflow_exponent(rate, p)
        best = math.inf
        m = 120
        for i in range(m + 1):
            for j in range(m + 1 - i):
                q = np.array([i, j, m - i - j]) / m
                if info.entropy(q) >= rate:
                    best = min(best, info.divergence(q, p))
        assert value <= best + 1e-9
        assert value == pytest.approx(best, abs=2e-3)

    def test_tilting_against_slsqp_oracle(self):
        # 30 spectra with d = 3..5 at three rates between H(p) and ln d; the
        # problem is convex, so three starts suffice for the oracle
        rng = np.random.default_rng(2024)
        for i in range(30):
            d = 3 + i % 3
            p = rng.dirichlet(np.ones(d))
            h = info.entropy(p)
            for f in (0.2, 0.5, 0.8):
                rate = h + f * (math.log(d) - h)
                want = slsqp_overflow_exponent(rate, p, restarts=3)
                assert info.optimal_overflow_exponent(rate, p) == pytest.approx(want, abs=1e-9), (p, rate)

    def test_d2_against_contour_closed_form(self):
        for p2 in (0.01, 0.1, 0.3, 0.45):
            for rate in np.linspace(0.05, math.log(2), 12):
                want = 0.0
                if rate > info.binary_entropy(p2):
                    want = info.binary_divergence(info.entropy_contour_point(rate), p2)
                got = info.optimal_overflow_exponent(rate, [1 - p2, p2])
                assert got == pytest.approx(want, abs=1e-12), (p2, rate)

    def test_support_deficient_spectra(self):
        for spec in ((0.6, 0.4, 0.0), (0.5, 0.3, 0.2, 0.0)):
            kept = [v for v in spec if v > 0]
            top = math.log(len(kept))
            assert info.optimal_overflow_exponent(top + 1e-3, spec) == math.inf
            assert info.optimal_overflow_exponent(math.log(len(spec)), spec) == math.inf
            for rate in (info.entropy(kept) + 1e-3, (info.entropy(kept) + top) / 2, top):
                got = info.optimal_overflow_exponent(rate, spec)
                assert got == info.optimal_overflow_exponent(rate, kept)
                assert 0.0 < got < math.inf


class TestUniversalityCeiling:
    def test_self_member(self):
        fam = [(np.diag([0.7, 0.3]), 0.9)]
        assert info.universality_ceiling(0.5, np.diag([0.7, 0.3]), fam) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_reduces_to_classical(self):
        fam = [(np.diag([0.6, 0.4]), 0.9), (np.diag([0.55, 0.45]), 0.95)]
        b = info.universality_ceiling(0.8, np.diag([0.7, 0.3]), fam)
        expected = min(info.divergence([0.6, 0.4], [0.7, 0.3]),
                       info.divergence([0.55, 0.45], [0.7, 0.3]))
        assert b == pytest.approx(expected, abs=1e-10)

    def test_empty_family_infinite(self):
        fam = [(np.diag([0.6, 0.4]), 0.2)]
        assert info.universality_ceiling(0.8, np.diag([0.7, 0.3]), fam) == math.inf

    def test_rotating_family_closed_form(self):
        t1, t0 = 0.2, 0.3
        th1, th0 = 0.9, 0.4
        rho1 = info.rotated_two_level_state(t1, th1)
        rho0 = info.rotated_two_level_state(t0, th0)
        b = info.universality_ceiling(info.binary_entropy(t1) - 1e-9, rho0,
                                [(rho1, info.binary_entropy(t1))])
        dth = th1 - th0
        closed = (math.cos(dth) ** 2 * info.binary_divergence(t1, t0)
                  + math.sin(dth) ** 2 * info.binary_divergence(t1, 1 - t0))
        assert b == pytest.approx(closed, abs=1e-10)


class TestRotatingFamilyGap:
    def test_constant_angle_zero(self):
        assert info.rotating_family_gap(0.2, 0.3, lambda t: 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_equal_parameters_zero(self):
        assert info.rotating_family_gap(0.2, 0.2, lambda t: 3 * t) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        # frozen oracle values of d(t, t') = t ln(t/t') + (1-t) ln((1-t)/(1-t'))
        d_far = info.binary_divergence(0.2, 0.7)
        d_near = info.binary_divergence(0.2, 0.3)
        assert d_far == pytest.approx(0.5341108087, abs=1e-9)
        assert d_near == pytest.approx(0.0257320925, abs=1e-9)
        gap = info.rotating_family_gap(0.2, 0.3, lambda t: (math.pi / 6) if t == 0.2 else 0.0)
        assert gap == pytest.approx(0.25 * (d_far - d_near), rel=1e-12)

    def test_nonnegative(self):
        for _ in range(20):
            t1, t0 = RNG.uniform(0.05, 0.45, size=2)
            dth = RNG.uniform(-1.5, 1.5)
            g = info.rotating_family_gap(t1, t0, lambda t, dth=dth: dth if t == t1 else 0.0)
            assert g >= -1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            info.rotating_family_gap(0.6, 0.3, lambda t: t)


def test_contour_point_inverts_entropy():
    for rate in (0.1, 0.4, 0.6, math.log(2)):
        t = info.entropy_contour_point(rate)
        assert info.binary_entropy(t) == pytest.approx(rate, abs=1e-12)


def _root_cases():
    """(f, lo, hi, xtol) for each function the package hands to ``info.root``,
    rebuilt here: the entropy contour, the tilted family's entropy, the
    error ceiling's slope, a box face's excess mass, the start's entropy
    on a segment, and the maximum-entropy path's distance (with SciPy's
    Wright omega and root)."""
    from scipy.special import wrightomega

    cases = [(lambda t, r=r: info.binary_entropy(t) - r, 1e-300, 0.5, 1e-15) for r in (1e-9, 0.3, 0.69)]
    p = np.array([0.6, 0.3, 0.08, 0.02])
    for rate in (0.95, 1.2, 1.38):
        def tilted(s, rate=rate):
            q = p**s
            return info.entropy(q / q.sum()) - rate
        cases.append((tilted, 0.0, 1.0, 1e-15))
    for n, d, delta, exponent in ((40000, 3, 40000**-0.25, 1.5), (10**6, 2, 0.03, 2.0), (5000, 5, 0.4, 1.5)):
        log_poly, curv = 4 * d * math.log(n + d), float(n)
        def slope(s, exponent=exponent, curv=curv, log_poly=log_poly, delta=delta, d=d):
            return 2 * exponent * curv * s * (delta - s) - (d - 1) * math.expm1(min(curv * s * s - log_poly, 700.0))
        cases.append((slope, math.sqrt(log_poly / curv), delta, 1e-15 * delta))
    lo, hi = np.array([0.0, 0.2, 0.0]), np.array([0.5, 0.3, np.inf])
    cases.append((lambda t: float(np.clip(t * np.array([0.6, 0.3, 0.1]), lo, hi).sum()) - 1.0, 0.0, 10.0, 1e-300))
    near, far = np.array([0.7, 0.2, 0.1, 0.0]), np.full(4, 0.25)
    cases.append((lambda theta: info.entropy(near + theta * (far - near)) - 1.3, 0.5, 1.0, 1e-12))
    anchor, radius = np.array([0.6, 0.3, 0.1]), 0.1

    def gap(log_lam):
        lam = math.exp(log_lam)
        base = lam / 3 + math.log(lam / 3)
        c = optimize.brentq(lambda c: wrightomega(lam * anchor + c).sum() - lam,
                            base - lam * anchor.max(), base - lam * anchor.min(), xtol=1e-14)
        return float(np.linalg.norm(wrightomega(lam * anchor + c) / lam - anchor)) - radius
    cases.append((gap, 0.0, 8.0, 1e-13))
    return cases


@pytest.mark.parametrize("case", range(len(_root_cases())))
def test_root_is_brentq(case):
    # the same steps as SciPy's brentq, so the same root, to the bit
    f, lo, hi, xtol = _root_cases()[case]
    assert info.root(f, lo, hi, xtol) == optimize.brentq(f, lo, hi, xtol=xtol)


def test_root_on_overflowing_values_warns_nothing():
    # secant steps between values near the float maximum overflow to inf on
    # Python floats without a warning, and still bisect to the sign change
    def f(x):
        return np.float64(1.7e308) * np.sign(x - 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert info.root(f, 0.0, 1.0, 1e-12) == optimize.brentq(f, 0.0, 1.0, xtol=1e-12)


def test_root_failures(monkeypatch):
    with pytest.raises(ValueError):
        info.root(lambda x: x + 1.0, 0.0, 1.0, 1e-12)
    monkeypatch.setattr(info, "MAX_ROOT_STEPS", 3)
    with pytest.raises(info.NumericalFailure):
        info.root(lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0, 1e-15)  # bisection only
