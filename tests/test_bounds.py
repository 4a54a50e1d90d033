import math

import numpy as np
import pytest
from scipy import optimize

from qvlcode import bounds, codec, info
from qvlcode.linalg import NumericalFailure, basis_source
from qvlcode.schur_weyl import log_block_prob_iid_two_level


class TestErrorBounds:
    def test_vacuous_at_small_n(self):
        # the polynomial prefactor swamps the exponential until n is astronomic
        for n in (2, 50, 400):
            for delta in (0.05, 0.1):
                assert bounds.error_ceiling_bures(n, 2, delta) == 1.0
                assert bounds.error_ceiling_overlap2(n, 2, delta) == 1.0

    def test_zero_radius_vacuous(self):
        assert bounds.error_ceiling_bures(100, 2, 0.0) == 1.0

    def test_clamped_to_unit_interval(self):
        for n in (10, 10**4, 10**7):
            delta = n ** -0.25
            for f in (bounds.error_ceiling_bures, bounds.error_ceiling_overlap2):
                v = f(n, 2, delta)
                assert 0.0 <= v <= 1.0

    def test_schedule_eventually_nonvacuous_and_decreasing(self):
        # log-domain evaluation survives the crossover scale ~ 10^6..10^7
        vals = [bounds.error_ceiling_bures(n, 2, n ** -0.25) for n in (10**6, 4 * 10**6, 10**7, 10**8)]
        assert vals[-1] < 0.5
        nontrivial = [v for v in vals if v < 1.0]
        assert all(a > b for a, b in zip(nontrivial, nontrivial[1:]))

    def test_overlap2_dominates_bures_version(self):
        # (1-x)^2 >= (1-x)^(3/2) on [0,1] makes the overlap-squared RHS larger
        for n in (10**6, 10**7, 10**8):
            delta = n ** -0.25
            assert bounds.error_ceiling_overlap2(n, 2, delta) >= bounds.error_ceiling_bures(n, 2, delta) - 1e-12

    def test_restricted_matches_shape(self):
        n, delta = 10**7, (10**7) ** -0.25
        delta1 = delta - (10**7) ** (-1 / 3)
        v = bounds.restricted_error_ceiling(n, 2, delta, delta1)
        assert 0.0 <= v <= 1.0
        # the unrestricted bound takes an infimum over delta1, so it is tighter
        assert bounds.error_ceiling_bures(n, 2, delta) <= v + 1e-12

    def test_bracket_counts_err_towards_a_larger_ceiling(self):
        # C1 is replaced by an upper bound on the code's own count, never less
        n, d = 10**7, 2
        for delta in np.linspace(0.015, 0.025, 21):
            c1 = info.c1(n * delta, d)
            for frac in (0.6, 0.75, 0.9):
                log_poly = 4 * d * math.log(n + d) - n * (delta - delta * frac) ** 2
                if log_poly >= 0:
                    continue  # vacuous
                exact = 1.0 - info.c2(n * delta * frac, d) / c1 * (-math.expm1(log_poly)) ** 1.5
                assert bounds._error_bound_bracket(n, d, delta, delta * frac, 1.5) >= max(0.0, exact)

    def test_uses_certified_curvature_by_default(self):
        # the bracket recomputed here at C3 = 1 (info.c3), minimized over a
        # dense grid of inner radii, reproduces the ceiling; C3 = 1/2 does not
        n, d = 10**7, 2
        delta = n ** -0.25
        c1_upper = info.lattice_count_bounds(n * delta, d)[1]

        def bracket(delta1, c3):
            log_poly = 4 * d * math.log(n + d) - n * c3 * (delta - delta1) ** 2
            if log_poly >= 0:
                return 1.0
            return 1.0 - info.c2(n * delta1, d) / c1_upper * (-math.expm1(log_poly)) ** 1.5

        inner = delta * np.linspace(0.01, 0.99, 4000)
        at_one = min(bracket(x, 1.0) for x in inner)
        at_half = min(bracket(x, 0.5) for x in inner)
        v = bounds.error_ceiling_bures(n, d, delta)
        assert v == pytest.approx(at_one, abs=1e-5)
        assert v < at_half - 0.05


class TestOverflowBound:
    def test_trivial_regime(self):
        # below-entropy rates: the divergence term vanishes
        v = bounds.overflow_exponent_floor(100, 2, 0.1, 0.3, (0.7, 0.3))
        assert v == pytest.approx(-(10 / 100) * math.log(102), abs=1e-12)

    def test_dominates_exact_overflow(self):
        spec = (0.7, 0.3)
        rate = info.entropy(spec) + 0.15
        for n in (100, 200, 400):
            delta, _ = codec.delta_schedule(n)
            code = codec.build_code(codec.CodeParams(n=n, d=2, delta=delta))
            logp = codec.log_overflow_probability(code, spec, rate)
            exact = -logp / n if logp > float("-inf") else math.inf
            assert exact >= bounds.overflow_exponent_floor(n, 2, delta, rate, spec) - 1e-9

    def test_converges_to_exponent_for_shrinking_radius(self):
        spec = (0.7, 0.3)
        rate = info.binary_entropy(0.4)
        target = info.optimal_overflow_exponent(rate, spec)
        vals = [bounds.overflow_exponent_floor(n, 2, n ** -0.25, rate, spec)
                for n in (10**4, 10**6, 10**8, 10**12)]
        gaps = [abs(v - target) for v in vals]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.1 * target  # within 10 percent, far along the schedule

    def test_restricted_reduces_to_plain_when_set_covers(self):
        spec = (0.7, 0.3)
        rate = info.binary_entropy(0.4)
        n, delta = 10**6, (10**6) ** -0.25
        cover = tuple((1 - t, t) for t in np.linspace(0.0, 0.5, 26))
        v_plain = bounds.overflow_exponent_floor(n, 2, delta, rate, spec)
        v_restricted = bounds.restricted_overflow_exponent_floor(n, 2, delta, 0.05, cover, rate, spec)
        assert v_restricted == pytest.approx(v_plain, abs=1e-6)

    def test_restricted_far_set_is_infinite(self):
        # allowed spectra far from the entropy contour: no feasible point
        spec = (0.7, 0.3)
        rate = math.log(2) - 1e-3
        v = bounds.restricted_overflow_exponent_floor(10**4, 2, 1e-3, 1e-3, ((1.0, 0.0),), rate, spec)
        assert v == math.inf

    def test_restricted_dominates_exact(self):
        spec = (0.7, 0.3)
        n = 100
        delta, delta1 = codec.delta_schedule(n)
        specs = ((0.7, 0.3), (0.6, 0.4))
        code = codec.build_code(codec.CodeParams(n=n, d=2, delta=delta,
                                                 delta1=delta1, spectrum_set=specs))
        rate = info.entropy(spec) + 0.15
        logp = codec.log_overflow_probability(code, spec, rate)
        exact = -logp / n if logp > float("-inf") else math.inf
        rhs = bounds.restricted_overflow_exponent_floor(n, 2, delta, delta1, specs, rate, spec)
        assert exact >= rhs - 1e-9

    def test_restricted_d3_against_grid_oracle(self):
        # exercises the d >= 3 convex-program route with a nontrivial anchor
        p = np.array([0.5, 0.3, 0.2])
        n = 10**6
        delta = 1e-3
        anchor = (0.42, 0.38, 0.2)
        radius = 0.06
        rate = info.entropy(p) + 0.05
        v = bounds.restricted_overflow_exponent_floor(n, 3, delta, radius, (anchor,), rate, p)
        poly = (5 * 3 / n) * math.log(n + 3)
        inner = v + poly
        reduced = rate - (4 * 3 / n) * math.log(n + 3)
        # oracle: dense grid over q satisfying both constraints; the slack
        # 2*delta only loosens the oracle value by O(delta), within tolerance
        best = math.inf
        m = 220
        anchor_arr = np.array(anchor)
        for i in range(m + 1):
            for j in range(m + 1 - i):
                q = np.array([i, j, m - i - j]) / m
                if info.entropy(q) < reduced:
                    continue
                if np.linalg.norm(q - anchor_arr) > radius:
                    continue
                best = min(best, info.divergence(q, p))
        assert inner <= best + 1e-6          # solver at least as good as the grid
        assert inner >= best - 0.02          # and not wildly below it
        # a covering anchor reproduces the unrestricted floor
        wide = bounds.restricted_overflow_exponent_floor(
            n, 3, delta, 2.0, ((1 / 3, 1 / 3, 1 / 3),), rate, p)
        plain = bounds.overflow_exponent_floor(n, 3, delta, rate, p)
        assert wide == pytest.approx(plain, abs=1e-5)


def failing_minimize(*args, **kwargs):
    return optimize.OptimizeResult(x=args[1], fun=0.0, success=False, message="forced failure")


def slsqp_max_entropy_in_ball(anchor, radius, starts=12):
    """Multi-start SLSQP oracle for max H(q) over the simplex within radius of anchor."""
    d = len(anchor)
    rng = np.random.default_rng(0)
    constraints = [{"type": "eq", "fun": lambda q: q.sum() - 1.0},
                   {"type": "ineq", "fun": lambda q: radius**2 - ((q - anchor) ** 2).sum()}]
    best = -math.inf
    for q0 in [anchor] + [anchor + 0.5 * radius * (x - anchor) for x in rng.dirichlet(np.ones(d), starts)]:
        res = optimize.minimize(lambda q: -info.entropy(np.clip(q, 1e-300, None) / np.clip(q, 1e-300, None).sum()),
                                q0, method="SLSQP", bounds=[(1e-15, 1.0)] * d, constraints=constraints,
                                options={"ftol": 1e-15, "maxiter": 1000})
        if res.success:
            best = max(best, -float(res.fun))
    return best


class TestOverflowFloorSolver:
    N, D, RATE, SPEC = 40000, 3, 1.05, (0.6, 0.3, 0.1)

    def test_solver_failure_raises(self, monkeypatch):
        delta, delta1 = codec.delta_schedule(self.N)
        monkeypatch.setattr(bounds.optimize, "minimize", failing_minimize)
        with pytest.raises(NumericalFailure):
            bounds.overflow_exponent_floor(self.N, self.D, delta, self.RATE, self.SPEC)
        with pytest.raises(NumericalFailure):
            bounds.restricted_overflow_exponent_floor(self.N, self.D, delta, delta1,
                                                      ((0.5, 0.3, 0.2),), self.RATE, self.SPEC)

    def test_infeasible_anchor_is_decided_without_solver(self, monkeypatch):
        delta, delta1 = codec.delta_schedule(self.N)
        anchor = np.array([0.8, 0.15, 0.05])
        assert bounds._max_entropy_in_ball(anchor, delta1) < self.RATE
        monkeypatch.setattr(bounds.optimize, "minimize", failing_minimize)
        assert bounds.restricted_overflow_exponent_floor(
            self.N, self.D, delta, delta1, (tuple(anchor),), self.RATE, self.SPEC) == math.inf

    def test_max_entropy_in_ball_against_slsqp(self):
        rng = np.random.default_rng(7)
        for i in range(12):
            d = 3 + i % 3
            anchor = rng.dirichlet(np.ones(d))
            radius = float(np.linalg.norm(anchor - 1.0 / d)) * rng.uniform(0.05, 0.95)
            got = bounds._max_entropy_in_ball(anchor, radius)
            assert got == pytest.approx(slsqp_max_entropy_in_ball(anchor, radius), abs=1e-9)

    def test_max_entropy_in_ball_limits(self):
        anchor = np.array([0.5, 0.3, 0.2])
        assert bounds._max_entropy_in_ball(anchor, 1.0) == math.log(3)
        assert bounds._max_entropy_in_ball(anchor, 0.0) == pytest.approx(info.entropy(anchor), abs=1e-12)
        assert bounds._max_entropy_in_ball(np.array([0.6, 0.4, 0.0]), 0.01) > info.entropy([0.6, 0.4])


class TestTailBounds:
    def test_block_ceiling_at_center(self):
        # lam/n = p makes the divergence vanish: ceiling is the polynomial
        v = bounds.block_probability_ceiling((70, 30), (0.7, 0.3), 2)
        assert v == pytest.approx((100 + 2) ** 6, rel=1e-12)

    def test_block_ceiling_dominates(self):
        p = (0.7, 0.3)
        n = 100
        for a in range(50, 101):
            lhs = log_block_prob_iid_two_level(a, n - a, *p)
            assert lhs <= bounds.log_block_probability_ceiling((a, n - a), p, 2) + 1e-9

    def test_box_tail_min_divergence(self):
        p = (0.7, 0.3)
        boxes = [[(0.6, 0.8)]]
        v = bounds.min_divergence_outside_boxes(boxes, p, 2)
        expected = min(info.binary_divergence(0.4, 0.3), info.binary_divergence(0.2, 0.3))
        assert v == pytest.approx(expected, abs=1e-12)

    def test_box_tail_outside_p_gives_zero(self):
        assert bounds.min_divergence_outside_boxes([[(0.9, 0.95)]], (0.7, 0.3), 2) == 0.0

    def test_box_tail_dominates_exact_mass(self):
        p = (0.7, 0.3)
        boxes = [[(0.55, 0.85)]]
        for n in (100, 300):
            lhs = sum(
                math.exp(log_block_prob_iid_two_level(a, n - a, *p))
                for a in range((n + 1) // 2, n + 1)
                if not 0.55 <= a / n <= 0.85
            )
            assert lhs <= bounds.tail_mass_ceiling(boxes, p, n, 2) + 1e-9

    def test_box_tail_d3(self):
        p = (0.5, 0.3, 0.2)
        boxes = [[(0.4, 0.6), (0.2, 0.4)]]
        v = bounds.min_divergence_outside_boxes(boxes, p, 3)
        assert 0.0 < v < 0.1
        # the minimizer sits on a box edge
        edge_vals = []
        for q1 in (0.4, 0.6):
            for q2 in np.linspace(0.2, 0.4, 200):
                q = (q1, q2, 1 - q1 - q2)
                edge_vals.append(info.divergence(q, p))
        for q2 in (0.2, 0.4):
            for q1 in np.linspace(0.4, 0.6, 200):
                q = (q1, q2, 1 - q1 - q2)
                edge_vals.append(info.divergence(q, p))
        assert v == pytest.approx(min(edge_vals), abs=1e-4)

    @staticmethod
    def face_scan(boxes, p, grid):
        """Dense scan of every box face, skipping points inside the union's
        open interior: each point scanned lies outside the union."""
        d = len(p)
        best = math.inf
        for box in boxes:
            for axis in range(d - 1):
                for edge in box[axis]:
                    free = [np.linspace(lo, hi, grid) for i, (lo, hi) in enumerate(box) if i != axis]
                    pts = np.stack(np.meshgrid(*free, indexing="ij"), axis=-1).reshape(-1, d - 2)
                    q = np.insert(pts, axis, edge, axis=1)
                    q = np.concatenate([q, 1.0 - q.sum(axis=1, keepdims=True)], axis=1)
                    q = q[(q >= 0).all(axis=1)]
                    interior = np.zeros(len(q), dtype=bool)
                    for b in boxes:
                        lo, hi = np.array(b).T
                        interior |= ((lo < q[:, :-1]) & (q[:, :-1] < hi)).all(axis=1)
                    for row in q[~interior]:
                        best = min(best, info.divergence(row, p))
        return best

    def test_face_minimum_against_1d_oracle_d3(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = np.sort(rng.dirichlet(np.ones(3)))[::-1]
            box = [(p[i] - rng.uniform(0.01, 0.3), p[i] + rng.uniform(0.01, 0.3)) for i in range(2)]
            want = math.inf
            for axis in (0, 1):
                other = 1 - axis
                for edge in box[axis]:
                    lo, hi = max(box[other][0], 0.0), min(box[other][1], 1.0 - edge)
                    if not 0.0 <= edge <= 1.0 or lo > hi:
                        continue

                    def f(v, axis=axis, other=other, edge=edge):
                        q = np.zeros(3)
                        q[axis], q[other], q[2] = edge, v, 1.0 - edge - v
                        return info.divergence(q, p)

                    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
                    want = min(want, res.fun, f(lo), f(hi))
            assert bounds.min_divergence_outside_boxes([box], p, 3) == pytest.approx(want, abs=1e-9)

    def test_face_minimum_below_dense_scan_d4(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        one = [[(0.3, 0.5), (0.25, 0.4), (0.1, 0.3)]]
        union = one + [[(0.35, 0.6), (0.2, 0.35), (0.15, 0.25)]]
        for boxes in (one, union):
            v = bounds.min_divergence_outside_boxes(boxes, p, 4)
            scan = self.face_scan(boxes, p, 81)
            assert 0.0 < v <= scan + 1e-12
            if boxes is one:  # exact for one box: the scan only rounds it up
                assert scan - v < 1e-3

    def test_union_is_a_lower_bound_d3(self):
        p = np.array([0.5, 0.3, 0.2])
        boxes = [[(0.4, 0.6), (0.2, 0.4)], [(0.45, 0.7), (0.15, 0.35)]]
        v = bounds.min_divergence_outside_boxes(boxes, p, 3)
        assert 0.0 < v <= self.face_scan(boxes, p, 2001) + 1e-12
        # a face wholly inside another box's interior is skipped
        inner = [[(0.4, 0.6), (0.2, 0.4)], [(0.45, 0.55), (0.25, 0.35)]]
        assert bounds.min_divergence_outside_boxes(inner, p, 3) == bounds.min_divergence_outside_boxes(inner[:1], p, 3)


class TestSlowDecayDiagnostics:
    def test_floor_constant_example(self):
        v = bounds.zero_radius_error_floor((0.75, 0.25))
        assert v == pytest.approx(1 - ((1 / 3) ** 1.5 + (2 / 3) ** 1.5), rel=1e-14)
        assert v == pytest.approx(0.26322, abs=1e-5)

    def test_floor_constant_degenerate_source(self):
        assert bounds.zero_radius_error_floor((1.0, 0.0)) == pytest.approx(0.0)

    def test_floor_constant_rejects_flat(self):
        with pytest.raises(ValueError):
            bounds.zero_radius_error_floor((0.5, 0.5))

    def test_zero_radius_error_exceeds_floor_at_large_n(self):
        src = basis_source(2, (0.75, 0.25))
        floor = bounds.zero_radius_error_floor((0.75, 0.25))
        for n in (200, 400):
            code = codec.build_code(codec.CodeParams(n=n, d=2, delta=0.0))
            assert codec.average_error_exact(code, src) >= floor - 1e-9

    def test_rate_ceiling_positive_constant(self):
        # c = r - r^(3/2) > 0 whenever 0 < p2 < p1
        for p1 in (0.6, 0.75, 0.9):
            r = (p1 - (1 - p1)) / p1
            assert r - r**1.5 > 0
            assert bounds.decay_rate_ceiling((p1, 1 - p1), 100) > 0

    def test_diagnostic_rows(self):
        rows = bounds.decay_rate_table((0.75, 0.25), [50, 100, 200])
        rates = [r for _, r, _ in rows]
        assert all(rate > 0 for rate in rates)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        for _, rate, ceiling in rows:
            assert rate <= ceiling


class TestBoundReport:
    def test_satisfied_logic(self):
        r = bounds.BoundReport("x", {}, rhs_value=0.5, lhs_value=0.4)
        assert r.satisfied
        r2 = bounds.BoundReport("x", {}, rhs_value=0.5, lhs_value=0.5 + 2e-9)
        assert not r2.satisfied
        r3 = bounds.BoundReport("x", {}, rhs_value=0.5)
        assert r3.satisfied
