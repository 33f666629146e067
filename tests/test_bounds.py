import math

import numpy as np
import pytest

from conftest import kkt_interval, nullspace_overlap, random_system
from entrybounds import (
    BoundStatus,
    LinearSystem,
    Target,
    adjacent_difference_bounds,
    bounds_for,
    condition_report,
    core,
    crlb_identity_check,
    ellipsoid_volume,
    entrywise_bounds,
    epsilon_heuristic,
    extremal_solution,
    functional_bound,
    global_bounds,
    lift_matrix,
    lift_system,
    lift_vector,
    svd_truncated,
)
from entrybounds.errors import (
    DimensionMismatch,
    InfeasibleSystem,
    NotOverdetermined,
    NumericalFailure,
    RankDeficient,
    SamePair,
    StatusMismatch,
    ZeroFunctional,
)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "b, eps",
        [([1.0, np.nan], 0.5), ([np.inf, 2.0], 0.5), ([1.0, 2.0], np.nan), ([1.0, 2.0], np.inf)],
        ids=["nan-data", "inf-data", "nan-epsilon", "inf-epsilon"],
    )
    def test_rejected_with_typed_error(self, b, eps):
        with pytest.raises(NumericalFailure):
            LinearSystem(a=np.eye(2), b=b, epsilon=eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_weights_rejected(self, bad):
        sys_ = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        with pytest.raises(NumericalFailure, match="finite"):
            bounds_for(sys_, np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(NumericalFailure, match="finite"):
            functional_bound(sys_, [bad, 0.0])
        with pytest.raises(NumericalFailure, match="finite"):
            extremal_solution(sys_, [bad, 1.0], Target.UPPER)


class TestWeightRowRange:
    """Weight rows so tiny or huge that their products or norms under- or
    overflow: the interval and its endpoints are exact, or NumericalFailure
    is raised (a RuntimeWarning fails the suite)."""

    @pytest.mark.parametrize(
        "scale, w, lower, upper",
        [(1e10, [1e-160, 0.0], 5e-171, 1.5e-170), (1.0, [1e308, 0.0], 5e307, 1.5e308),
         (1.0, [1e-320, 0.0], 5e-321, 1.5e-320)],
        ids=["underflow", "huge", "subnormal"],
    )
    def test_exact_interval_and_endpoints(self, scale, w, lower, upper):
        sys_ = LinearSystem(a=scale * np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        got = functional_bound(sys_, w)
        assert got.status is BoundStatus.FINITE
        assert got.lower == pytest.approx(lower, rel=1e-15)
        assert got.upper == pytest.approx(upper, rel=1e-15)
        assert got.half_width == pytest.approx((upper - lower) / 2, rel=1e-15)
        for target, end in ((Target.UPPER, upper), (Target.LOWER, lower)):
            sol = extremal_solution(sys_, w, target)
            assert sol.achieved_value == pytest.approx(end, rel=1e-15)
            assert sol.residual_norm == pytest.approx(0.5, rel=1e-15)

    def test_overflowing_interval_rejected(self):
        sys_ = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        w = [1e308, 1e308]
        with pytest.raises(NumericalFailure, match="must be finite"):
            functional_bound(sys_, w)
        with pytest.raises(NumericalFailure, match="must be finite"):
            bounds_for(sys_, np.array([[1.0, 0.0], w]))
        with pytest.raises(NumericalFailure, match="must be finite"):
            extremal_solution(sys_, w, Target.UPPER)

    def test_tiny_row_reaches_arbitrary_value(self):
        sys_ = LinearSystem(a=np.array([[1.0, 0.0]]), b=[1.0], epsilon=0.1)
        sol = extremal_solution(sys_, [1e-170, 1e-170], Target.ARBITRARY, alpha=1e-160)
        assert sol.achieved_value == pytest.approx(1e-160, rel=1e-12)
        with pytest.raises(NumericalFailure, match="must be finite"):
            extremal_solution(sys_, [1e-300, 1e-300], Target.ARBITRARY, alpha=1e300)


class TestFunctionalBound:
    def test_identity(self):
        sys = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        b = functional_bound(sys, e(0, 2))
        assert b.status is BoundStatus.FINITE
        assert (b.lower, b.upper) == pytest.approx((0.5, 1.5))

    def test_unbounded_in_nullspace(self):
        sys = LinearSystem(a=np.array([[1.0, 0.0]]), b=[1.0], epsilon=0.1)
        assert functional_bound(sys, e(1, 2)).status is BoundStatus.UNBOUNDED

    def test_diagonal_sensitivities(self):
        sys = LinearSystem(a=np.diag([2.0, 1.0]), b=[2.0, 1.0], epsilon=1.0)
        b0 = functional_bound(sys, e(0, 2))
        b1 = functional_bound(sys, e(1, 2))
        assert (b0.lower, b0.upper) == pytest.approx((0.5, 1.5))
        assert (b1.lower, b1.upper) == pytest.approx((0.0, 2.0))
        assert b0.sensitivity == pytest.approx(0.5)
        assert b1.sensitivity == pytest.approx(1.0)

    def test_infeasible(self):
        sys = LinearSystem(a=np.array([[1.0], [1.0]]), b=[0.0, 2.0], epsilon=1.0)
        assert functional_bound(sys, e(0, 1)).status is BoundStatus.INFEASIBLE

    def test_zero_weight_rejected(self):
        sys = LinearSystem(a=np.eye(2), b=[0.0, 0.0], epsilon=1.0)
        with pytest.raises(ZeroFunctional):
            functional_bound(sys, [0.0, 0.0])

    def test_matches_kkt_oracle(self, rng):
        hits = 0
        for _ in range(30):
            a = rng.standard_normal((6, 4))
            noise = rng.standard_normal(6)
            noise *= rng.uniform(0.05, 0.5) / np.linalg.norm(noise)
            b = a @ rng.standard_normal(4) + noise
            eps = float(rng.uniform(0.1, 2.0))
            w = rng.standard_normal(4)
            sys = LinearSystem(a=a, b=b, epsilon=eps)
            res = functional_bound(sys, w)
            oracle = kkt_interval(a, b, eps, w)
            if res.status is BoundStatus.INFEASIBLE:
                assert oracle is None
                continue
            assert res.status is BoundStatus.FINITE
            scale = max(abs(res.lower), abs(res.upper), 1.0)
            assert abs(res.lower - oracle[0]) <= 1e-6 * scale
            assert abs(res.upper - oracle[1]) <= 1e-6 * scale
            hits += 1
        assert hits >= 20


class TestEntrywiseBounds:
    def test_identity(self):
        sys = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        lohi = [(b.lower, b.upper) for b in entrywise_bounds(sys)]
        assert lohi[0] == pytest.approx((0.5, 1.5))
        assert lohi[1] == pytest.approx((1.5, 2.5))

    def test_mixed_statuses(self):
        sys = LinearSystem(a=np.array([[1.0, 0.0]]), b=[1.0], epsilon=0.1)
        out = entrywise_bounds(sys)
        assert out[0].status is BoundStatus.FINITE
        assert (out[0].lower, out[0].upper) == pytest.approx((0.9, 1.1))
        assert out[1].status is BoundStatus.UNBOUNDED

    def test_consistent_with_single_calls(self, rng):
        a, b, eps = rng.standard_normal((5, 3)), rng.standard_normal(5), 0.7
        sys = LinearSystem(a=a, b=b, epsilon=eps)
        batched = entrywise_bounds(sys)
        for i, bb in enumerate(batched):
            single = functional_bound(sys, e(i, 3))
            assert bb.status is single.status
            if bb.status is BoundStatus.FINITE:
                assert bb.lower == pytest.approx(single.lower, rel=1e-12, abs=1e-12)
                assert bb.upper == pytest.approx(single.upper, rel=1e-12, abs=1e-12)


class TestAdjacentDifference:
    def test_identity_pair(self):
        sys = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        (b,) = adjacent_difference_bounds(sys, [(0, 1)])
        assert b.midpoint == pytest.approx(-1.0)
        assert b.half_width == pytest.approx(0.5 * math.sqrt(2.0))

    def test_same_pair_rejected(self):
        sys = LinearSystem(a=np.eye(2), b=[0.0, 0.0], epsilon=1.0)
        with pytest.raises(SamePair):
            adjacent_difference_bounds(sys, [(1, 1)])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_no_rows_gives_empty_arrays(self, dtype):
        sys = LinearSystem(a=np.eye(3, dtype=dtype), b=[1.0, 2.0, 3.0], epsilon=0.5)
        res = bounds_for(sys, np.zeros((0, 3)))
        assert res.lam == 0.5
        for name in ("status", "lower", "upper", "midpoint", "half_width", "sensitivity"):
            assert getattr(res, name).shape == (0,)
        assert adjacent_difference_bounds(sys, []) == []

    def test_matches_oracle(self, rng):
        a = rng.standard_normal((6, 4))
        b = a @ rng.standard_normal(4) + 0.2 * rng.standard_normal(6)
        sys = LinearSystem(a=a, b=b, epsilon=0.9)
        (res,) = adjacent_difference_bounds(sys, [(0, 2)])
        w = e(0, 4) - e(2, 4)
        lo, hi = kkt_interval(a, b, 0.9, w)
        assert res.lower == pytest.approx(lo, abs=1e-6)
        assert res.upper == pytest.approx(hi, abs=1e-6)


class TestExtremalSolution:
    def test_diagonal_upper(self):
        sys = LinearSystem(a=np.diag([2.0, 1.0]), b=[2.0, 1.0], epsilon=1.0)
        sol = extremal_solution(sys, e(0, 2), Target.UPPER)
        np.testing.assert_allclose(sol.x, [1.5, 1.0], atol=1e-12)
        assert sol.achieved_value == pytest.approx(1.5)
        assert sol.residual_norm == pytest.approx(1.0)

    def test_nullspace_ride(self):
        sys = LinearSystem(a=np.array([[1.0, 0.0]]), b=[1.0], epsilon=0.1)
        sol = extremal_solution(sys, e(1, 2), Target.ARBITRARY, alpha=42.0)
        np.testing.assert_allclose(sol.x, [1.0, 42.0], atol=1e-12)
        assert sol.residual_norm < 1e-12

    def test_membership_and_achievement(self, rng):
        a = rng.standard_normal((6, 4))
        b = a @ rng.standard_normal(4) + 0.3 * rng.standard_normal(6)
        sys = LinearSystem(a=a, b=b, epsilon=0.8)
        bound = functional_bound(sys, e(1, 4))
        sol = extremal_solution(sys, e(1, 4), Target.LOWER)
        assert sol.residual_norm <= sys.epsilon * (1 + 1e-8)
        assert abs(sol.achieved_value - bound.lower) <= 1e-8 * max(abs(bound.lower), 1.0)

    def test_status_mismatch(self):
        sys = LinearSystem(a=np.eye(2), b=[0.0, 0.0], epsilon=1.0)
        with pytest.raises(StatusMismatch):
            extremal_solution(sys, e(0, 2), Target.ARBITRARY, alpha=3.0)
        sys2 = LinearSystem(a=np.array([[1.0, 0.0]]), b=[1.0], epsilon=0.1)
        with pytest.raises(StatusMismatch):
            extremal_solution(sys2, e(1, 2), Target.UPPER)

    def test_infeasible_raises(self):
        sys = LinearSystem(a=np.array([[1.0], [1.0]]), b=[0.0, 2.0], epsilon=1.0)
        with pytest.raises(InfeasibleSystem):
            extremal_solution(sys, e(0, 1), Target.UPPER)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_value_target_rejected(self, alpha):
        sys = LinearSystem(a=np.array([[1.0, 0.0]]), b=[1.0], epsilon=0.1)
        with pytest.raises(NumericalFailure, match="must be finite"):
            extremal_solution(sys, e(1, 2), Target.ARBITRARY, alpha=alpha)


class TestConditionReport:
    def test_identity(self):
        rep = condition_report(np.eye(3))
        assert rep.kappa_global == pytest.approx(1.0)
        np.testing.assert_allclose(rep.kappa_entry, np.ones(3))

    def test_diagonal(self):
        rep = condition_report(np.diag([2.0, 1.0]))
        assert rep.kappa_global == pytest.approx(2.0)
        np.testing.assert_allclose(rep.kappa_entry, [1.0, 2.0])

    def test_dominance(self, rng):
        a = rng.standard_normal((8, 5))
        rep = condition_report(a)
        assert np.all(rep.kappa_entry <= rep.kappa_global * (1 + 1e-10))
        assert np.all(rep.spectral_entry <= 1.0 / rep.sigma_min_pos * (1 + 1e-10))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)], ids=["tall", "wide"])
    def test_rank_zero(self, shape, dtype):
        rep = condition_report(np.zeros(shape, dtype=dtype))
        assert rep.sigma_max == 0.0 and rep.sigma_min_pos == 0.0
        assert rep.kappa_global is None
        size = shape[1] * (2 if dtype is complex else 1)
        np.testing.assert_array_equal(rep.kappa_entry, np.zeros(size))
        np.testing.assert_array_equal(rep.spectral_entry, np.zeros(size))

    def test_rank_deficient_omits_global(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        rep = condition_report(a)
        assert rep.kappa_global is None
        assert rep.kappa_entry.shape == (3,)


class TestGlobalBounds:
    def test_identity(self):
        assert global_bounds(np.eye(2), 0.3) == pytest.approx(0.3)

    def test_diagonal(self):
        assert global_bounds(np.diag([2.0, 1.0]), 1.0) == pytest.approx(1.0)

    def test_matches_svd_oracle(self, rng):
        a = rng.standard_normal((6, 3))
        s = np.linalg.svd(a, compute_uv=False)
        assert global_bounds(a, 1.0) == pytest.approx(1.0 / s[-1], rel=1e-12)

    def test_rank_deficient(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        with pytest.raises(RankDeficient):
            global_bounds(a, 1.0)


class TestEllipsoidVolume:
    def test_unit_disk(self):
        assert ellipsoid_volume(np.eye(2), 1.0) == pytest.approx(math.pi, rel=1e-10)

    def test_diagonal(self):
        assert ellipsoid_volume(np.diag([2.0, 1.0]), 1.0) == pytest.approx(
            math.pi / 2, rel=1e-10
        )

    def test_zero_lambda(self):
        assert ellipsoid_volume(np.eye(3), 0.0) == 0.0

    def test_degenerate_is_infinite(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        assert ellipsoid_volume(a, 1.0) == math.inf


class TestCrlbIdentity:
    def test_identity(self):
        assert crlb_identity_check(np.eye(2), 0) == pytest.approx((1.0, 1.0))

    def test_diagonal(self):
        assert crlb_identity_check(np.diag([2.0, 1.0]), 0) == pytest.approx((0.25, 0.25))

    def test_random(self, rng):
        a = rng.standard_normal((7, 4))
        for i in range(4):
            lhs, rhs = crlb_identity_check(a, i)
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1.0)


class TestEpsilonHeuristic:
    def test_plugin_formula(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        f = svd_truncated(a)
        from entrybounds import residual_projection_norm

        res = residual_projection_norm(f, b)
        assert epsilon_heuristic(f, b) == pytest.approx(math.sqrt(2.0) * res)

    def test_noiseless(self, rng):
        a = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        f = svd_truncated(a)
        assert epsilon_heuristic(f, a @ x) < 1e-10

    def test_requires_overdetermined(self, rng):
        f = svd_truncated(rng.standard_normal((3, 3)))
        with pytest.raises(NotOverdetermined):
            epsilon_heuristic(f, np.zeros(3))


class TestProperties:
    def test_truth_containment(self, rng):
        for _ in range(50):
            a, _, _ = random_system(rng)
            n = a.shape[1]
            x_star = rng.standard_normal(n)
            noise = rng.standard_normal(a.shape[0])
            eps = float(np.linalg.norm(noise) * rng.uniform(1.0, 1.5))
            sys = LinearSystem(a=a, b=a @ x_star + noise, epsilon=eps)
            for i, bb in enumerate(entrywise_bounds(sys)):
                if bb.status is BoundStatus.FINITE:
                    assert bb.lower <= x_star[i] <= bb.upper

    def test_monotone_in_epsilon(self, rng):
        a = rng.standard_normal((5, 3))
        b = a @ rng.standard_normal(3) + 0.1 * rng.standard_normal(5)
        w = rng.standard_normal(3)
        b1 = functional_bound(LinearSystem(a=a, b=b, epsilon=0.5), w)
        b2 = functional_bound(LinearSystem(a=a, b=b, epsilon=1.5), w)
        assert b2.lower <= b1.lower and b1.upper <= b2.upper

    def test_scaling_covariance(self, rng):
        a = rng.standard_normal((5, 3))
        b = a @ rng.standard_normal(3) + 0.1 * rng.standard_normal(5)
        w = rng.standard_normal(3)
        c = 3.7
        b1 = functional_bound(LinearSystem(a=a, b=b, epsilon=0.8), w)
        b2 = functional_bound(LinearSystem(a=a, b=c * b, epsilon=c * 0.8), w)
        assert b2.lower == pytest.approx(c * b1.lower, rel=1e-12)
        assert b2.upper == pytest.approx(c * b1.upper, rel=1e-12)
        assert b2.midpoint == pytest.approx(c * b1.midpoint, rel=1e-12)

    def test_midpoint_and_width_identities(self, rng):
        a = rng.standard_normal((6, 4))
        b = a @ rng.standard_normal(4) + 0.2 * rng.standard_normal(6)
        w = rng.standard_normal(4)
        res = functional_bound(LinearSystem(a=a, b=b, epsilon=1.1), w)
        assert 0.5 * (res.lower + res.upper) == pytest.approx(res.midpoint, rel=1e-10)
        assert res.upper - res.lower == pytest.approx(
            2 * res.sensitivity * res.lam, rel=1e-10
        )

    def test_full_row_rank_specialization(self, rng):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        w = a.T @ rng.standard_normal(3)  # in the row space, finite interval
        res = functional_bound(LinearSystem(a=a, b=b, epsilon=0.6), w)
        assert res.lam == pytest.approx(0.6, rel=1e-10)
        assert res.upper - res.lower == pytest.approx(
            2 * 0.6 * res.sensitivity, rel=1e-10
        )

    def test_square_nonsingular_specialization(self, rng):
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        inv = np.linalg.inv(a)
        res = functional_bound(LinearSystem(a=a, b=b, epsilon=0.5), e(2, 4))
        assert res.midpoint == pytest.approx(float(inv[2] @ b), rel=1e-8)
        assert res.upper - res.lower == pytest.approx(
            2 * 0.5 * np.linalg.norm(inv.T[:, 2]), rel=1e-8
        )

    def test_unbounded_statuses_against_nullspace_probe(self, rng):
        for _ in range(20):
            a, b, eps = random_system(rng)
            n = a.shape[1]
            sys = LinearSystem(a=a, b=b, epsilon=eps)
            for i, bb in enumerate(entrywise_bounds(sys)):
                if bb.status is BoundStatus.INFEASIBLE:
                    continue
                overlap = nullspace_overlap(a, e(i, n))
                if bb.status is BoundStatus.UNBOUNDED:
                    assert overlap > 1e-8
                else:
                    assert overlap < 1e-6


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def complex_system(rng, m, n, r, eps_ratio=2.0):
    """Complex (A, b, eps) of rank r, feasible, and its lifted real system."""
    a = complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)
    b = a @ complex_gaussian(rng, n) + 0.2 * complex_gaussian(rng, m)
    residual = np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b))
    eps = eps_ratio * max(residual, 0.1)
    lifted, b_real = lift_system(a, b)
    return (LinearSystem(a=a, b=b, epsilon=eps),
            LinearSystem(a=lifted.a_real, b=b_real, epsilon=eps))


class TestComplexSystems:
    def test_real_matrix_with_complex_data_is_complex(self):
        sys_ = LinearSystem(a=np.eye(2), b=[1 + 2j, 3 - 1j], epsilon=0.5)
        assert sys_.is_complex
        np.testing.assert_array_equal(sys_.b, [1 + 2j, 3 - 1j])
        res = bounds_for(sys_)
        np.testing.assert_allclose(res.lower, [0.5, 2.5, 1.5, -1.5], atol=1e-15)
        np.testing.assert_allclose(res.upper, [1.5, 3.5, 2.5, -0.5], atol=1e-15)

    def test_complex_weights_need_complex_system(self):
        sys_ = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        with pytest.raises(DimensionMismatch):
            bounds_for(sys_, [[1j, 0.0]])
        with pytest.raises(DimensionMismatch):
            functional_bound(sys_, [1j, 0.0])

    @pytest.mark.parametrize("target", [Target.UPPER, Target.LOWER])
    def test_extremal_matches_lifted(self, rng, target):
        sys_c, sys_r = complex_system(rng, 6, 3, 3)
        w = complex_gaussian(rng, 3)
        w_r = np.concatenate([w.real, w.imag])
        sol = extremal_solution(sys_c, w, target)
        ref = extremal_solution(sys_r, w_r, target)
        np.testing.assert_allclose(lift_vector(sol.x), ref.x, rtol=1e-10, atol=1e-12)
        bound = functional_bound(sys_c, w)
        want = bound.upper if target is Target.UPPER else bound.lower
        assert sol.achieved_value == pytest.approx(want, rel=1e-10)
        assert sol.achieved_value == pytest.approx(ref.achieved_value, rel=1e-10)
        assert sol.residual_norm == pytest.approx(sys_c.epsilon, rel=1e-10)

    def test_extremal_arbitrary_value_matches_lifted(self, rng):
        sys_c, sys_r = complex_system(rng, 4, 3, 2)
        w = complex_gaussian(rng, 3)
        assert functional_bound(sys_c, w).status is BoundStatus.UNBOUNDED
        sol = extremal_solution(sys_c, w, Target.ARBITRARY, alpha=7.0)
        ref = extremal_solution(sys_r, np.concatenate([w.real, w.imag]), Target.ARBITRARY,
                                alpha=7.0)
        assert sol.achieved_value == pytest.approx(7.0, rel=1e-12)
        assert sol.residual_norm <= sys_c.epsilon
        np.testing.assert_allclose(lift_vector(sol.x), ref.x, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 3, 3), (4, 3, 2), (3, 4, 3)])
    def test_condition_report_matches_lifted(self, rng, shape):
        m, n, r = shape
        a = complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)
        rep, ref = condition_report(a), condition_report(lift_matrix(a))
        assert rep.sigma_max == pytest.approx(ref.sigma_max, rel=1e-12)
        assert rep.sigma_min_pos == pytest.approx(ref.sigma_min_pos, rel=1e-10)
        assert (rep.kappa_global is None) == (ref.kappa_global is None)
        np.testing.assert_allclose(rep.kappa_entry, ref.kappa_entry, rtol=1e-10)
        np.testing.assert_allclose(rep.spectral_entry, ref.spectral_entry, rtol=1e-10)

    def test_volume_heuristic_and_crlb_match_lifted(self, rng):
        a = complex_gaussian(rng, 5, 2)
        b = complex_gaussian(rng, 5)
        a_r, b_r = lift_matrix(a), lift_vector(b)
        assert ellipsoid_volume(a, 0.7) == pytest.approx(ellipsoid_volume(a_r, 0.7), rel=1e-10)
        assert ellipsoid_volume(a[:, [0, 0]], 0.7) == math.inf
        assert epsilon_heuristic(svd_truncated(a), b) == pytest.approx(
            epsilon_heuristic(svd_truncated(a_r), b_r), rel=1e-12)
        lhs, rhs = crlb_identity_check(a, 1)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert rhs == pytest.approx(crlb_identity_check(a_r, 1)[1], rel=1e-10)

    def test_one_residual_projection_per_system(self, rng, monkeypatch):
        calls = []
        real = core.residual_projection_norm
        monkeypatch.setattr(core, "residual_projection_norm", lambda *a: calls.append(1) or real(*a))
        sys_c, _ = complex_system(rng, 6, 3, 3)
        bounds_for(sys_c)
        bounds_for(sys_c, [[1.0, -1.0, 0.0]])
        extremal_solution(sys_c, [1.0, 0.0, 0.0], Target.UPPER)
        assert len(calls) == 1
