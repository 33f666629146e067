import dataclasses
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest

from conftest import (
    dense_pinv,
    difference_rows,
    kkt_interval,
    lift_matrix,
    lift_vector,
    nullspace_overlap,
    random_system,
)
from entrybounds import (
    BoundStatus,
    LinearSystem,
    Target,
    adjacent_difference_bounds,
    bounds,
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
    svd_truncated,
)
from entrybounds.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleSystem,
    NotOverdetermined,
    NumericalFailure,
    RankDeficient,
    SamePair,
    StatusMismatch,
    ZeroFunctional,
)


U = np.finfo(float).eps / 2  # unit roundoff


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "a, b, eps",
        [(np.eye(2), [1.0, np.nan], 0.5), (np.eye(2), [np.inf, 2.0], 0.5),
         (np.eye(2), [1.0, 2.0], np.nan), (np.eye(2), [1.0, 2.0], np.inf),
         # M >= 2N, the shape factored from a QR of [A | b]
         ([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0], [0.0, 0.0]], [1.0, 2.0, 0.0, 0.0], 0.5),
         ([[1j, 0.0], [0.0, np.nan], [0.0, 0.0], [0.0, 0.0]], [1.0, 2.0, 0.0, 0.0], 0.5)],
        ids=["nan-data", "inf-data", "nan-epsilon", "inf-epsilon", "inf-matrix-tall",
             "nan-complex-matrix-tall"],
    )
    def test_rejected_with_typed_error(self, a, b, eps):
        if np.isfinite(a).all():  # data and epsilon are checked on construction
            with pytest.raises(NumericalFailure):
                LinearSystem(a=a, b=b, epsilon=eps)
        else:  # the matrix on first use
            sys_ = LinearSystem(a=a, b=b, epsilon=eps)
            with pytest.raises(NumericalFailure, match="NaN or Inf"):
                bounds_for(sys_)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_weights_rejected(self, bad):
        sys_ = LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5)
        with pytest.raises(NumericalFailure, match="finite"):
            bounds_for(sys_, np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(NumericalFailure, match="finite"):
            functional_bound(sys_, [bad, 0.0])
        with pytest.raises(NumericalFailure, match="finite"):
            extremal_solution(sys_, [bad, 1.0], Target.UPPER)


class TestMadeSystem:
    @pytest.mark.parametrize(
        "a, b, rtol, error, message",
        [(3.0, [1.0], 1e-10, DimensionMismatch, "expected a 2-D array, got ndim=0"),
         ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1e-10, DimensionMismatch,
          "expected a 2-D array, got ndim=1"),
         (np.ones((2, 2, 2)), [1.0, 2.0], 1e-10, DimensionMismatch,
          "expected a 2-D array, got ndim=3"),
         *((np.eye(2), [1.0, 2.0], rtol, ValueError,
            f"rank tolerance must be in (0, 1), got {rtol}") for rtol in (np.nan, 0, 1, 2, -1))],
        ids=["0-d", "1-d", "3-d", "rtol-nan", "rtol-0", "rtol-1", "rtol-2", "rtol-negative"],
    )
    def test_shape_and_rank_tolerance_checked_when_made(self, a, b, rtol, error, message):
        with pytest.raises(error) as exc:
            LinearSystem(a=a, b=b, epsilon=1.0, rank_rtol=rtol)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["a", "b", "epsilon", "rank_rtol"])
    def test_fields_cannot_be_assigned(self, name):
        """A made system is frozen: assigning a field, even a value that
        construction would reject, raises and leaves the system as it was."""
        sys_ = LinearSystem(a=np.eye(4, 2), b=np.ones(4), epsilon=1.0)
        before = getattr(sys_, name)
        with pytest.raises(FrozenInstanceError):
            setattr(sys_, name, {"a": np.eye(2), "b": np.ones(5), "epsilon": -1.0,
                                 "rank_rtol": 0.0}[name])
        assert getattr(sys_, name) is before

    SYSTEM = {"a": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "b": [1.0, 2.0, 3.1]}

    @pytest.mark.parametrize(
        "changes, error, message",
        [({"epsilon": -1.0}, ValueError, "epsilon must be nonnegative, got -1.0"),
         ({"b": np.ones(5)}, DimensionMismatch, "data vector has length 5, matrix has 3 rows"),
         ({"b": [1.0, np.nan, 3.0]}, NumericalFailure, "data vector must be finite"),
         ({"rank_rtol": 0.0}, ValueError, "rank tolerance must be in (0, 1), got 0.0")],
        ids=["epsilon-negative", "b-length", "b-nan", "rtol-0"],
    )
    def test_replace_checks_as_construction_does(self, changes, error, message):
        fields = {**self.SYSTEM, "epsilon": 1.0}
        sys_ = LinearSystem(**fields)
        assert sys_.rank == 2  # the factors replace would carry over
        with pytest.raises(error) as made:
            LinearSystem(**{**fields, **changes})
        with pytest.raises(error) as replaced:
            replace(sys_, **changes)
        assert str(made.value) == str(replaced.value) == message

    def test_new_epsilon_shares_the_factors(self, monkeypatch):
        want = entrywise_bounds(LinearSystem(**self.SYSTEM, epsilon=2.0))
        sys_ = LinearSystem(**self.SYSTEM, epsilon=1.0)
        factored = sys_._factored()

        def fail(*args):
            raise AssertionError("the system was factored again")

        monkeypatch.setattr(bounds, "_factor", fail)
        changed = replace(sys_, epsilon=2.0)
        assert changed._factored() is factored
        assert entrywise_bounds(changed) == want


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
        with pytest.raises(NumericalFailure, match="exceeds the float range"):
            extremal_solution(sys_, [1e-300, 1e-300], Target.ARBITRARY, alpha=1e300)


# Data b = s * [1, 2, 0.5] with eps = s on this matrix: lam = sqrt(3) / 2 * s
_TALL = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
_HALF = math.sqrt(0.75)


class TestDataRange:
    """Data and tolerances so tiny or huge that eps^2, the squared residual
    or ||b||^2 leave the float range: the intervals and their endpoints are
    exact all the same (a RuntimeWarning fails the suite)."""

    @pytest.mark.parametrize(
        "a, b, eps, lam, lower, upper",
        [(1e-200 * np.eye(2), [1e-200, 2e-200], 5e-201, 5e-201, [0.5, 1.5], [1.5, 2.5]),
         (1e-200 * _TALL, [1e-200, 2e-200, 5e-201], 1e-200, _HALF * 1e-200,
          [1 - _HALF, 2 - _HALF], [1 + _HALF, 2 + _HALF]),
         (1e200 * _TALL, [1e200, 2e200, 5e199], 1e200, _HALF * 1e200,
          [1 - _HALF, 2 - _HALF], [1 + _HALF, 2 + _HALF]),
         (1e200 * np.eye(2), [1e200, 2e200], 1e200, 1e200, [0.0, 1.0], [2.0, 3.0])],
        ids=["tiny-square", "tiny-tall", "huge-tall", "huge-square"],
    )
    def test_exact_intervals_and_endpoints(self, a, b, eps, lam, lower, upper):
        sys_ = LinearSystem(a=a, b=b, epsilon=eps)
        got = bounds_for(sys_)
        np.testing.assert_array_equal(got.status, [0, 0])
        assert got.lam == pytest.approx(lam, rel=1e-15)
        np.testing.assert_allclose(got.lower, lower, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(got.upper, upper, rtol=1e-15)
        for i in range(2):
            for target, end in ((Target.UPPER, upper[i]), (Target.LOWER, lower[i])):
                sol = extremal_solution(sys_, e(i, 2), target)
                assert sol.achieved_value == pytest.approx(end, rel=1e-15, abs=1e-15)
                assert sol.residual_norm == pytest.approx(eps, rel=1e-15)


class TestSolutionBeyondRange:
    """A^+ b = [1e310, 1e300, ...] leaves the float range, the factors do
    not: what does not read A^+ b is answered without a warning, a dense
    or pair row takes its midpoint from its own product with the factors,
    and only what reads A^+ b or leaves the float range itself raises
    :class:`NumericalFailure`."""

    @pytest.mark.parametrize("m", [2, 5], ids=["square", "tall"])
    def test_only_readers_of_the_solution_fail(self, m):
        b = np.zeros(m)
        b[:2] = [1e10, 1.0]
        sys_ = LinearSystem(a=1e-300 * np.eye(m, 2), b=b, epsilon=1e-290)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sys_.rank == 2
            rep = condition_report(sys_)
            assert rep.kappa_global == 1.0
            np.testing.assert_allclose(rep.spectral_entry, [1e300, 1e300], rtol=1e-15)
            assert global_bounds(sys_, 1e-10) == pytest.approx(1e290, rel=1e-15)
            assert ellipsoid_volume(sys_, 1e-290) == pytest.approx(math.pi * 1e20, rel=1e-12)
            if m > 2:
                assert epsilon_heuristic(sys_) == 0.0
            # x_1 = 1 / fl(1e-300), to 40 digits; the half-width lam / fl(1e-300)
            # is 1e-290 of it, below its last bit
            x1 = float(mpmath.mpf(1) / mpmath.mpf(1e-300))
            got = bounds_for(sys_, [[0.0, 1.0]])
            np.testing.assert_array_equal(got.status, [0])
            tol = 10 * 2 * U
            for v in (got.lower[0], got.midpoint[0], got.upper[0]):
                assert v == pytest.approx(x1, rel=tol)
            with pytest.raises(NumericalFailure):
                bounds_for(sys_)
            with pytest.raises(NumericalFailure):
                sys_.solution()

    @pytest.mark.parametrize("m, path", [(3, "svd"), (7, "triangle")], ids=["svd", "triangle"])
    def test_rows_that_fit_are_bounded(self, m, path):
        """Entries 1 and 2 (near 1e300), their dense rows and their pair
        match 40-digit values within 10 * N * u; only a row that reads
        entry 0 (about 1e310) raises."""
        b = np.zeros(m)
        b[:3] = [1e10, 1.0, 2.0]
        sys_ = LinearSystem(a=1e-300 * np.eye(m, 3), b=b, epsilon=1e-290)
        assert sys_._factored().path == path
        with mpmath.workdps(40):
            inv = 1 / mpmath.mpf(1e-300)  # A^+ = I / fl(1e-300); lam = epsilon
            lam, x = mpmath.mpf(1e-290), [mpmath.mpf(v) * inv for v in b[:3]]
            want = {"entries": [(x[1], inv), (x[2], inv)], "rows": [(x[1], inv), (x[2], inv)],
                    "pair": [(x[1] - x[2], mpmath.sqrt(2) * inv)]}
            want = {k: [(float(mid - lam * s), float(mid), float(mid + lam * s), float(lam * s))
                        for mid, s in v] for k, v in want.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {"entries": entrywise_bounds(sys_, [1, 2]),
                   "rows": bounds_for(sys_, [e(1, 3), e(2, 3)]).entry_bounds(),
                   "pair": adjacent_difference_bounds(sys_, [(1, 2)])}
            for k, bnds in got.items():
                assert [r.status for r in bnds] == [BoundStatus.FINITE] * len(bnds), k
                got[k] = [(r.lower, r.midpoint, r.upper, r.half_width) for r in bnds]
                np.testing.assert_allclose(got[k], want[k], rtol=10 * 3 * U, err_msg=k)
            with pytest.raises(NumericalFailure):
                bounds_for(sys_)
            with pytest.raises(NumericalFailure):
                adjacent_difference_bounds(sys_, [(0, 1)])


def subnormal_system(m):
    """An m x 2 system with sigma = [2e-310, 1e-310] < 2**-1024 on top."""
    a, b = np.zeros((m, 2)), np.zeros(m)
    a[:2] = np.diag([1e-310, 2e-310])
    b[0] = 1e-310
    return LinearSystem(a=a, b=b, epsilon=1e-300)


class TestSubnormalSigma:
    """With sigma_1 < 2**-1024 the factors' unit 2**-es leaves the float
    range: the triangle path (4 x 2) fails to factor, the SVD path (3 x 2,
    2 x 2) fails where it applies A^+, both with :class:`NumericalFailure`."""

    @pytest.mark.parametrize("m", [4, 3, 2])
    def test_typed_error(self, m):
        sys_ = subnormal_system(m)
        for call in (lambda: bounds_for(sys_), sys_.solution, lambda: condition_report(sys_.a)):
            with pytest.raises(NumericalFailure):
                call()
        with pytest.raises(NumericalFailure, match=r"2\*\*-1024"):
            bounds_for(subnormal_system(m), [[1.0, 0.0]])


# A = [I; I] factors from its QR triangle, the 3 x 2 matrix from its SVD
_STACKED = np.vstack([np.eye(2), np.eye(2)])
_SKEW = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestDataBeyondRange:
    """Data whose norm, or whose part in or outside the range of A, exceeds
    the float range is refused when the factors are made, by every call
    that factors, and data that only the QR's reflections take past it is
    answered; no numpy warning is emitted on the way."""

    @pytest.mark.parametrize("a", [_STACKED, _SKEW], ids=["triangle", "svd"])
    def test_every_reader_raises(self, a):
        sys_ = LinearSystem(a=a, b=np.full(a.shape[0], 1.5e308), epsilon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (sys_.residual, lambda: sys_.rank, sys_.solution,
                         lambda: epsilon_heuristic(sys_), lambda: entrywise_bounds(sys_)):
                with pytest.raises(NumericalFailure):
                    call()

    def test_reflected_data_beyond_range(self):
        """||b|| = 1.7e308 fits, but the reflections of the QR take b past
        the largest double: the SVD of A answers, as for a triangle that
        overflows in A's columns."""
        b = np.full(4, 0.85e308)
        sys_ = LinearSystem(a=_STACKED, b=b, epsilon=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sys_.solution()
            assert sys_._factored().path == "svd"
            assert sys_.residual() <= 1e-15 * 1.7e308  # ||b||, to rounding
        np.testing.assert_allclose(x, dense_pinv(_STACKED) @ b, rtol=1e-15)

    def test_unbounded_row_midpoint_may_be_undefined(self):
        """On a complex system the midpoint product of an unbounded row can
        reach inf - inf: the row reads UNBOUNDED, as does an unbounded
        pair, while a bounded row with such a midpoint raises."""
        sys_ = LinearSystem(a=np.diag([1.0, 0.5, 0.0]).astype(complex), b=[1e308, 1e308j, 0.0],
                            epsilon=1.0)
        # only x_0 + x_2 is determined, so x_0 - x_1 is unbounded
        a = np.array([[1.0, 0.0, 1.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
        pair = LinearSystem(a=a, b=[6e307 + 6e307j, 6e307 - 6e307j, 0.0], epsilon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(bounds_for(sys_, [[1.0, 1.0, 1.0]]).status, [1])
            (diff,) = adjacent_difference_bounds(pair, [(0, 1)])
            assert diff.status is BoundStatus.UNBOUNDED
            with pytest.raises(NumericalFailure, match="bounds must be finite"):
                bounds_for(sys_, [[1.0, 1.0, 0.0]])


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

    @pytest.mark.parametrize("dtype, bad", [(float, -1), (float, 3), (complex, -1),
                                            (complex, 6), (float, 2**63), (float, 2**64)],
                             ids=["real-negative", "real-N", "complex-negative", "complex-2N",
                                  "past-int64", "past-uint64"])
    def test_entry_out_of_range_rejected(self, rng, dtype, bad):
        """An entry outside [0, rows) raises, where rows is N on a real
        system and 2N on a complex one; a negative number does not wrap,
        and one past the int64 range is named as given."""
        a = rng.standard_normal((6, 3)).astype(dtype)
        sys = LinearSystem(a=a, b=a @ np.ones(3), epsilon=0.5)
        with pytest.raises(IndexOutOfRange, match=f"entry index {bad} out of range"):
            entrywise_bounds(sys, [0, bad])
        last = 2 * 3 - 1 if dtype is complex else 2
        (b,) = entrywise_bounds(sys, [last])
        assert b.index == last and b == entrywise_bounds(sys)[last]

    @pytest.mark.parametrize("bad", [1.7, True], ids=["float", "bool"])
    def test_non_integer_entry_rejected(self, bad):
        """An index is an integer: a float or a boolean is not truncated to one."""
        sys = LinearSystem(a=np.eye(3), b=[1.0, 2.0, 3.0], epsilon=0.1)
        with pytest.raises(IndexOutOfRange, match="an index must be an integer"):
            entrywise_bounds(sys, [bad])
        assert entrywise_bounds(sys, []) == []

    @pytest.mark.parametrize("bad, shape", [([[0, 1]], "(1, 2)"), (1, "()")], ids=["2-D", "0-D"])
    def test_entries_of_another_shape_rejected(self, bad, shape):
        """Entries are a 1-D sequence: a nested list or a bare integer raises."""
        sys = LinearSystem(a=np.eye(3), b=[1.0, 2.0, 3.0], epsilon=0.1)
        with pytest.raises(IndexOutOfRange) as exc:
            entrywise_bounds(sys, bad)
        assert str(exc.value) == f"expected an index of shape (k), got {shape}"

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

    @pytest.mark.parametrize(
        "pairs, error, message",
        [([(0, 1), (2, 2), (5, 1)], SamePair, "difference pair has identical indices (2, 2)"),
         ([(0, 1), (4, 4), (1, 1)], IndexOutOfRange, "pair (4, 4) out of range for N=4"),
         ([(-1, 2), (3, 3)], IndexOutOfRange, "pair (-1, 2) out of range for N=4"),
         ([(1, 1), (0, 9)], SamePair, "difference pair has identical indices (1, 1)"),
         (np.array([[0, 1], [3, 2], [2, 7], [0, 0]]), IndexOutOfRange,
          "pair (2, 7) out of range for N=4"),
         ([(0, 1), (0, 2**63)], IndexOutOfRange,
          "pair (0, 9223372036854775808) out of range for N=4")],
        ids=["same-first", "range-before-same", "negative", "same-before-range", "array",
             "past-int64"],
    )
    def test_first_bad_pair_rejected(self, pairs, error, message):
        """The kernel checks all pairs at once, and names the pair that the
        dense oracle, one pair at a time, stops at."""
        sys = LinearSystem(a=np.eye(4), b=[1.0, 2.0, 3.0, 4.0], epsilon=0.1)
        for call in (lambda: adjacent_difference_bounds(sys, pairs),
                     lambda: difference_rows(4, pairs)):
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("call", [
        lambda: adjacent_difference_bounds(LinearSystem(a=np.eye(3), b=[1.0, 2.0, 3.0],
                                                        epsilon=0.1), [(0.5, 1)]),
    ], ids=["adjacent_difference_bounds"])
    def test_non_integer_pair_rejected(self, call):
        """A pair's indices are integers: 0.5 is not truncated to 0."""
        with pytest.raises(IndexOutOfRange, match="an index must be an integer, got 0.5"):
            call()

    @pytest.mark.parametrize("call, shape", [
        (lambda sys: adjacent_difference_bounds(sys, [(0, 1, 2)]), "(1, 3)"),
        (lambda sys: adjacent_difference_bounds(sys, [0, 1]), "(2,)"),
        (lambda sys: adjacent_difference_bounds(sys, [[(0, 1)]]), "(1, 1, 2)"),
        (lambda sys: adjacent_difference_bounds(sys, [(0, 1), (2,)]), "a ragged sequence"),
    ], ids=["triple", "flat", "nested", "ragged"])
    def test_pairs_of_another_shape_rejected(self, call, shape):
        """Pairs are a k x 2 array: no other shape is reshaped or flattened into one."""
        sys = LinearSystem(a=np.eye(3), b=[1.0, 2.0, 3.0], epsilon=0.1)
        with pytest.raises(IndexOutOfRange) as exc:
            call(sys)
        assert str(exc.value) == f"expected an index of shape (k x 2), got {shape}"

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

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("target, i", [(Target.LOWER, 1), (Target.UPPER, 1),
                                           (Target.ARBITRARY, 0)],
                             ids=["lower", "upper", "value"])
    def test_bound_is_functional_bound(self, rng, dtype, target, i):
        a = rng.standard_normal((6, 3)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((6, 3))
        a = np.column_stack([a, a[:, 0]])  # x_0 - x_3 spans the nullspace
        b = a @ rng.standard_normal(4) + 0.3 * rng.standard_normal(6)
        sys = LinearSystem(a=a, b=b, epsilon=0.8)
        w = e(i, 4) + 0.5 * e(2, 4)
        want = functional_bound(sys, w)
        assert want.status is (BoundStatus.UNBOUNDED if i == 0 else BoundStatus.FINITE)
        assert extremal_solution(sys, w, target, alpha=3.0).bound == want

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    def test_huge_and_tiny_matrix(self, scale):
        rep = condition_report(scale * np.eye(2))
        np.testing.assert_allclose(rep.spectral_entry, [1 / scale] * 2, rtol=1e-15)
        np.testing.assert_allclose(rep.kappa_entry, [1.0, 1.0], rtol=1e-15)
        sys_ = LinearSystem(a=scale * np.eye(2), b=np.zeros(2), epsilon=1.0)
        got = bounds_for(sys_, [[1.0, 0.0]]).sensitivity[0]
        assert got == pytest.approx(1 / scale, rel=1e-15)

    @pytest.mark.parametrize(
        "case", ["unbounded-row", "finite-row", "condition-report", "pinv-transpose-norm"]
    )
    def test_overflowing_sensitivity(self, case):
        """A sensitivity beyond the float range raises NumericalFailure, except
        on an unbounded row, which stays unbounded (a RuntimeWarning fails the
        suite)."""
        sys_ = LinearSystem(a=1e-300 * np.diag([1.0, 1e-9, 0.0]), b=np.zeros(3), epsilon=1.0)
        if case == "unbounded-row":
            got = bounds_for(sys_, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
            np.testing.assert_array_equal(got.status, [1, 0])
            assert got.lower[1] == pytest.approx(-1e300, rel=1e-15)
            assert got.upper[1] == pytest.approx(1e300, rel=1e-15)
            return
        overflowing = {
            "finite-row": lambda: bounds_for(sys_, [[0.0, 1.0, 0.0]]),
            "condition-report": lambda: condition_report(1e-300 * np.diag([1.0, 1e-9])),
            "pinv-transpose-norm": lambda: bounds_for(
                LinearSystem(a=1e-300 * np.eye(2), b=np.zeros(2), epsilon=1.0), [[1e20, 0.0]]),
        }
        with pytest.raises(NumericalFailure):
            overflowing[case]()

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

    @pytest.mark.parametrize(
        "a, n_norm, error",
        [(np.eye(2), -1.0, ValueError), (np.eye(2), math.nan, NumericalFailure),
         (np.eye(2), math.inf, NumericalFailure), (1e-300 * np.eye(2), 1e10, NumericalFailure)],
        ids=["negative", "nan", "inf", "overflowing-bound"],
    )
    def test_bad_norm_or_bound_rejected(self, a, n_norm, error):
        with pytest.raises(error):
            global_bounds(a, n_norm)


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

    @pytest.mark.parametrize(
        "a, lam, error",
        [(np.eye(2), -1.0, ValueError), (np.eye(2), math.nan, NumericalFailure),
         (np.eye(2), math.inf, NumericalFailure), (1e-300 * np.eye(3), 1.0, NumericalFailure),
         (1e-3 * np.eye(400), 1.0, NumericalFailure), (np.eye(2), 1e-200, NumericalFailure),
         (1e3 * np.eye(400), 1.0, NumericalFailure)],
        ids=["negative", "nan", "inf", "tiny-matrix", "many-dimensions", "tiny-lambda",
             "many-dimensions-underflow"],
    )
    def test_bad_lambda_or_volume_rejected(self, a, lam, error):
        with pytest.raises(error):
            ellipsoid_volume(a, lam)


class TestCrlbIdentity:
    def test_identity(self):
        assert crlb_identity_check(np.eye(2), 0) == pytest.approx((1.0, 1.0))

    def test_diagonal(self):
        assert crlb_identity_check(np.diag([2.0, 1.0]), 0) == pytest.approx((0.25, 0.25))

    @pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
    def test_non_integer_index_rejected(self, bad):
        with pytest.raises(IndexOutOfRange, match="an index must be an integer"):
            crlb_identity_check(np.eye(3), bad)

    def test_index_of_another_shape_rejected(self):
        """The index is one integer, not a sequence of one."""
        with pytest.raises(IndexOutOfRange) as exc:
            crlb_identity_check(np.eye(3), [1])
        assert str(exc.value) == "expected an index of shape (), got (1,)"

    @pytest.mark.parametrize(
        "a, error",
        [([1.0, 2.0], DimensionMismatch), (2.0, DimensionMismatch),
         (np.ones((2, 2, 2)), DimensionMismatch), ([[1.0, np.nan], [0.0, 1.0]], NumericalFailure),
         ([[1.0, np.inf], [0.0, 1.0]], NumericalFailure)],
        ids=["1-d", "0-d", "3-d", "nan", "inf"],
    )
    def test_bad_matrix_rejected_before_the_gram_pseudoinverse(self, monkeypatch, a, error):
        def not_called(*args, **kwargs):
            raise AssertionError("the Gram pseudoinverse of an unchecked matrix")

        monkeypatch.setattr(np.linalg, "pinv", not_called)
        with pytest.raises(error):
            crlb_identity_check(a, 0)

    def test_random(self, rng):
        a = rng.standard_normal((7, 4))
        for i in range(4):
            lhs, rhs = crlb_identity_check(a, i)
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1.0)

    @pytest.mark.parametrize("k", [500, 600, -500])
    def test_both_sides_scale_with_the_matrix(self, k):
        """At A * 2**k both sides are 2/3 * 2**-2k, without a warning where
        A^H A would leave the float range: at k = 600 that is below the
        smallest double, and both read 0.0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lhs, rhs = crlb_identity_check(_SKEW * 2.0**k, 0)
        for side in (lhs, rhs):
            assert math.isclose(side, math.ldexp(2 / 3, -2 * k), rel_tol=1e-12, abs_tol=0.0)
        assert (lhs == 0.0) == (k == 600)

    def test_beyond_float_range_rejected(self):
        """At A * 2**-1022 the value 2/3 * 2**2044 exceeds the largest double."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"e_0\^T \(A\^H A\)\^\+ e_0 exceeds"):
                crlb_identity_check(_SKEW * 2.0**-1022, 0)


class TestEpsilonHeuristic:
    def test_plugin_formula(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        res = np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b))
        assert epsilon_heuristic(LinearSystem(a=a, b=b, epsilon=0.0)) == pytest.approx(
            math.sqrt(2.0) * res)

    def test_noiseless(self, rng):
        a = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        assert epsilon_heuristic(LinearSystem(a=a, b=a @ x, epsilon=0.0)) < 1e-10

    def test_requires_overdetermined(self, rng):
        a = rng.standard_normal((3, 3))
        with pytest.raises(NotOverdetermined):
            epsilon_heuristic(LinearSystem(a=a, b=np.zeros(3), epsilon=0.0))

    def test_vector_matrix_rejected(self):
        with pytest.raises(DimensionMismatch, match="expected a 2-D array, got ndim=1"):
            epsilon_heuristic(LinearSystem(a=[1.0, 2.0, 3.0], b=[1.0, 2.0, 3.0], epsilon=1.0))

    def test_beyond_float_range_rejected(self):
        """The residual 1.5e308 fits; sqrt(3) times it does not."""
        sys_ = LinearSystem(a=_TALL, b=[0.0, 0.0, 1.5e308], epsilon=0.0)
        assert sys_.residual() == 1.5e308
        with pytest.raises(NumericalFailure, match="the heuristic epsilon exceeds the float range"):
            epsilon_heuristic(sys_)


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
    return (LinearSystem(a=a, b=b, epsilon=eps),
            LinearSystem(a=lift_matrix(a), b=lift_vector(b), epsilon=eps))


class TestCachedFactors:
    # A = [diag(1, 1e-6); 0] (M = 2N) and b = [1, 2, 0, 0]: A^+ b = [1, 2e6], residual 0
    @pytest.mark.parametrize(
        "change, solution, residual",
        [(lambda s: replace(s, b=[5.0, 5.0, 3.0, 4.0]), [5.0, 5e6], 5.0),
         (lambda s: replace(s, a=np.eye(4, 2)), [1.0, 2.0], 0.0),
         (lambda s: replace(s, rank_rtol=1e-3), [1.0, 0.0], 2.0)],
        ids=["b", "a", "rank_rtol"],
    )
    def test_changed_system_is_factored_again(self, change, solution, residual):
        sys_ = LinearSystem(a=np.diag([1.0, 1e-6, 0.0, 0.0])[:, :2], b=[1.0, 2.0, 0.0, 0.0],
                            epsilon=10.0)
        np.testing.assert_allclose(sys_.solution(), [1.0, 2e6], rtol=1e-9)
        assert sys_.residual() == pytest.approx(0.0, abs=1e-9)
        changed = change(sys_)
        np.testing.assert_allclose(changed.solution(), solution, rtol=1e-9, atol=1e-9)
        assert changed.residual() == pytest.approx(residual, rel=1e-12, abs=1e-9)

    def test_equality_is_identity(self):
        sys_, twin = (LinearSystem(a=np.eye(2), b=[1.0, 2.0], epsilon=0.5) for _ in range(2))
        assert sys_ == sys_
        assert sys_ != twin

    @pytest.mark.parametrize("rtol, rank", [(core.DEFAULT_RANK_RTOL, 2), (1e-3, 1)])
    def test_spectral_helpers_use_the_cached_factors(self, monkeypatch, rtol, rank):
        sys_ = LinearSystem(a=np.diag([1.0, 1e-6, 0.0, 0.0])[:, :2], b=[1.0, 2.0, 0.0, 0.0],
                            epsilon=10.0, rank_rtol=rtol)
        assert sys_.rank == rank

        def no_factoring(*args):
            raise AssertionError("the system was factored again")

        monkeypatch.setattr(bounds, "svd_truncated", no_factoring)
        rep = condition_report(sys_)
        if rank == 2:
            assert rep.kappa_global == pytest.approx(1e6, rel=1e-9)
            np.testing.assert_allclose(rep.spectral_entry, [1.0, 1e6], rtol=1e-9)
            assert global_bounds(sys_, 1.0) == pytest.approx(1e6, rel=1e-9)
            assert ellipsoid_volume(sys_, 1.0) == pytest.approx(math.pi * 1e6, rel=1e-9)
        else:
            assert rep.kappa_global is None
            np.testing.assert_array_equal(rep.spectral_entry, [1.0, 0.0])
            with pytest.raises(RankDeficient):
                global_bounds(sys_, 1.0)
            assert ellipsoid_volume(sys_, 1.0) == math.inf


    @pytest.mark.parametrize("ratio, rank", [(2.0, 3), (0.5, 2)], ids=["above", "below"])
    def test_tall_rank_threshold(self, rng, ratio, rank):
        # sigma_3 on either side of rank_rtol * sigma_1, for M >= 2N
        rtol = 1e-6
        q = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a = q @ np.diag([1.0, 0.5, ratio * rtol]) @ v.T
        sys_ = LinearSystem(a=a, b=rng.standard_normal(8), epsilon=10.0, rank_rtol=rtol)
        assert sys_.rank == rank
        rep = condition_report(sys_)
        res = bounds_for(sys_)
        ref = svd_truncated(a, rtol)
        np.testing.assert_allclose(sys_.solution(), ref.v @ (ref.u.T @ sys_.b / ref.sigma),
                                   rtol=1e-8)
        if rank == 3:
            assert rep.kappa_global == pytest.approx(0.5 / rtol, rel=1e-9)
            np.testing.assert_array_equal(res.status, [0, 0, 0])
            assert epsilon_heuristic(sys_) > 0.0
        else:
            assert rep.kappa_global is None
            np.testing.assert_array_equal(res.status, [1, 1, 1])
            with pytest.raises(NotOverdetermined):
                epsilon_heuristic(sys_)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_tall_rank_deficient_takes_one_svd(self, rng, dtype, monkeypatch):
        # duplicated columns put a zero on the diagonal of R, which fails the
        # rank rule without the triangle's singular values: the one SVD is
        # svd_truncated(R)
        calls = []
        for mod, name in ((bounds, "_factor"), (np.linalg, "qr"), (np.linalg, "svd"),
                          (bounds, "svd_truncated")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real, **k: calls.append(_n)
                                or _f(*a, **k))
        a = rng.standard_normal((60, 12)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((60, 12))
        a[:, 10:] = a[:, :2]
        sys_ = LinearSystem(a=a, b=rng.standard_normal(60), epsilon=10.0)
        res = bounds_for(sys_)
        assert calls == ["_factor", "qr", "svd_truncated", "svd"]
        assert sys_.rank == 10
        np.testing.assert_array_equal(res.status[:12] == 1, np.isin(np.arange(12), [0, 1, 10, 11]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_triangle_factors_match_svd(self, rng, dtype):
        # a full-rank system with M >= 2N is bounded without the SVD
        # vectors of its triangle; its singular values are those of A
        a = rng.standard_normal((12, 4)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((12, 4))
        sys_ = LinearSystem(a=a, b=rng.standard_normal(12), epsilon=1.0)
        ref = svd_truncated(a)
        assert sys_.rank == ref.rank == 4
        rep = condition_report(sys_)
        assert rep.sigma_max == pytest.approx(ref.sigma[0], rel=1e-12)
        assert rep.sigma_min_pos == pytest.approx(ref.sigma[-1], rel=1e-12)
        # the volume is a function of the product of all singular values
        want = ellipsoid_volume(np.diag(ref.sigma).astype(dtype), 0.7)
        assert ellipsoid_volume(sys_, 0.7) == pytest.approx(want, rel=1e-12)


class TestComplexSystems:
    def test_real_matrix_with_complex_data_is_complex(self):
        sys_ = LinearSystem(a=np.eye(2), b=[1 + 2j, 3 - 1j], epsilon=0.5)
        assert sys_.is_complex
        np.testing.assert_array_equal(sys_.b, [1 + 2j, 3 - 1j])
        res = bounds_for(sys_)
        np.testing.assert_allclose(res.lower, [0.5, 2.5, 1.5, -1.5], atol=1e-15)
        np.testing.assert_allclose(res.upper, [1.5, 3.5, 2.5, -0.5], atol=1e-15)

    @pytest.mark.parametrize("m, n", [(9, 3), (2, 1)])
    def test_real_matrix_with_complex_data_is_the_complex_cast(self, rng, m, n):
        """A real A with complex b is the system of A cast to complex, bit
        for bit: its intervals, its 2N entrywise condition numbers and the
        volume of its complex unknown's set."""
        a = rng.standard_normal((m, n))
        b = complex_gaussian(rng, m)
        eps = 2.0 * max(np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b)), 0.1)
        sys_ = LinearSystem(a=a, b=b, epsilon=eps)
        cast = LinearSystem(a=a.astype(complex), b=b, epsilon=eps)
        assert sys_.a.dtype == complex
        res, want = bounds_for(sys_), bounds_for(cast)
        for name in ("status", "lower", "upper", "midpoint", "half_width", "sensitivity"):
            np.testing.assert_array_equal(getattr(res, name), getattr(want, name), err_msg=name)
        assert res.lam == want.lam
        report, want = condition_report(sys_), condition_report(cast)
        assert report.kappa_entry.size == 2 * n
        np.testing.assert_array_equal(report.spectral_entry, want.spectral_entry)
        assert (report.sigma_max, report.sigma_min_pos, report.kappa_global) == (
            want.sigma_max, want.sigma_min_pos, want.kappa_global)
        assert ellipsoid_volume(sys_, 0.7) == ellipsoid_volume(cast, 0.7)
        a_real, b_real = lift_matrix(a), lift_vector(b)
        assert ellipsoid_volume(sys_, 0.7) == pytest.approx(ellipsoid_volume(a_real, 0.7),
                                                            rel=1e-12)
        ref = bounds_for(LinearSystem(a=a_real, b=b_real, epsilon=eps))
        np.testing.assert_array_equal(res.status, ref.status)
        for name in ("lower", "upper", "midpoint", "half_width", "sensitivity"):
            np.testing.assert_allclose(getattr(res, name), getattr(ref, name), rtol=1e-10,
                                       atol=1e-12, err_msg=name)
        assert res.lam == pytest.approx(ref.lam, rel=1e-10)

    def test_real_identity_with_complex_data_measures_the_complex_unknown(self):
        # x in C^2 with |x - (1j, 0)| <= 1 is a 4-D unit ball: pi^2 / 2, not the disc's pi
        sys_ = LinearSystem(a=np.eye(2), b=[1j, 0], epsilon=1.0)
        assert ellipsoid_volume(sys_, 1.0) == pytest.approx(math.pi**2 / 2, rel=1e-15)

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
        assert epsilon_heuristic(LinearSystem(a=a, b=b, epsilon=0.0)) == pytest.approx(
            epsilon_heuristic(LinearSystem(a=a_r, b=b_r, epsilon=0.0)), rel=1e-12)
        lhs, rhs = crlb_identity_check(a, 1)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert rhs == pytest.approx(crlb_identity_check(a_r, 1)[1], rel=1e-10)

    def test_one_residual_projection_per_system(self, rng, monkeypatch):
        # a full-rank system with M = 2N: its residual projection is the one
        # QR of [A | b]; the triangle's singular values and inverse follow,
        # and its singular vectors (svd_truncated) are never computed
        calls = []
        for mod, name in ((bounds, "_factor"), (np.linalg, "qr"), (np.linalg, "svd"),
                          (np.linalg, "inv"), (bounds, "svd_truncated")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real, **k: calls.append(_n)
                                or _f(*a, **k))
        sys_c, _ = complex_system(rng, 6, 3, 3)
        bounds_for(sys_c)
        bounds_for(sys_c, [[1.0, -1.0, 0.0]])
        extremal_solution(sys_c, [1.0, 0.0, 0.0], Target.UPPER)
        assert calls == ["_factor", "qr", "svd", "inv"]


# A = [[1, 0], [0, 1], [1, 1]] with b = [1, 2, 3.1]: a full-rank system
# whose residual projection is 0.1 / sqrt(3).
SMALL_A, SMALL_B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.1]


class TestIntervalColumns:
    def test_value_fields_are_the_columns_in_order(self):
        """EntryBound and BoundArrays declare the value columns in the order
        of _COLUMNS, between ``status`` and ``lam``, which entry_bounds's
        positional constructor and the records rely on."""
        for cls in (bounds.EntryBound, bounds.BoundArrays):
            names = [f.name for f in dataclasses.fields(cls)]
            assert names[0] == "status" and names[len(bounds._COLUMNS) + 1] == "lam"
            assert tuple(names[1:len(bounds._COLUMNS) + 1]) == bounds._COLUMNS

    @pytest.mark.parametrize("eps", [0.5, 0.01], ids=["finite", "infeasible"])
    def test_records_list_index_status_and_columns(self, eps):
        arrays = bounds_for(LinearSystem(SMALL_A, SMALL_B, eps))
        records = [r.to_record() for r in arrays.entry_bounds()]
        for k, record in enumerate(records):
            assert list(record) == ["index", "status", *bounds._COLUMNS]
            assert record["index"] == k
            for c in bounds._COLUMNS:
                value = getattr(arrays, c)[k]
                assert record[c] == (None if math.isnan(value) else value)
        assert [r["status"] for r in records] == ["finite" if eps == 0.5 else "infeasible"] * 2


class TestRarelyTakenPaths:
    """Branches of the kernel that the rest of the suite does not reach."""

    def test_values_only_svd_failure_is_numerical(self, monkeypatch):
        """A tall full-rank system takes the singular values of its QR
        triangle; a LinAlgError there becomes NumericalFailure."""
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "svd", fails)
        sys_ = LinearSystem(np.vstack([np.eye(2), np.eye(2)]), [1.0, 2.0, 1.0, 2.0], 0.5)
        with pytest.raises(NumericalFailure, match="SVD did not converge: no convergence"):
            sys_.rank

    def test_two_dimensional_data_is_flattened(self):
        sys_ = LinearSystem(SMALL_A, np.reshape(SMALL_B, (3, 1)), 0.5)
        assert sys_.b.shape == (3,)
        want = bounds_for(LinearSystem(SMALL_A, SMALL_B, 0.5))
        got = bounds_for(sys_)
        for c in ("status", *bounds._COLUMNS):
            np.testing.assert_array_equal(getattr(got, c), getattr(want, c))

    def test_epsilon_just_below_the_residual_is_clamped(self):
        """Within LAMBDA_CLAMP_RTOL of eps^2 below the squared residual,
        lambda is clamped to 0 and every row is a point; further below,
        the set is empty."""
        sys_ = LinearSystem(SMALL_A, SMALL_B, 0.5)
        r = sys_.residual()
        clamped = entrywise_bounds(replace(sys_, epsilon=r * (1 - 1e-13)))
        assert [b.status for b in clamped] == [BoundStatus.FINITE] * 2
        assert [(b.half_width, b.lam) for b in clamped] == [(0.0, 0.0)] * 2
        empty = entrywise_bounds(replace(sys_, epsilon=r * (1 - 1e-11)))
        assert [b.status for b in empty] == [BoundStatus.INFEASIBLE] * 2

    def test_weight_matrix_of_another_width_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"weight matrix has shape \(1, 3\), "
                                                    "matrix has 2 columns"):
            bounds_for(LinearSystem(SMALL_A, SMALL_B, 0.5), np.ones((1, 3)))

    def test_weight_row_too_wide_in_magnitude_rejected(self):
        """Scaling [1e300, 1e-300] by 2**-997 would lose its small entry."""
        with pytest.raises(NumericalFailure, match="spans too many magnitudes"):
            bounds_for(LinearSystem(SMALL_A, SMALL_B, 0.5), [[1e300, 1e-300]])

    def test_arbitrary_target_needs_a_value(self):
        sys_ = LinearSystem(np.array([[1.0, 0.0]]), [1.0], 0.1)
        with pytest.raises(ValueError, match="arbitrary target requires a value"):
            extremal_solution(sys_, e(1, 2), Target.ARBITRARY)

    def test_crlb_index_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange, match="index 5 out of range for N=2"):
            crlb_identity_check(np.array(SMALL_A), 5)

    def test_crlb_index_past_uint64_named_as_given(self):
        with pytest.raises(IndexOutOfRange,
                           match="index 18446744073709551616 out of range for N=2"):
            crlb_identity_check(np.array(SMALL_A), 2**64)
