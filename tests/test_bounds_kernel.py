"""Differential property test of the interval kernel ``bounds_for``.

Random systems cover tall, square and wide shapes and every rank from 0 to
min(M, N).  Weight rows mix random dense rows (unbounded whenever A has a
nullspace), rows drawn from the row space of A (always finite) and +/-1
difference rows.  Intervals are checked against the Lagrangian bisection
oracle and statuses against scipy's null_space, both from conftest.

Complex systems are checked against the same kernel on their lifted real
form (``lifting.lift_system``) and against the oracles on that form.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import kkt_interval, nullspace_overlap
from entrybounds import (
    LinearSystem,
    adjacent_difference_bounds,
    bounds_for,
    entrywise_bounds,
    functional_bound,
    lift_system,
)
from entrybounds.bounds import BOUND_STATUSES, difference_rows

FINITE, UNBOUNDED, INFEASIBLE = range(3)


@st.composite
def problems(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    b = a @ rng.standard_normal(n) + draw(st.sampled_from([0.0, 0.05, 0.5])) * rng.standard_normal(m)
    residual = float(np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b)))
    # keep epsilon clear of the feasibility boundary, where the two
    # feasibility tests may round differently
    ratio = draw(st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 3.0)))
    eps = ratio * residual if residual > 1e-8 else ratio
    pairs = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=3))
    rows = [
        rng.standard_normal((draw(st.integers(0, 3)), n)),
        rng.standard_normal((draw(st.integers(0, 3)) if rank else 0, m)) @ a,
        difference_rows(n, pairs),
    ]
    w = np.vstack(rows)
    if w.shape[0] == 0:
        w = np.ones((1, n))
    return a, b, eps, w, pairs


def assert_same(got, want):
    for name in ("status", "lower", "upper", "midpoint", "half_width", "sensitivity"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.lam == want.lam


def record_arrays(records):
    """Struct-of-arrays view of EntryBound records (None -> NaN)."""
    status = np.array([BOUND_STATUSES.index(r.status) for r in records], dtype=int)
    fields = {
        name: np.array([np.nan if getattr(r, name) is None else getattr(r, name) for r in records],
                       dtype=float)
        for name in ("lower", "upper", "midpoint", "half_width", "sensitivity")
    }
    return status, fields


def assert_records_match(records, arrays):
    status, fields = record_arrays(records)
    np.testing.assert_array_equal(status, arrays.status)
    for name, values in fields.items():
        np.testing.assert_array_equal(values, getattr(arrays, name), err_msg=name)
    assert all(r.lam == (arrays.lam if s != INFEASIBLE else None) for r, s in zip(records, status))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(problems())
def test_kernel_matches_oracles(problem):
    a, b, eps, w, _ = problem
    res = bounds_for(LinearSystem(a=a, b=b, epsilon=eps), w)
    assert res.status.shape == (w.shape[0],)
    if kkt_interval(a, b, eps, w[0]) is None:
        assert np.all(res.status == INFEASIBLE) and res.lam is None
        return
    for k, row in enumerate(w):
        overlap = nullspace_overlap(a, row) / np.linalg.norm(row)
        if res.status[k] == UNBOUNDED:
            assert overlap > 1e-8
            assert np.isnan(res.lower[k]) and np.isnan(res.upper[k])
            continue
        assert res.status[k] == FINITE and overlap < 1e-6
        lo, hi = kkt_interval(a, b, eps, row)
        scale = max(abs(lo), abs(hi), 1.0)
        assert abs(res.lower[k] - lo) <= 1e-6 * scale
        assert abs(res.upper[k] - hi) <= 1e-6 * scale
        assert res.half_width[k] == res.sensitivity[k] * res.lam


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(problems())
def test_wrappers_equal_kernel(problem):
    a, b, eps, w, pairs = problem
    sys_ = LinearSystem(a=a, b=b, epsilon=eps)
    n = a.shape[1]
    # unit rows are exact in floating point: the identity path equals a dense identity
    assert_same(bounds_for(sys_), bounds_for(sys_, np.eye(n)))
    assert_records_match(entrywise_bounds(sys_), bounds_for(sys_))
    assert_records_match(adjacent_difference_bounds(sys_, pairs),
                         bounds_for(sys_, difference_rows(n, pairs)))
    for k, row in enumerate(w):
        got = functional_bound(sys_, row, index=k)
        assert got.index == k
        assert_records_match([got], bounds_for(sys_, row[None, :]))


@st.composite
def complex_problems(draw):
    """A complex system of any shape and rank, and its weight rows: W=None,
    real difference rows, random complex rows and complex rows from the
    row space of A (always finite)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = cgauss(m, rank) @ cgauss(rank, n)
    b = a @ cgauss(n) + draw(st.sampled_from([0.0, 0.05, 0.5])) * cgauss(m)
    residual = float(np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b)))
    ratio = draw(st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 3.0)))
    eps = ratio * residual if residual > 1e-8 else ratio
    kind = draw(st.sampled_from(["none", "difference", "complex", "row-space"]))
    if kind == "none":
        w = None
    elif kind == "difference":
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, min_size=1, max_size=3)) if n > 1 else []
        w = difference_rows(n, pairs) if pairs else np.ones((1, n))
    elif kind == "complex" or rank == 0:
        w = cgauss(draw(st.integers(1, 3)), n)
    else:
        w = cgauss(draw(st.integers(1, 3)), m) @ a.conj()
    return a, b, eps, w


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(complex_problems())
def test_complex_kernel_matches_lifted(problem):
    a, b, eps, w = problem
    n = a.shape[1]
    res = bounds_for(LinearSystem(a=a, b=b, epsilon=eps), w)
    lifted, b_real = lift_system(a, b)
    a_real = lifted.a_real
    # Re(w^H x) = Re(w) . Re(x) + Im(w) . Im(x): the lifted weight is [Re w, Im w]
    w_real = np.eye(2 * n) if w is None else np.hstack([w.real, w.imag])
    ref = bounds_for(LinearSystem(a=a_real, b=b_real, epsilon=eps), None if w is None else w_real)
    np.testing.assert_array_equal(res.status, ref.status)
    assert (res.lam is None) == (ref.lam is None)
    finite = res.status == FINITE
    for name in ("lower", "upper", "midpoint", "half_width", "sensitivity"):
        got, want = getattr(res, name), getattr(ref, name)
        np.testing.assert_array_equal(np.isnan(got), ~finite)
        scale = max(float(np.max(np.abs(want[finite]), initial=0.0)), 1.0)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=1e-9 * scale,
                                   err_msg=name)
    if ref.lam is None:
        assert np.all(res.status == INFEASIBLE)
        assert kkt_interval(a_real, b_real, eps, w_real[0]) is None
        return
    assert res.lam == pytest.approx(ref.lam, rel=1e-9, abs=1e-12)
    for k, row in enumerate(w_real):
        overlap = nullspace_overlap(a_real, row) / np.linalg.norm(row)
        if res.status[k] == UNBOUNDED:
            assert overlap > 1e-8
            continue
        assert res.status[k] == FINITE and overlap < 1e-6
        lo, hi = kkt_interval(a_real, b_real, eps, row)
        scale = max(abs(lo), abs(hi), 1.0)
        assert abs(res.lower[k] - lo) <= 1e-6 * scale
        assert abs(res.upper[k] - hi) <= 1e-6 * scale
