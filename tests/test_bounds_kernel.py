"""Differential property test of the interval kernel ``bounds_for``.

Random systems cover tall, square and wide shapes and every rank from 0 to
min(M, N).  Weight rows mix random dense rows (unbounded whenever A has a
nullspace), rows drawn from the row space of A (always finite) and +/-1
difference rows.  Intervals are checked against the Lagrangian bisection
oracle and statuses against scipy's null_space, both from conftest.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import kkt_interval, nullspace_overlap
from entrybounds import (
    LinearSystem,
    adjacent_difference_bounds,
    bounds_for,
    entrywise_bounds,
    functional_bound,
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
