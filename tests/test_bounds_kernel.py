"""Differential property test of the interval kernel ``bounds_for``.

Random systems cover tall, square and wide shapes and every rank from 0 to
min(M, N), also tall ones with M >= 2N up to 60 x 12.  Weight rows mix
random dense rows (unbounded whenever A has a nullspace), rows drawn from
the row space of A (always finite) and +/-1 difference rows.  Intervals
are checked against the Lagrangian bisection oracle and statuses against
scipy's null_space, both from conftest; the system's A^+ b and residual,
real and complex, against a dense pseudoinverse.

Complex systems are checked against the same kernel on their lifted real
form (conftest's ``lift_matrix``) and against the oracles on that form.

The feasible vectors of ``extremal_solution`` are checked against the
kernel's intervals on the same systems, and the interval each carries,
taken from the same evaluation of the row's products, against
``functional_bound``.

The coordinate and pair rows, which the kernel gathers and subtracts from
the factors instead of multiplying, are checked bit for bit: the pairs
against conftest's dense ``difference_rows``, and the coordinates'
sensitivities, Re and Im rows alike, against ``condition_report``.

Every public kernel entry is called on the same systems with A and b
scaled by independent powers of two over the whole exponent range: each
answers with finite values wherever it promises them, or raises a typed
error, and emits no warning.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dense_pinv,
    difference_rows,
    kkt_interval,
    lift_matrix,
    lift_vector,
    nullspace_overlap,
)
from entrybounds import (
    BoundArrays,
    BoundStatus,
    ConditionReport,
    EntryBound,
    ExtremalSolution,
    LinearSystem,
    Target,
    adjacent_difference_bounds,
    bounds,
    bounds_for,
    condition_report,
    crlb_identity_check,
    ellipsoid_volume,
    entrywise_bounds,
    epsilon_heuristic,
    extremal_solution,
    functional_bound,
    global_bounds,
    sense,
)
from entrybounds.bounds import (
    BOUND_STATUSES,
    _COLUMNS,
    _bound_arrays,
    _pair_index,
    _row_products,
)
from entrybounds.errors import (
    EntryBoundsError,
    IndexOutOfRange,
    InfeasibleSystem,
    SamePair,
    StatusMismatch,
)
from entrybounds.matfree import LinearOperator, sigma1

FINITE, UNBOUNDED, INFEASIBLE = range(3)


def shapes(m_max, n_max):
    """(M, N): up to m_max x n_max, or tall with M >= 2N up to 60 x 12, the
    shapes a system factors from one QR of [A | b]."""
    tall = st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(2 * n, 60), st.just(n)))
    return st.one_of(st.tuples(st.integers(1, m_max), st.integers(1, n_max)), tall)


@st.composite
def problems(draw):
    m, n = draw(shapes(7, 6))
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


def assert_solution_matches_pinv(sys_):
    """A^+ b and ||b - A A^+ b|| of the system's factors against a dense pinv."""
    a, b = sys_.a, sys_.b
    x = dense_pinv(a) @ b
    residual = np.linalg.norm(b - a @ x)
    assert np.linalg.norm(sys_.solution() - x) <= 1e-12 * max(np.linalg.norm(x), 1.0)
    assert abs(sys_.residual() - residual) <= 1e-12 * max(np.linalg.norm(b), 1.0)


@settings(max_examples=80)
@given(problems())
def test_kernel_matches_oracles(problem):
    a, b, eps, w, _ = problem
    sys_ = LinearSystem(a=a, b=b, epsilon=eps)
    assert_solution_matches_pinv(sys_)
    res = bounds_for(sys_, w)
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


@settings(max_examples=80)
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
    m, n = draw(shapes(6, 5))
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


@settings(max_examples=120)
@given(complex_problems())
def test_complex_kernel_matches_lifted(problem):
    a, b, eps, w = problem
    n = a.shape[1]
    sys_ = LinearSystem(a=a, b=b, epsilon=eps)
    assert_solution_matches_pinv(sys_)
    res = bounds_for(sys_, w)
    a_real, b_real = lift_matrix(a), lift_vector(b)
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


@settings(max_examples=100)
@given(st.one_of(problems().map(lambda p: p[:4]), complex_problems()),
       st.integers(-600, 600), st.integers(-600, 600))
def test_scale_homogeneity(problem, j, k):
    """Scaling b and eps by 2**j scales every interval by 2**j exactly, as the
    factors are the same; scaling A by 2**k keeps the entrywise condition
    numbers and scales the sensitivities by 2**-k (LAPACK may rescale the
    matrix inside the SVD, so these agree to rounding)."""
    a, b, eps, w = problem
    res = bounds_for(LinearSystem(a=a, b=b, epsilon=eps), w)
    got = bounds_for(LinearSystem(a=a, b=2.0**j * b, epsilon=2.0**j * eps), w)
    np.testing.assert_array_equal(got.status, res.status)
    assert got.lam == (None if res.lam is None else 2.0**j * res.lam)
    for name in ("lower", "upper", "midpoint", "half_width"):
        np.testing.assert_array_equal(getattr(got, name), 2.0**j * getattr(res, name),
                                      err_msg=name)
    np.testing.assert_array_equal(got.sensitivity, res.sensitivity)

    rep, rep_k = condition_report(a), condition_report(2.0**k * a)
    np.testing.assert_allclose(rep_k.kappa_entry, rep.kappa_entry, rtol=1e-12)
    np.testing.assert_allclose(rep_k.spectral_entry, 2.0**-k * rep.spectral_entry, rtol=1e-12)
    # the kernel forms ||(A^+)^H w|| for every row, bounded or not
    sens, sens_k = (_row_products(LinearSystem(a=s * a, b=b, epsilon=eps), w).sens
                    for s in (1.0, 2.0**k))
    np.testing.assert_allclose(sens_k, 2.0**-k * sens, rtol=1e-12)


VALUE = 3.25  # the value: target of every unbounded row


def checked_extremals(sys_, w, res):
    """``extremal_solution`` for every row of ``w``, checked against the
    kernel's intervals ``res``: feasible vectors attaining both endpoints of
    a finite row, and VALUE on an unbounded one; a target that does not
    fit the row's status raises StatusMismatch, and every target of an
    infeasible system InfeasibleSystem.  One list of solutions per row."""
    targets = (Target.UPPER, Target.LOWER, Target.ARBITRARY)
    if res.lam is None:
        for row in w:
            for target in targets:
                with pytest.raises(InfeasibleSystem):
                    extremal_solution(sys_, row, target, alpha=VALUE)
        return []
    out = []
    for k, row in enumerate(w):
        if res.status[k] == UNBOUNDED:
            sols = [extremal_solution(sys_, row, Target.ARBITRARY, alpha=VALUE)]
            assert abs(sols[0].achieved_value - VALUE) <= 1e-12 * VALUE
            wrong = Target.UPPER
        else:
            sols = [extremal_solution(sys_, row, target) for target in targets[:2]]
            for sol, end in zip(sols, (res.upper[k], res.lower[k])):
                assert abs(sol.achieved_value - end) <= 1e-12 * max(1.0, abs(end),
                                                                      res.half_width[k])
            # each end and the interval from one evaluation of the row, as
            # the extremal command takes them
            bound = functional_bound(sys_, row)
            for sol, target in zip(sols, targets[:2]):
                one = extremal_solution(sys_, row, target)
                np.testing.assert_array_equal(one.x, sol.x)
                assert one.achieved_value == sol.achieved_value
                ends = one.bound
                assert (ends.lower, ends.upper) == (bound.lower, bound.upper)
            wrong = Target.ARBITRARY
        for sol in sols:
            assert sol.residual_norm <= sys_.epsilon * (1 + 1e-10)
        with pytest.raises(StatusMismatch):
            extremal_solution(sys_, row, wrong, alpha=VALUE)
        out.append(sols)
    return out


@settings(max_examples=60)
@given(problems())
def test_extremal_solutions_attain_kernel(problem):
    a, b, eps, w, _ = problem
    sys_ = LinearSystem(a=a, b=b, epsilon=eps)
    sys_.solution()[:] = np.nan  # a copy: the cached A^+ b stays as it was
    checked_extremals(sys_, w, bounds_for(sys_, w))


@settings(max_examples=60)
@given(complex_problems())
def test_complex_extremal_solutions_match_lifted(problem):
    a, b, eps, w = problem
    if w is None:  # Re x_i, then Im x_i = Re(conj(1j) x_i)
        w = np.vstack([np.eye(a.shape[1]), 1j * np.eye(a.shape[1])])
    sys_c = LinearSystem(a=a, b=b, epsilon=eps)
    sys_r = LinearSystem(a=lift_matrix(a), b=lift_vector(b), epsilon=eps)
    w_real = np.hstack([w.real, w.imag])
    got = checked_extremals(sys_c, w, bounds_for(sys_c, w))
    want = checked_extremals(sys_r, w_real, bounds_for(sys_r, w_real))
    assert len(got) == len(want)
    for sols, refs in zip(got, want):
        for sol, ref in zip(sols, refs, strict=True):
            scale = max(1.0, float(np.max(np.abs(ref.x))))
            np.testing.assert_allclose(lift_vector(sol.x), ref.x, rtol=0, atol=1e-9 * scale)
            assert sol.achieved_value == pytest.approx(ref.achieved_value, rel=1e-9, abs=1e-9)


@st.composite
def pair_problems(draw):
    """A real or complex system of any shape and rank (tall, square, wide,
    rank-deficient, also tall ones with M >= 2N), with epsilon on either
    side of its residual, and a list of up to 6 index pairs, often empty."""
    m, n = draw(shapes(7, 6))
    rank = draw(st.integers(0, min(m, n)))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_normal(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if cplx else z

    a = draw_normal(m, rank) @ draw_normal(rank, n)
    b = a @ draw_normal(n) + draw(st.sampled_from([0.0, 0.05, 0.5])) * draw_normal(m)
    residual = float(np.linalg.norm(b - a @ (np.linalg.pinv(a) @ b)))
    ratio = draw(st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 3.0)))
    eps = ratio * residual if residual > 1e-8 else ratio
    pairs = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=6))
    return LinearSystem(a=a, b=b, epsilon=eps), pairs


@settings(max_examples=80)
@given(pair_problems())
def test_pair_rows_equal_dense_difference_rows(problem):
    """The pair family gives the dense rows' products in absolute units, the
    dense products times 2**e, and their intervals bit for bit;
    assert_array_equal lets a zero differ only in its sign."""
    sys_, pairs = problem
    got = _row_products(sys_, pairs=_pair_index(sys_.shape[1], pairs))
    want = _row_products(sys_, difference_rows(sys_.shape[1], pairs))
    assert got.u is None and got.lam == want.lam
    np.testing.assert_array_equal(got.e, 0)
    np.testing.assert_array_equal(got.unbounded, want.unbounded)
    for name in ("mid", "wk", "sens", "wv_perp", "perp"):
        dense = getattr(want, name)
        scale = np.ldexp(1.0, want.e).reshape((-1,) + (1,) * (dense.ndim - 1))
        np.testing.assert_array_equal(getattr(got, name), dense * scale, err_msg=name)
    assert_same(_bound_arrays(got), bounds_for(sys_, difference_rows(sys_.shape[1], pairs)))
    assert_records_match(adjacent_difference_bounds(sys_, pairs), _bound_arrays(want))


def test_pair_rows_cover_unbounded_and_empty_lists():
    """A rank-deficient system has finite and unbounded pairs, and an empty
    list gives no rows; both as the dense rows give them."""
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.0]])  # x_2 free
    for sys_ in (LinearSystem(a=a, b=[1.0, 2.0, 3.0, 4.0], epsilon=5.0),
                 LinearSystem(a=a * (1 + 1j), b=[1.0, 2j, 3.0, 4.0], epsilon=5.0)):
        pairs = [(0, 1), (1, 2), (2, 0)]
        got = _bound_arrays(_row_products(sys_, pairs=_pair_index(3, pairs)))
        np.testing.assert_array_equal(got.status, [FINITE, UNBOUNDED, UNBOUNDED])
        assert_same(got, bounds_for(sys_, difference_rows(3, pairs)))
        empty = _bound_arrays(_row_products(sys_, pairs=_pair_index(3, [])))
        assert empty.status.shape == (0,) and empty.lam == got.lam
        assert_same(empty, bounds_for(sys_, difference_rows(3, [])))
        assert adjacent_difference_bounds(sys_, []) == []
        with pytest.raises(IndexOutOfRange):
            adjacent_difference_bounds(sys_, [(0, 3)])
        with pytest.raises(SamePair):
            adjacent_difference_bounds(sys_, [(0, 1), (2, 2)])


def test_pairs_are_checked_at_one_door(monkeypatch):
    """``adjacent_difference_bounds`` checks its pairs once, and the pair
    rows that a SENSE line builds from its own support are not checked
    at all: ``_row_products`` takes pairs that are already an index array."""
    calls = {"index": 0, "pair rows": 0}
    real_index, real_rows = bounds._pair_index, bounds._row_products

    def index(*args):
        calls["index"] += 1
        return real_index(*args)

    def rows(*args, **kwargs):
        calls["pair rows"] += kwargs.get("pairs") is not None
        return real_rows(*args, **kwargs)

    monkeypatch.setattr(bounds, "_pair_index", index)
    monkeypatch.setattr(bounds, "_row_products", rows)
    sys_ = LinearSystem(a=np.eye(4), b=[1.0, 2.0, 3.0, 4.0], epsilon=1.0)
    for k, pairs in enumerate(([(0, 1), (2, 3)], [], np.array([[3, 0]])), start=1):
        adjacent_difference_bounds(sys_, pairs)
        assert calls == {"index": k, "pair rows": k}
    calls.update(dict.fromkeys(calls, 0))
    sense.run_pipeline({"grid": {"h": 16, "w": 16, "seed": 2}, "coils": {"l": 4, "seed": 1},
                        "pattern": {"accel": 2, "acs": 4}, "noise": {"sigma": 0.01, "seed": 3}})
    assert calls["index"] == 0 and calls["pair rows"] > 0


@pytest.mark.parametrize("m, path", [(5, "svd"), (10, "triangle")], ids=["svd", "triangle"])
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_dense_and_pair_rows_never_form_the_solution(m, path, dtype):
    """Dense and pair rows take their midpoints from their own products
    with K and the data's coefficients g: neither forms the cached A^+ b."""
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((m, 4)).astype(dtype), rng.standard_normal(m).astype(dtype)
    sys_ = LinearSystem(a=a, b=b, epsilon=10.0)
    fc = sys_._factored()
    assert fc.path == path
    bounds_for(sys_, rng.standard_normal((3, 4)))
    adjacent_difference_bounds(sys_, [(0, 1), (3, 2)])
    assert "solution" not in fc.__dict__
    bounds_for(sys_)  # the coordinate rows read it
    assert "solution" in fc.__dict__


@settings(max_examples=80)
@given(pair_problems(), st.data())
def test_coordinate_rows_share_condition_report_sensitivities(problem, data):
    """Every coordinate row, the Re and the Im row of a complex entry alike,
    has the sensitivity of ``condition_report`` bit for bit, and its
    midpoint is the entry of A^+ b; a subset of the rows (``entries``) is
    those rows of the full family, labelled by their numbers."""
    sys_, _ = problem
    n = sys_.shape[1]
    reps = 2 if sys_.is_complex else 1
    rep = condition_report(sys_)
    full = _row_products(sys_)
    np.testing.assert_array_equal(full.sens, rep.spectral_entry)
    np.testing.assert_array_equal(full.sens[:n], full.sens[n:] if reps == 2 else full.sens)
    x = sys_.solution()
    np.testing.assert_array_equal(full.mid, np.concatenate([x.real, x.imag]) if reps == 2 else x)
    res = _bound_arrays(full)
    assert_same(bounds_for(sys_), res)
    finite = res.status == FINITE
    np.testing.assert_array_equal(res.sensitivity[finite], rep.spectral_entry[finite])
    idx = data.draw(st.lists(st.integers(0, reps * n - 1), max_size=5))
    sub = _bound_arrays(_row_products(sys_, entries=idx))
    for name in ("status", "lower", "upper", "midpoint", "half_width", "sensitivity"):
        np.testing.assert_array_equal(getattr(sub, name), getattr(res, name)[idx], err_msg=name)
    assert sub.lam == res.lam
    records = entrywise_bounds(sys_, idx)
    assert [r.index for r in records] == idx
    assert_records_match(records, sub)


def ldexp(x: np.ndarray, j: int) -> np.ndarray:
    """x * 2**j entrywise, real and imaginary parts alike, for any exponent
    j: rounded where it falls below the normal floats, inf past the largest."""
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(x.real, j)
        if np.iscomplexobj(x):
            out.imag = np.ldexp(x.imag, j)
    return out


def promised(value) -> list:
    """The numbers that ``value`` promises finite: all of a number, an array
    or a sequence of them, the columns of a bounded row and ``lam``, and an
    extremal vector, its value and residual; None where a result allows it."""
    if isinstance(value, BoundArrays):
        bounded = value.status == FINITE
        return [value.lam, *(getattr(value, c)[bounded] for c in _COLUMNS)]
    if isinstance(value, EntryBound):
        if value.status is not BoundStatus.FINITE:
            return []
        return [value.lam, *(getattr(value, c) for c in _COLUMNS)]
    if isinstance(value, ExtremalSolution):
        return [value.x, value.achieved_value, value.residual_norm, *promised(value.bound)]
    if isinstance(value, ConditionReport):
        return [value.sigma_max, value.sigma_min_pos, value.kappa_global, value.spectral_entry,
                value.kappa_entry]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in promised(item)]
    return [value]


@settings(max_examples=150)
@given(st.one_of(problems().map(lambda p: p[:4]), complex_problems()),
       st.integers(-1080, 1030), st.integers(-1080, 1030))
def test_finite_or_typed_at_every_magnitude(problem, ja, jb):
    """With A scaled by 2**ja and b and epsilon by 2**jb, every public kernel
    entry returns finite values wherever it promises them, or raises an
    EntryBoundsError; no numpy warning escapes.  A rank-deficient matrix
    has the volume +inf by definition."""
    a, b, eps, w = problem
    a, b = ldexp(a, ja), ldexp(b, jb)
    n = a.shape[1]
    w = np.ones((1, n)) if w is None else w

    def volume():
        vol = ellipsoid_volume(sys_, 1.0)
        return 0.0 if vol == math.inf and sys_.rank < n else vol

    calls = {
        "rank": lambda: sys_.rank,
        "residual": lambda: sys_.residual(),
        "solution": lambda: sys_.solution(),
        "epsilon_heuristic": lambda: epsilon_heuristic(sys_),
        "bounds_for": lambda: bounds_for(sys_, w),
        "bounds_for coordinates": lambda: bounds_for(sys_),
        "entrywise_bounds": lambda: entrywise_bounds(sys_),
        "adjacent_difference_bounds": lambda: adjacent_difference_bounds(
            sys_, [(i, i + 1) for i in range(n - 1)]),
        "extremal_solution": lambda: extremal_solution(sys_, w[0], Target.UPPER),
        "extremal_solution arbitrary": lambda: extremal_solution(sys_, w[0], Target.ARBITRARY,
                                                                 alpha=1.0),
        "condition_report": lambda: condition_report(sys_),
        "global_bounds": lambda: global_bounds(sys_, 1.0),
        "ellipsoid_volume": volume,
        "crlb_identity_check": lambda: crlb_identity_check(sys_, n - 1),
        "sigma1": lambda: sigma1(LinearOperator.from_matrix(a)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sys_ = LinearSystem(a=a, b=b, epsilon=float(ldexp(np.array(eps), jb)))
        except EntryBoundsError:
            return
        for name, call in calls.items():
            try:
                got = call()
            except EntryBoundsError:
                continue
            assert all(x is None or np.isfinite(x).all() for x in promised(got)), name
