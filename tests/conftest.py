"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the closed-form interval formulas:
the constrained extremum is found by Lagrangian bisection on the residual
norm, nullspace questions go through scipy's null_space, and feasibility
through a dense pseudoinverse.  The least-squares solution, the
sensitivities and the effective tolerance lam of a full-rank system also
have an mpmath oracle that shares no LAPACK call with the package, and so
has the inverse of a triangle.

The reference forms the kernel is checked against live here too: the
complex-to-real lifting of a matrix and a vector, and the dense rows
e_i - e_j of index pairs, built one pair at a time.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from entrybounds.errors import IndexOutOfRange, SamePair

# Every property test draws the same examples on every run, with no time
# limit and no example database; a test sets only its max_examples.
settings.register_profile("entrybounds", deadline=None, derandomize=True, database=None)
settings.load_profile("entrybounds")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dense_pinv(a):
    return np.linalg.pinv(a)


def lift_matrix(a):
    """Real block form [[Re A, -Im A], [Im A, Re A]] of a complex matrix."""
    a = np.asarray(a, dtype=complex)
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def lift_vector(x):
    """Blocked real form [Re x; Im x] of a complex vector."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    return np.concatenate([x.real, x.imag])


def difference_rows(n, pairs):
    """Weight matrix whose k-th row is e_i - e_j for the k-th pair (i, j),
    one pair at a time, in order; the first pair with an index out of
    range, or with i == j, raises as ``adjacent_difference_bounds`` does."""
    w = np.zeros((len(pairs), n))
    for k, (i, j) in enumerate(pairs):
        if not (0 <= i < n) or not (0 <= j < n):
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for N={n}")
        if i == j:
            raise SamePair(f"difference pair has identical indices ({i}, {i})")
        w[k, i], w[k, j] = 1.0, -1.0
    return w


def svd_least_squares(a, b):
    """(A^+ b, ||(A^+)^H e_i||_2) of a full-column-rank A from np.linalg.svd:
    V diag(1/s) U^H b and the row norms of V diag(1/s)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = np.ascontiguousarray(vh.conj().T)  # C order, as svd_truncated stores V
    return v @ ((u.conj().T @ b) / s), np.linalg.norm(v / s, axis=1)


def kkt_extremum(a, b, eps, w, sign, iters=200):
    """Extremum of w^T x over {||Ax - b|| <= eps} by bisection on the
    Lagrangian stationarity path x(nu) = A^+ b + sign * nu * (A^T A)^+ w.

    sign=+1 maximizes, sign=-1 minimizes.  Returns None when infeasible.
    Assumes w is orthogonal to the nullspace (caller checks separately).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    z = np.linalg.pinv(a) @ b
    res0 = np.linalg.norm(a @ z - b)
    if res0 > eps * (1 + 1e-12):
        return None
    d = np.linalg.pinv(a.T @ a) @ w
    ad_norm = np.linalg.norm(a @ d)
    if ad_norm < 1e-14:
        # w^T x constant over the feasible set
        return float(w @ z)

    def resid(nu):
        return np.linalg.norm(a @ (z + sign * nu * d) - b)

    hi = 1.0
    while resid(hi) < eps and hi < 1e16:
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if resid(mid) < eps:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return float(w @ (z + sign * nu * d))


def kkt_interval(a, b, eps, w):
    """(L, U) from the bisection oracle, or None when infeasible."""
    lo = kkt_extremum(a, b, eps, w, -1)
    if lo is None:
        return None
    hi = kkt_extremum(a, b, eps, w, +1)
    return lo, hi


def nullspace_overlap(a, w):
    """||projection of w onto N(A)|| via scipy's null_space (independent
    of the package's own SVD truncation)."""
    ns = scipy.linalg.null_space(np.asarray(a, dtype=float))
    if ns.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(ns.T @ np.asarray(w, dtype=float).reshape(-1)))


def random_system(rng, m_range=(2, 8), n_range=(1, 6), allow_rank_deficient=True):
    """Random (A, b, eps) with mixed ranks for oracle comparisons."""
    m = int(rng.integers(*m_range, endpoint=True))
    n = int(rng.integers(*n_range, endpoint=True))
    a = rng.standard_normal((m, n))
    if allow_rank_deficient and n > 1 and rng.random() < 0.4:
        r = int(rng.integers(1, n))
        a = (rng.standard_normal((m, r))) @ (rng.standard_normal((r, n)))
    b = rng.standard_normal(m)
    eps = float(rng.uniform(0.05, 2.0))
    return a, b, eps


def _mp_normal_solve(a, b):
    """(A, b, A^+ b, (A^H A)^-1) as mpmath matrices at the working precision."""
    am, bm = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
    ah = am.H
    gram_inv = mpmath.inverse(ah * am)
    return am, bm, gram_inv * (ah * bm), gram_inv


def _mp_round(x, a, b):
    cast = complex if np.iscomplexobj(a) or np.iscomplexobj(b) else float
    return np.array([cast(x[i]) for i in range(x.rows)])


def mp_least_squares(a, b, dps=50):
    """(A^+ b, diag((A^H A)^-1)) of a full-column-rank A at ``dps`` digits,
    from the normal equations in mpmath, rounded to double at the end.
    The float inputs convert to mpmath exactly."""
    a = np.asarray(a)
    b = np.asarray(b).reshape(-1)
    with mpmath.workdps(dps):
        _, _, x, gram_inv = _mp_normal_solve(a, b)
        return (_mp_round(x, a, b),
                np.array([float(mpmath.re(gram_inv[i, i])) for i in range(x.rows)]))


def _mp_lam(am, bm, x, epsilon):
    """sqrt(epsilon^2 - ||b - A x||^2) for the least-squares solution x."""
    return mpmath.sqrt(mpmath.mpf(epsilon) ** 2 - mpmath.norm(bm - am * x) ** 2)


def mp_interval_parts(a, b, epsilon, dps=50):
    """(A^+ b, ||(A^+)^H e_i||_2, lam) of a full-column-rank A at ``dps``
    digits, with lam = sqrt(epsilon^2 - ||b - A A^+ b||^2): the midpoints,
    sensitivities and effective tolerance of every entry's interval."""
    a = np.asarray(a)
    b = np.asarray(b).reshape(-1)
    with mpmath.workdps(dps):
        am, bm, x, gram_inv = _mp_normal_solve(a, b)
        lam = _mp_lam(am, bm, x, epsilon)
        sens = [float(mpmath.sqrt(mpmath.re(gram_inv[i, i]))) for i in range(x.rows)]
        return _mp_round(x, a, b), np.array(sens), float(lam)


def mp_extremal(a, b, epsilon, w, dps=50):
    """The feasible vectors of a full-column-rank A that attain the lower
    and the upper end of Re(w^H x), and those ends, at ``dps`` digits:
    x+- = A^+ b +- lam (A^H A)^-1 w / sqrt(w^H (A^H A)^-1 w), with lam as
    in :func:`mp_interval_parts`.  Returns [(x-, lower), (x+, upper)]."""
    a = np.asarray(a)
    b = np.asarray(b).reshape(-1)
    with mpmath.workdps(dps):
        am, bm, x, gram_inv = _mp_normal_solve(a, b)
        wm = mpmath.matrix(np.asarray(w).reshape(-1).tolist())
        gw = gram_inv * wm
        root = mpmath.sqrt(mpmath.re((wm.H * gw)[0]))
        lam, mid = _mp_lam(am, bm, x, epsilon), mpmath.re((wm.H * x)[0])
        return [(_mp_round(x + gw * (sign * lam / root), a, b), float(mid + sign * lam * root))
                for sign in (-1, 1)]


def mp_triangular_inverse(r, dps=40):
    """The inverse of the nonsingular upper triangle ``r`` at ``dps`` digits,
    by back substitution in mpmath, column by column, rounded to double at
    the end.  The float inputs convert to mpmath exactly."""
    r = np.asarray(r)
    n = r.shape[0]
    cast = complex if np.iscomplexobj(r) else float
    out = np.zeros((n, n), dtype=cast)
    with mpmath.workdps(dps):
        rm = [[mpmath.mpmathify(cast(v)) for v in row] for row in r]
        for j in range(n):
            col = {j: 1 / rm[j][j]}
            for i in range(j - 1, -1, -1):
                col[i] = -mpmath.fsum(rm[i][k] * col[k] for k in range(i + 1, j + 1)) / rm[i][i]
            for i, v in col.items():
                out[i, j] = cast(v)
    return out


def mp_truncated_parts(a, b, epsilon, w, rtol, extremal=(), dps=40):
    """The interval parts of every row of ``w`` (k x N) on the double
    matrix ``a`` of any shape and rank, at ``dps`` digits.

    The SVD is mpmath.svd_r / svd_c of the tall one of A and A^H, truncated
    at the package's rank rule sigma_i > rtol * sigma_1, so that
    A^+ = V diag(1/sigma) U^H on the retained part; A has at least one
    positive singular value.  Returns a dict of values rounded to double:
    ``x`` = A^+ b; per row ``mid`` = Re(w^H A^+ b), ``sens`` = ||(A^+)^H w||
    and ``perp`` = ||w - V V^H w||, its part in the nullspace;
    ``lam`` = sqrt(epsilon^2 - ||b - U U^H b||^2); ``sigma``, the retained
    singular values; and for the rows numbered in ``extremal``, ``lower``
    and ``upper``, the vectors A^+ b -/+ lam A^+ (A^+)^H w / ||(A^+)^H w||."""
    a, w = np.asarray(a), np.atleast_2d(w)
    b = np.asarray(b).reshape(-1)
    cplx = any(np.iscomplexobj(z) for z in (a, b, w))
    cast = complex if cplx else float
    svd = mpmath.svd_c if cplx else mpmath.svd_r
    with mpmath.workdps(dps):
        am = mpmath.matrix(a.astype(cast).tolist())
        if a.shape[0] >= a.shape[1]:
            u, s, vh = svd(am)
        else:  # A^H = U' S V'^H, so A = V' S U'^H
            v_, s, uh = svd(am.H)
            u, vh = uh.H, v_.H
        r = sum(1 for i in range(s.rows) if s[i] > rtol * s[0])
        u_r, vh_r = u[:, :r], vh[:r, :]
        pinv = vh_r.H * mpmath.diag([1 / s[i] for i in range(r)]) * u_r.H
        pinv_h = pinv.H
        bm = mpmath.matrix(b.astype(cast).tolist())
        x = pinv * bm
        lam = mpmath.sqrt(mpmath.mpf(epsilon) ** 2 - mpmath.norm(bm - u_r * (u_r.H * bm)) ** 2)
        out = {"x": np.array([cast(v) for v in x]), "lam": float(lam),
               "sigma": np.array([float(s[i]) for i in range(r)]),
               "mid": [], "sens": [], "perp": [], "lower": [], "upper": []}
        for k, row in enumerate(w.astype(cast)):
            wm = mpmath.matrix(row.tolist())
            g = pinv_h * wm
            sens = mpmath.norm(g)
            out["sens"].append(float(sens))
            out["mid"].append(float(mpmath.re(mpmath.fdot(x, row.conj().tolist()))))
            # ||w||^2 = ||V^H w||^2 + ||w - V V^H w||^2
            perp_sq = mpmath.norm(wm) ** 2 - mpmath.norm(vh_r * wm) ** 2
            out["perp"].append(float(mpmath.sqrt(max(perp_sq, 0))))
            if k in extremal:
                step = pinv * g * (lam / sens)
                out["lower"].append([cast(v) for v in x - step])
                out["upper"].append([cast(v) for v in x + step])
        return {k: np.array(v) if isinstance(v, list) else v for k, v in out.items()}
