"""The bounds against a multiprecision referee.

A tall full-rank system (M >= 2N) is bounded from the inverse of its QR
triangle, without an SVD.  Its A^+ b and its sensitivities
||(A^+)^H e_i||_2 are checked against ``conftest.mp_least_squares``, which
solves the normal equations at 50 digits in mpmath, and compared with the
same quantities from ``conftest.svd_least_squares``, which forms them
from ``np.linalg.svd``.  Both must be within
10 * N * kappa * u of the referee, and the triangle path's worst error in
units of kappa * u may not exceed the SVD path's.

The intervals of ``bounds_for`` (midpoints, half-widths and lam) are
checked against ``conftest.mp_interval_parts`` on square systems and on
tall systems whose data lies outside the range of A, and both vectors of
``extremal_solution`` against ``conftest.mp_extremal``.

A triangle of more than ``bounds.TRIANGLE_LEAF`` columns is inverted by
2 x 2 blocks; at N = 40 the inverse is checked against
``conftest.mp_triangular_inverse``, and at N = 33, 64 and 100 the A^+ b
and sensitivities of a system built on it against
``conftest.svd_least_squares``, within the same 10 * N * kappa * u.  A
triangle of at most TRIANGLE_LEAF columns is np.linalg.inv's, byte for
byte.

Wide (8 x 30) and rank-deficient (30 x 8, rank 6) systems take the SVD
path.  Their coordinate, dense and pair rows, lam and the extremal vectors
are checked against ``conftest.mp_truncated_parts``, which truncates the
40-digit SVD of the double matrix by the package's rank rule, within the
same 10 * N * kappa * u, with kappa that of the retained part.
"""

import numpy as np
import pytest

from conftest import (
    difference_rows,
    mp_extremal,
    mp_interval_parts,
    mp_least_squares,
    mp_triangular_inverse,
    mp_truncated_parts,
    svd_least_squares,
)
from entrybounds import LinearSystem, Target, bounds, bounds_for, extremal_solution
from entrybounds.core import DEFAULT_ORTHO_TOL

M, N = 30, 8
U = np.finfo(float).eps / 2  # unit roundoff


def sweep(dtype, seed):
    """15 systems of kappa 1e0 to 1e8 with consistent data: for each, the
    errors of both paths in units of kappa * u, as {(path, quantity): ratio}."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    out = []
    for k in np.linspace(0.0, 8.0, 15):
        q1, q2 = np.linalg.qr(draw(M, N))[0], np.linalg.qr(draw(N, N))[0]
        a = q1 @ np.diag(np.logspace(0.0, -k, N)) @ q2.conj().T
        b = a @ draw(N)
        x_mp, gram_inv_diag = mp_least_squares(a, b)
        s_mp = np.sqrt(gram_inv_diag)
        sys_ = LinearSystem(a=a, b=b, epsilon=1.0)
        x_svd, sens_svd = svd_least_squares(a, b)
        found = {
            ("triangle", "x"): sys_.solution(),
            ("triangle", "sens"): bounds_for(sys_).sensitivity[:N],
            ("svd", "x"): x_svd,
            ("svd", "sens"): sens_svd,
        }
        scale = np.linalg.cond(a) * U
        ratios = {}
        for (path, what), got in found.items():
            if what == "x":
                err = np.linalg.norm(got - x_mp) / np.linalg.norm(x_mp)
            else:
                err = np.max(np.abs(got - s_mp) / s_mp)
            ratios[path, what] = err / scale
        out.append(ratios)
    return out


@pytest.mark.parametrize("dtype, seed", [(float, 7), (complex, 8)], ids=["real", "complex"])
def test_triangle_path_against_mpmath(dtype, seed, monkeypatch):
    def no_svd(*args):
        raise AssertionError("a full-rank tall system was bounded from an SVD")

    monkeypatch.setattr(bounds, "svd_truncated", no_svd)
    ratios = sweep(dtype, seed)
    for what in ("x", "sens"):
        worst = {path: max(r[path, what] for r in ratios) for path in ("triangle", "svd")}
        assert worst["triangle"] <= 10 * N, (what, worst)
        assert worst["svd"] <= 10 * N, (what, worst)
        assert worst["triangle"] <= worst["svd"], (what, worst)


def interval_ratios(m, dtype, seed):
    """9 systems of kappa 1e0 to 1e8: the errors of the midpoints, the
    half-widths and lam of ``bounds_for``, each in units of its own scale.

    A square system's data lies in the range of A.  A tall one gets a
    residual r orthogonal to that range, with ||r|| = ||A x||.  Then the
    midpoints A^+ b are only as accurate as the least-squares condition
    number kappa + kappa^2 ||r|| / (||A|| ||x||) allows (Higham, 2002,
    ch. 20), and that is their scale; the half-widths (sensitivities times
    lam) and lam keep the scale kappa."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    def rows(v):  # the row order of bounds_for: Re then Im on a complex system
        return np.concatenate([v.real, v.imag]) if dtype is complex else v

    out = []
    for k in range(9):
        q1, q2 = np.linalg.qr(draw(m, N))[0], np.linalg.qr(draw(N, N))[0]
        a = q1 @ np.diag(np.logspace(0.0, -k, N)) @ q2.conj().T
        b = a @ draw(N)
        rho = 0.0
        if m > N:  # a residual orthogonal to the range, as long as A x
            rho = np.linalg.norm(b)
            r = draw(m)
            r -= q1 @ (q1.conj().T @ r)
            b = b + r * (rho / np.linalg.norm(r))
        eps = 2.0 * np.linalg.norm(b)
        x_mp, sens_mp, lam_mp = mp_interval_parts(a, b, eps)
        res = bounds_for(LinearSystem(a=a, b=b, epsilon=eps))
        kappa = np.linalg.cond(a)
        kappa_ls = kappa + kappa**2 * rho / (np.linalg.norm(a, 2) * np.linalg.norm(x_mp))
        mid_mp, half_mp = rows(x_mp), lam_mp * np.tile(sens_mp, 2 if dtype is complex else 1)
        mid_err = np.linalg.norm(res.midpoint - mid_mp) / np.linalg.norm(mid_mp)
        half_err = np.max(np.abs(res.half_width - half_mp) / half_mp)
        lam_err = abs(res.lam - lam_mp) / lam_mp
        out.append({"midpoint": mid_err / (kappa_ls * U), "half_width": half_err / (kappa * U),
                    "lam": lam_err / (kappa * U)})
    return out


@pytest.mark.parametrize(
    "m, dtype, seed",
    [(N, float, 9), (N, complex, 10), (M, float, 11), (M, complex, 12)],
    ids=["square-real", "square-complex", "outside-range-real", "outside-range-complex"],
)
def test_intervals_against_mpmath(m, dtype, seed):
    ratios = interval_ratios(m, dtype, seed)
    worst = {what: max(r[what] for r in ratios) for what in ratios[0]}
    assert all(v <= 10 * N for v in worst.values()), worst


def extremal_ratios(m, dtype, seed):
    """9 systems of kappa 1e0 to 1e8 with data in the range of A, and a
    random functional w: for both ends, the error of the value that
    ``extremal_solution`` achieves in units of kappa * u times the size
    ||w|| ||A^+ b|| + lam ||(A^+)^H w|| of that end (its midpoint and its
    half-width are each accurate to kappa * u of their own size), and the
    normwise error of its vector in units of kappa^2 * u (the step
    lam (A^H A)^-1 w / ||(A^+)^H w|| applies A^+ twice)."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    out = []
    for k in range(9):
        q1, q2 = np.linalg.qr(draw(m, N))[0], np.linalg.qr(draw(N, N))[0]
        a = q1 @ np.diag(np.logspace(0.0, -k, N)) @ q2.conj().T
        b = a @ draw(N)
        w = draw(N)
        eps = float(np.linalg.norm(b))
        sys_ = LinearSystem(a=a, b=b, epsilon=eps)
        kappa = np.linalg.cond(a)
        (x_lo, lower), (x_hi, upper) = mp_extremal(a, b, eps, w)
        size = np.linalg.norm(w) * np.linalg.norm(0.5 * (x_lo + x_hi)) + 0.5 * (upper - lower)
        for target, x_mp, end in ((Target.LOWER, x_lo, lower), (Target.UPPER, x_hi, upper)):
            sol = extremal_solution(sys_, w, target)
            out.append({
                "value": abs(sol.achieved_value - end) / (size * kappa * U),
                "vector": np.linalg.norm(sol.x - x_mp) / np.linalg.norm(x_mp) / (kappa**2 * U),
            })
    return out


@pytest.mark.parametrize(
    "m, dtype, seed",
    [(N, float, 13), (N, complex, 14), (M, float, 15), (M, complex, 16)],
    ids=["square-real", "square-complex", "tall-real", "tall-complex"],
)
def test_extremal_vectors_against_mpmath(m, dtype, seed):
    ratios = extremal_ratios(m, dtype, seed)
    worst = {what: max(r[what] for r in ratios) for what in ratios[0]}
    assert all(v <= 10 * N for v in worst.values()), worst


def conditioned(n, kappa, dtype, seed):
    """A 2n x n matrix with singular values from 1 down to 1 / kappa, and its
    QR triangle R, as the triangle path takes it."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    q1, q2 = np.linalg.qr(draw(2 * n, n))[0], np.linalg.qr(draw(n, n))[0]
    a = q1 @ np.diag(np.logspace(0.0, -np.log10(kappa), n)) @ q2.conj().T
    return a, np.linalg.qr(a, mode="r"), draw(n)


DTYPES = pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])


@DTYPES
@pytest.mark.parametrize("n", [1, 4, 12, 31, bounds.TRIANGLE_LEAF])
def test_small_triangle_is_one_lapack_inverse(n, dtype):
    _, r, _ = conditioned(n, 1e4, dtype, n)
    assert bounds._triangular_inverse(r).tobytes() == np.linalg.inv(r).tobytes()


@DTYPES
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
def test_blocked_triangle_inverse_against_mpmath(kappa, dtype):
    """At N = 40 (blocks of 20 columns): the inverse and its row norms, the
    unscaled sensitivities, within 10 * N * kappa * u of the referee; the
    blocks below the diagonal are exact zeros."""
    n = 40
    _, r, _ = conditioned(n, kappa, dtype, 17)
    k = bounds._triangular_inverse(r)
    k_mp = mp_triangular_inverse(r)
    assert not np.tril(k, -1).any()
    scale = 10 * n * np.linalg.cond(r) * U
    assert np.linalg.norm(k - k_mp) / np.linalg.norm(k_mp) <= scale
    rows, rows_mp = np.linalg.norm(k, axis=1), np.linalg.norm(k_mp, axis=1)
    assert np.max(np.abs(rows - rows_mp) / rows_mp) <= scale


@DTYPES
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("n", [33, 64, 100])
def test_blocked_triangle_path_against_svd(n, kappa, dtype):
    """A tall full-rank system whose triangle is inverted by blocks: its A^+ b
    and its sensitivities within 10 * N * kappa * u of the SVD's."""
    a, _, x = conditioned(n, kappa, dtype, n)
    sys_ = LinearSystem(a=a, b=a @ x, epsilon=1.0)
    assert sys_._factored().path == "triangle"
    x_svd, sens_svd = svd_least_squares(a, sys_.b)
    scale = 10 * n * np.linalg.cond(a) * U
    assert np.linalg.norm(sys_.solution() - x_svd) / np.linalg.norm(x_svd) <= scale
    sens = bounds_for(sys_).sensitivity[:n]
    assert np.max(np.abs(sens - sens_svd) / sens_svd) <= scale


def truncated_ratios(m, n, r, dtype, seed):
    """An m x n system of rank r at both ends of the retained kappa range,
    1e0 and 1e8, through the SVD path: the errors of its coordinate, dense
    and pair rows, and of the extremal vectors of its dense rows, against
    ``conftest.mp_truncated_parts``, as {quantity: worst ratio}.

    The row space holds e_0 and e_1 - e_2, turned by a random rotation of
    the retained singular vectors, so x_0 and x_1 - x_2 have finite
    intervals whose sensitivities grow with kappa; three dense rows are
    drawn from the row space and one is generic (unbounded).  The data is
    consistent.  Units: a midpoint in kappa * u times ||w|| ||A^+ b||, a
    half-width and lam in kappa * u of their own size, an extremal value
    as in :func:`extremal_ratios` and its vector in kappa^2 * u."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is complex else z

    eye = np.eye(n)
    coords = np.vstack([eye, 1j * eye]) if dtype is complex else eye
    pairs = bounds._pair_index(n, [(1, 2), (2, 1), (0, 3), (3, 4)])
    worst = {}

    def record(what, ratios):
        worst[what] = max(worst.get(what, 0.0), float(np.max(ratios, initial=0.0)))

    for cond in (1e0, 1e8):
        basis = np.column_stack([eye[0], eye[1] - eye[2], draw(n, r - 2)])
        v = np.linalg.qr(basis)[0] @ np.linalg.qr(draw(r, r))[0]
        u = np.linalg.qr(draw(m, r))[0]
        a = u @ np.diag(np.logspace(0.0, -np.log10(cond), r)) @ v.conj().T
        b = a @ draw(n)
        eps = 2.0 * float(np.linalg.norm(b))
        sys_ = LinearSystem(a=a, b=b, epsilon=eps)
        assert sys_._factored().path == "svd" and sys_.rank == r
        dense = np.vstack([(v @ draw(r, 3)).T, draw(1, n)])
        families = {"coordinates": (bounds_for(sys_), coords),
                    "dense": (bounds_for(sys_, dense), dense),
                    "pairs": (bounds._bound_arrays(bounds._row_products(sys_, pairs=pairs)),
                              difference_rows(n, pairs))}
        rows = np.vstack([w for _, w in families.values()])
        ref = mp_truncated_parts(a, b, eps, rows, sys_.rank_rtol,
                                 extremal=range(len(coords), len(coords) + 3))
        mid, lam, sigma = ref["mid"], ref["lam"], ref["sigma"]
        kappa = sigma[0] / sigma[-1]
        scale = kappa * U
        wnorm = np.linalg.norm(rows, axis=1)
        got = {k: np.concatenate([getattr(res, k) for res, _ in families.values()])
               for k in ("status", "midpoint", "half_width")}
        # statuses by the same nullspace tolerance: only e_0 (Re and Im on a
        # complex system), e_1 - e_2 both ways and the row-space rows are finite
        np.testing.assert_array_equal(got["status"], ref["perp"] > DEFAULT_ORTHO_TOL * wnorm)
        finite = got["status"] == 0
        assert finite.sum() == (7 if dtype is complex else 6)
        size = wnorm * np.linalg.norm(ref["x"])
        record("midpoint", np.abs(got["midpoint"] - mid)[finite] / (size * scale)[finite])
        half = lam * ref["sens"]
        record("half_width", np.abs(got["half_width"] - half)[finite] / (half * scale)[finite])
        record("lam", abs(families["dense"][0].lam - lam) / (lam * scale))
        for k in range(3):
            w = dense[k]
            j = len(coords) + k
            for target, sign in ((Target.LOWER, -1), (Target.UPPER, 1)):
                x_mp = ref["lower" if sign < 0 else "upper"][k]
                sol = extremal_solution(sys_, w, target)
                end = mid[j] + sign * half[j]
                record("value", abs(sol.achieved_value - end) / ((size[j] + half[j]) * scale))
                record("vector", np.linalg.norm(sol.x - x_mp) / np.linalg.norm(x_mp)
                       / (kappa * scale))
    return worst


@pytest.mark.parametrize(
    "m, n, r, dtype, seed",
    [(8, 30, 8, float, 21), (8, 30, 8, complex, 22), (30, 8, 6, float, 23),
     (30, 8, 6, complex, 24)],
    ids=["wide-real", "wide-complex", "rank6-real", "rank6-complex"],
)
def test_truncated_svd_path_against_mpmath(m, n, r, dtype, seed):
    """Wide and rank-deficient systems, which only the SVD path bounds:
    every ratio within 10 * N (N = n unknowns)."""
    worst = truncated_ratios(m, n, r, dtype, seed)
    assert all(v <= 10 * n for v in worst.values()), worst
