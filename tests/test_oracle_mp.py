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
"""

import numpy as np
import pytest

from conftest import mp_extremal, mp_interval_parts, mp_least_squares, svd_least_squares
from entrybounds import LinearSystem, Target, bounds, bounds_for, extremal_solution

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
