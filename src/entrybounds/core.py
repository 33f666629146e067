"""Dense linear-algebra substrate: rank-truncated SVD, pseudoinverse
application, orthogonal projections, and nullspace bases.

All heavy lifting is delegated to LAPACK through numpy; what this module
adds is an explicit, reportable numerical-rank rule and the handful of
derived quantities (pseudoinverse products, residual projections,
nullspace components) that everything downstream is built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure

DEFAULT_RANK_RTOL = 1e-10
DEFAULT_ORTHO_TOL = 1e-8


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalFailure("matrix contains NaN or Inf entries")
    return a


def _as_vector(x, length: int, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {length}")
    return x


@dataclass(frozen=True)
class SvdFactors:
    """Rank-truncated SVD of an M x N matrix.

    ``u`` (M x r) and ``v`` (N x r) have orthonormal columns, ``sigma``
    holds the r retained singular values in nonincreasing order, and
    ``v_perp`` (N x (N - r)) is an orthonormal basis of the nullspace.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    v_perp: np.ndarray
    rank: int
    trunc_rtol: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])


def svd_truncated(a, rtol: float = DEFAULT_RANK_RTOL) -> SvdFactors:
    """Compute the SVD of ``a`` truncated at numerical rank.

    Singular values are kept iff sigma_i > rtol * sigma_1.  The discarded
    right singular vectors are returned as the nullspace basis ``v_perp``.
    Only a wide matrix needs the full ``Vt``, whose extra rows span the
    nullspace; a tall one gets the economy SVD, without the M x M ``U``.
    """
    a = _as_matrix(a)
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rank tolerance must be in (0, 1), got {rtol}")
    try:
        u_full, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from None
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > rtol * s[0]))
    return SvdFactors(
        u=np.ascontiguousarray(u_full[:, :rank]),
        sigma=s[:rank].copy(),
        v=np.ascontiguousarray(vt[:rank].T),
        v_perp=np.ascontiguousarray(vt[rank:].T),
        rank=rank,
        trunc_rtol=float(rtol),
    )


def pinv_apply(f: SvdFactors, m) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse: V Sigma^-1 U^T m."""
    m = _as_vector(m, f.shape[0], "data vector")
    if f.rank == 0:
        return np.zeros(f.shape[1])
    return f.v @ ((f.u.T @ m) / f.sigma)


def pinv_transpose_apply(f: SvdFactors, w) -> np.ndarray:
    """Apply the transposed pseudoinverse: U Sigma^-1 V^T w."""
    w = _as_vector(w, f.shape[1], "weight vector")
    if f.rank == 0:
        return np.zeros(f.shape[0])
    return f.u @ ((f.v.T @ w) / f.sigma)


def pinv_transpose_norm(f: SvdFactors, w) -> float:
    """Norm-only path for ``pinv_transpose_apply``: ||Sigma^-1 V^T w||_2.

    Avoids the M-length product when only the sensitivity is needed.
    """
    w = _as_vector(w, f.shape[1], "weight vector")
    if f.rank == 0:
        return 0.0
    return float(np.linalg.norm((f.v.T @ w) / f.sigma))


def residual_projection_norm(f: SvdFactors, b) -> float:
    """Norm of the projection of ``b`` onto the orthogonal complement of
    the range: ||b - U (U^T b)||_2."""
    b = _as_vector(b, f.shape[0], "data vector")
    if f.rank == 0:
        return float(np.linalg.norm(b))
    return float(np.linalg.norm(b - f.u @ (f.u.T @ b)))


def nullspace_component(f: SvdFactors, w) -> tuple[np.ndarray, float]:
    """Coefficients of ``w`` in the nullspace basis, and their norm."""
    w = _as_vector(w, f.shape[1], "weight vector")
    coeffs = f.v_perp.T @ w
    return coeffs, float(np.linalg.norm(coeffs))
