"""Dense linear-algebra substrate: rank-truncated SVD, pseudoinverse
application, orthogonal projections, and nullspace bases.

All heavy lifting is delegated to LAPACK through numpy; what this module
adds is an explicit, reportable numerical-rank rule and the handful of
derived quantities (pseudoinverse products, residual projections,
nullspace components) that everything downstream is built from.

Real and complex inputs share every function: arrays stay float64 or
become complex128, never losing an imaginary part, and transposes are
conjugate transposes (``x.conj()`` is ``x`` itself for a real array, so the
real path does the same arithmetic as a real-only one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure

DEFAULT_RANK_RTOL = 1e-10
DEFAULT_ORTHO_TOL = 1e-8


def as_real_or_complex(x) -> np.ndarray:
    """``x`` as a complex128 array if its dtype is complex, else float64."""
    x = np.asarray(x)
    return x.astype(complex if np.iscomplexobj(x) else float, copy=False)


def _as_matrix(a) -> np.ndarray:
    a = as_real_or_complex(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalFailure("matrix contains NaN or Inf entries")
    return a


def _as_vector(x, length: int, name: str) -> np.ndarray:
    x = as_real_or_complex(x).reshape(-1)
    if x.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {length}")
    return x


@dataclass(frozen=True)
class SvdFactors:
    """Rank-truncated SVD of an M x N matrix, A = U diag(sigma) V^H.

    ``u`` (M x r) and ``v`` (N x r) have orthonormal columns, ``sigma``
    holds the r retained singular values in nonincreasing order, and
    ``v_perp`` (N x (N - r)) is an orthonormal basis of the nullspace.
    The bases are complex when the matrix is.  At rank 0 the formulas
    below need no special case: they give exact zeros, or ``||b||``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    v_perp: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.v)


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
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return SvdFactors(
        u=np.ascontiguousarray(u_full[:, :rank]),
        sigma=s[:rank].copy(),
        v=np.ascontiguousarray(vt[:rank].conj().T),
        v_perp=np.ascontiguousarray(vt[rank:].conj().T),
    )


def pinv_apply(f: SvdFactors, m) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse: V Sigma^-1 U^H m."""
    m = _as_vector(m, f.shape[0], "data vector")
    return f.v @ ((f.u.conj().T @ m) / f.sigma)


def pinv_transpose_apply(f: SvdFactors, w) -> np.ndarray:
    """Apply the conjugate-transposed pseudoinverse: U Sigma^-1 V^H w."""
    w = _as_vector(w, f.shape[1], "weight vector")
    return f.u @ ((f.v.conj().T @ w) / f.sigma)


def pinv_transpose_norm(f: SvdFactors, w) -> float:
    """Norm-only path for ``pinv_transpose_apply``: ||Sigma^-1 V^H w||_2.

    Avoids the M-length product when only the sensitivity is needed.
    """
    w = _as_vector(w, f.shape[1], "weight vector")
    return float(np.linalg.norm((f.v.conj().T @ w) / f.sigma))


def residual_projection_norm(f: SvdFactors, b) -> float:
    """Norm of the projection of ``b`` onto the orthogonal complement of
    the range: ||b - U (U^H b)||_2."""
    b = _as_vector(b, f.shape[0], "data vector")
    return float(np.linalg.norm(b - f.u @ (f.u.conj().T @ b)))


def nullspace_component(f: SvdFactors, w) -> tuple[np.ndarray, float]:
    """Coefficients of ``w`` in the nullspace basis, and their norm."""
    w = _as_vector(w, f.shape[1], "weight vector")
    coeffs = f.v_perp.conj().T @ w
    return coeffs, float(np.linalg.norm(coeffs))
