"""Dense linear-algebra substrate: the numerical-rank rule, the
rank-truncated SVD, norms in scaled units, and the residual projection.

All heavy lifting is delegated to LAPACK through numpy; what this module
adds is an explicit, reportable rank rule, the power-of-two scalings that
keep norms and inverse singular values in range, the residual formula
||b - U U^H b|| of a truncated SVD, and the rules that check every argument:
arrays, counts, sizes and seeds, magnitudes, ratios in (0, 1), and the
bytes of every array whose size an input sets.
The pseudoinverse products themselves, and the residual of a system, live
in the interval kernel of :mod:`entrybounds.bounds`.

Real and complex inputs share every function: arrays stay float64 or
become complex128, never losing an imaginary part, and transposes are
conjugate transposes (``x.conj()`` is ``x`` itself for a real array, so the
real path does the same arithmetic as a real-only one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NumericalFailure

DEFAULT_RANK_RTOL = 1e-10
DEFAULT_ORTHO_TOL = 1e-8
# The largest array, in bytes, that an input may make the package allocate:
# the Gram of a dense operator and the arrays a SENSE config implies.
MAX_ARRAY_BYTES = 2**30


def as_real_or_complex(x) -> np.ndarray:
    """``x`` as a complex128 array if its dtype is complex, else float64."""
    x = np.asarray(x)
    return x.astype(complex if np.iscomplexobj(x) else float, copy=False)


def _as_2d(a) -> np.ndarray:
    """``a`` as a real or complex array, the rule of every matrix: an ndim
    other than 2 raises :class:`DimensionMismatch`."""
    a = as_real_or_complex(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    return a


def as_finite_matrix(a) -> np.ndarray:
    """``a`` as a real or complex 2-D array, which may have no rows or no
    columns; another ndim raises :class:`DimensionMismatch` and a NaN or
    infinite entry :class:`NumericalFailure`."""
    a = _as_2d(a)
    if not np.all(np.isfinite(a)):
        raise NumericalFailure("matrix contains NaN or Inf entries")
    return a


def _as_matrix(a) -> np.ndarray:
    a = as_finite_matrix(a)
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got {a.shape}")
    return a


def _as_vector(x, rows: int, of: str = "matrix") -> np.ndarray:
    """``x`` as a real or complex 1-D array, the rule of every data vector: a
    length other than ``rows`` raises :class:`DimensionMismatch` and a NaN or
    infinite entry :class:`NumericalFailure`."""
    x = as_real_or_complex(x)
    x = x if x.ndim == 1 else x.reshape(-1)  # a 1-D array stays the object caches key on
    if x.shape[0] != rows:
        raise DimensionMismatch(f"data vector has length {x.shape[0]}, {of} has {rows} rows")
    if not np.isfinite(x).all():
        raise NumericalFailure("data vector must be finite")
    return x


@dataclass(frozen=True)
class SvdFactors:
    """Rank-truncated SVD of an M x N matrix, A = U diag(sigma) V^H.

    ``u`` (M x r) and ``v`` (N x r) have orthonormal columns, ``sigma``
    holds the r retained singular values in nonincreasing order, and
    ``v_perp`` (N x (N - r)) is an orthonormal basis of the nullspace.
    The bases are complex when the matrix is.  At rank 0 the bases are
    empty, and :func:`residual_projection_norm` gives ``||b||``.
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


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(value, name: str, minimum: int, error=ValueError) -> None:
    """``error`` naming ``name`` unless ``value`` is an integer >= ``minimum``:
    the rule of every count, size and seed."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


def _check_bytes(nbytes: int, what: str) -> None:
    """:class:`ConfigError` naming ``what`` if ``nbytes`` exceeds
    ``MAX_ARRAY_BYTES``: the rule of every array whose size an input sets,
    checked before it is allocated."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(f"{what} would take {nbytes} bytes, more than the "
                          f"{MAX_ARRAY_BYTES} allowed")


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float and not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _check_real(value, name: str, error=ValueError) -> None:
    """``error`` naming ``name`` unless ``value`` is a real number (:func:`_is_real`)."""
    if not _is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")


def _magnitude(value, name: str, error=None) -> float:
    """``value`` as a float, the rule of every magnitude: not a real number
    or negative raises ``ValueError`` and not finite
    :class:`NumericalFailure`, or each ``error``."""
    _check_real(value, name, error or ValueError)
    value = float(value)
    if not math.isfinite(value):
        raise (error or NumericalFailure)(f"{name} must be finite, got {value}")
    if value < 0:
        raise (error or ValueError)(f"{name} must be nonnegative, got {value}")
    return value


def _check_fraction(value, name: str, error=ValueError) -> None:
    """``error`` naming ``name`` unless ``value`` is a real number in (0, 1):
    the rule of every ratio."""
    _check_real(value, name, error)
    if not 0.0 < value < 1.0:
        raise error(f"{name} must be in (0, 1), got {value}")


def _rank(s: np.ndarray, rtol: float) -> int:
    """Number of the nonincreasing singular values ``s`` with sigma_i > rtol * sigma_1."""
    return int(np.count_nonzero(s > rtol * s[0]))


def _svd(a: np.ndarray, **kwargs):
    """``np.linalg.svd(a, **kwargs)``, the one call of it: an SVD that does
    not converge raises :class:`NumericalFailure`."""
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from None


def svd_truncated(a, rtol: float = DEFAULT_RANK_RTOL) -> SvdFactors:
    """Compute the SVD of ``a`` truncated at numerical rank.

    Singular values are kept iff sigma_i > rtol * sigma_1.  The discarded
    right singular vectors are returned as the nullspace basis ``v_perp``.
    Only a wide matrix needs the full ``Vt``, whose extra rows span the
    nullspace; a tall one gets the economy SVD, without the M x M ``U``.
    A sigma_1 beyond the float range, which would pass no singular value,
    raises :class:`NumericalFailure`.
    """
    _check_fraction(rtol, "rank tolerance")
    a = _as_matrix(a)
    u_full, s, vt = _svd(a, full_matrices=a.shape[0] < a.shape[1])
    _finite(s[:1], "sigma_1")
    rank = _rank(s, rtol)
    return SvdFactors(
        u=np.ascontiguousarray(u_full[:, :rank]),
        sigma=s[:rank].copy(),
        v=np.ascontiguousarray(vt[:rank].conj().T),
        v_perp=np.ascontiguousarray(vt[rank:].conj().T),
    )


def _finite(x, what: str):
    """``x``, an array or a float; :class:`NumericalFailure`, ``<what> exceeds
    the float range``, if an entry is not finite: the rule of every computed
    value the package returns."""
    if not np.isfinite(x).all():
        raise NumericalFailure(f"{what} exceeds the float range")
    return x


def _norm(x: np.ndarray) -> float:
    """||x||_2, taken in units of a power of two near the largest magnitude
    of x so that no square under- or overflows; :class:`NumericalFailure`
    if the norm itself exceeds the float range."""
    peak = np.maximum(np.abs(x.real), np.abs(x.imag)).max(initial=0.0)
    e = max(int(np.frexp(peak)[1]), -1021)  # 2**-e stays a normal float
    try:
        return math.ldexp(float(np.linalg.norm(x * math.ldexp(1.0, -e))), e)
    except OverflowError:
        raise NumericalFailure("a vector norm exceeds the float range") from None


def _unit_sigma(sigma: np.ndarray) -> tuple[np.ndarray, int]:
    """(s, es) with sigma = 2**es * s exactly and s in (rtol / 2, 1)."""
    es = int(np.frexp(sigma.max(initial=0.0))[1])
    return np.ldexp(sigma, -es), es


def residual_projection_norm(f: SvdFactors, b) -> float:
    """Norm of the projection of ``b`` onto the orthogonal complement of
    the range: ||b - U (U^H b)||_2."""
    b = _as_vector(b, f.shape[0])
    return _norm(b - f.u @ (f.u.conj().T @ b))
