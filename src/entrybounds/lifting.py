"""Complex-to-real lifting of linear systems.

The interval theory is stated for real systems; a complex system
A_c x_c = b_c is converted to the equivalent real one with block matrix
[[Re A, -Im A], [Im A, Re A]] and blocked vectors [Re; Im].  Residual
norms are preserved exactly, so the near-consistency set is unchanged,
and each complex singular value reappears twice in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class LiftedSystem:
    """Real 2M x 2N representation of a complex M x N system.

    With the blocked layout, complex unknown i has its real part in column
    i and its imaginary part in column N + i.
    """

    a_real: np.ndarray


def lift_matrix(a) -> np.ndarray:
    """Real block form [[Re A, -Im A], [Im A, Re A]] of a complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


def lift_vector(x) -> np.ndarray:
    """Blocked real form [Re x; Im x] of a complex vector."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    return np.concatenate([x.real, x.imag])


def lift_system(a, b) -> tuple[LiftedSystem, np.ndarray]:
    """Lift a complex system (A, b) to its equivalent real form."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"data vector has length {b.shape[0]}, matrix has {a.shape[0]} rows"
        )
    lifted = LiftedSystem(a_real=lift_matrix(a))
    return lifted, lift_vector(b)

