"""Complex-to-real lifting of linear systems.

The interval theory is stated for real systems; a complex system
A_c x_c = b_c is converted to the equivalent real one with block matrix
[[Re A, -Im A], [Im A, Re A]] and blocked vectors [Re; Im].  Residual
norms are preserved exactly, so the near-consistency set is unchanged,
and each complex singular value reappears twice in the real system.
The kernel bounds a complex system on its complex factors; the lifted form
is the reference that ``sense.RowSystem.system`` and
``sense.build_monolithic_system`` build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_2d, _as_vector


@dataclass(frozen=True)
class LiftedSystem:
    """Real 2M x 2N representation of a complex M x N system.

    With the blocked layout, complex unknown i has its real part in column
    i and its imaginary part in column N + i.
    """

    a_real: np.ndarray


def lift_system(a, b) -> tuple[LiftedSystem, np.ndarray]:
    """Lift a complex system (A, b) to its equivalent real form: A to the
    block matrix [[Re A, -Im A], [Im A, Re A]] and b to [Re b; Im b]."""
    a = _as_2d(a)
    b = _as_vector(b, a.shape[0])
    re, im = a.real, a.imag
    return LiftedSystem(a_real=np.block([[re, -im], [im, re]])), np.concatenate([b.real, b.imag])
