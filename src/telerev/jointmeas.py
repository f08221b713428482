"""Rank-one joint-measurement families on two qudits.

A joint measurement is a complete orthonormal set of d^2 entangled kets
|w_r>, each stored as its d x d coefficient matrix W_r with
Tr(W_r^dag W_s) = delta_rs.  Global phases of the kets are kept exactly as
defined by each family; downstream reversal-operator cross-checks are
phase-sensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, OutcomeError, check_integer
from .linalg import CMatrix, as_complex, as_matrix
from .qstate import (_check_dimension, _check_range, _ejm_elements, _normalised, _one_angle,
                     _pack, concurrences)

ZX_ZZ_LIMIT = math.sqrt(3) * math.pi / 4


@dataclass(frozen=True)
class JointMeasurement:
    """d^2 rank-one measurement elements as coefficient matrices W_r, d checked as a
    state's.  The factories check their element stacks normalised, once per stack; any
    measurement has its shapes checked whenever it is stacked (:meth:`stack`) and its
    values when :func:`element_entanglement` first reads them as states.  Their
    G-concurrences are kept from that first read, so later mutations go unseen there."""

    d: int
    elements: tuple[CMatrix, ...]
    label: str

    def __post_init__(self):
        _check_dimension(self.d)

    def stack(self) -> np.ndarray:
        """The elements as one new (n, d, d) array (shape (0,) without elements); raises
        DimensionError, before stacking, on an element that is ragged or not d x d."""
        for w in self.elements:
            if (shape := as_complex(w, "coefficient matrix").shape) != (self.d, self.d):
                raise DimensionError(f"coefficient matrix has shape {shape}, "
                                     f"expected {(self.d, self.d)}")
        return np.asarray(self.elements)

    @cached_property
    def _concurrences(self) -> tuple[float, ...]:
        # each element checked as a BipartiteState would be
        return tuple(concurrences(_normalised(as_matrix(self.stack(), batched=True))).tolist())


def xx_deformed_stack(t) -> np.ndarray:
    """Element stack (rows, 4, 2, 2) of :func:`xx_deformed` over an array of t."""
    th = math.pi / 4 - _check_range(t, 0.0, math.pi / 4, "t")
    s, c = np.sin(th), np.cos(th)
    return _normalised(_pack(th.size, s, 0.0, 0.0, 1j * c, 0.0, s, 1j * c, 0.0,
                             c, 0.0, 0.0, -1j * s, 0.0, c, -1j * s, 0.0))


def xx_deformed(t: float) -> JointMeasurement:
    """Rotated Bell basis from an under-driven XX entangler.

    The rotation angle is theta = pi/4 - t for t in [0, pi/4]; every element
    has concurrence cos(2t).  t = 0 is the ideal limit.
    """
    return JointMeasurement(d=2, elements=tuple(xx_deformed_stack([_one_angle(t, "t")])[0]),
                            label=f"xx_deformed(t={t:.6g})")


def bell_basis() -> JointMeasurement:
    """Ideal (maximally entangled) basis, i.e. the t = 0 limit of xx_deformed.

    The phase convention is inherited from the rotated family, so each element
    is a unitary matrix divided by sqrt(2).
    """
    jm = xx_deformed(0.0)
    return JointMeasurement(d=2, elements=jm.elements, label="bell")


def ejm_stack(t) -> np.ndarray:
    """Element stack (rows, 4, 2, 2) of :func:`ejm` over an array of t."""
    return _normalised(_ejm_elements(_check_range(t, 0.0, math.pi / 2, "t")))


def ejm(t: float) -> JointMeasurement:
    """Elegant joint measurement, iso-entangled for every t in [0, pi/2].

    All four elements have concurrence sqrt(1 - (3/4) cos^2 t); their reduced
    Bloch vectors share the radius (sqrt(3)/2) cos t and point to the corners
    of a regular tetrahedron.  t = pi/2 is locally Bell-equivalent.
    """
    return JointMeasurement(d=2, elements=tuple(ejm_stack([_one_angle(t, "t")])[0]),
                            label=f"ejm(t={t:.6g})")


def zx_zz_stack(t) -> np.ndarray:
    """Element stack (rows, 4, 2, 2) of :func:`zx_zz` over an array of t."""
    t = _check_range(t, 0.0, ZX_ZZ_LIMIT, "t", open_hi=True)
    big_r = np.sqrt(math.pi ** 2 + 16.0 * t * t) / 4.0
    sr, cr = np.sin(big_r), np.cos(big_r)
    a = math.pi / (4.0 * big_r) * sr
    c = t / big_r * sr
    al = a + cr + 1j * c
    be = 1j * (a - cr) - c
    alc, bec = al.conjugate(), be.conjugate()
    return _normalised(0.5 * _pack(t.size, al, be, -be, al, -bec, alc, alc, bec,
                                   al, be, be, -al, -bec, alc, -alc, -bec))


def zx_zz(t: float) -> JointMeasurement:
    """Deformed Bell basis of a ZX entangler with a coherent ZZ error.

    Valid for 0 <= t < sqrt(3) pi/4.  With R(t) = sqrt(pi^2 + 16 t^2)/4 the
    element concurrence is |sin 2R(t)|, which decreases monotonically from 1
    at t = 0 towards 0 at the (excluded) upper end of the range.
    """
    return JointMeasurement(d=2, elements=tuple(zx_zz_stack([_one_angle(t, "t")])[0]),
                            label=f"zx_zz(t={t:.6g})")


def element_entanglement(jm: JointMeasurement, r: int) -> float:
    """G-concurrence of element r in [0, d^2) (the concurrence for d=2), checked like a state."""
    values = jm._concurrences
    check_integer(r, "outcome")
    if not 0 <= r < len(values):
        raise OutcomeError(f"outcome {r} outside [0, {len(values)})")
    return values[r]
