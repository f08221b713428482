"""Pure bipartite states as coefficient matrices.

A pure state |Phi> = sum_ij E_ij |i>|j> is stored through its d x d
coefficient matrix E with Tr(E^dag E) = 1.  The module provides the channel
families used throughout the package, the two-qubit concurrence and its
d-dimensional generalization, and the Bloch vectors of a stack of reduced
channel operators.

Convention: the Pauli vector is (sigma_x, sigma_y, sigma_z) in the
computational basis, and the reduced channel operator is A = conj(E) @ E.T
(not E^dag E; the two differ for complex E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOLERANCES, DimensionError, DomainError, check_integer
from .linalg import CMatrix, as_complex, as_matrix, determinant, entries


@dataclass(frozen=True)
class BipartiteState:
    """Pure bipartite state on d x d, held as its coefficient matrix."""

    d: int
    coeff: CMatrix
    label: str = ""

    def __post_init__(self):
        _check_dimension(self.d)
        e = as_matrix(self.coeff, name="coefficient matrix")
        if e.shape != (self.d, self.d):
            raise DimensionError(
                f"coefficient matrix has shape {e.shape}, expected {(self.d, self.d)}")
        if not abs(np.vdot(e, e).real - 1.0) <= TOLERANCES["unit"]:  # cheaper than _normalised
            _normalised(e[None])  # raises, naming the norm
        object.__setattr__(self, "coeff", e)

    @classmethod
    def from_vector(cls, vec, label: str = "") -> "BipartiteState":
        """Build a state from d^2 amplitudes ordered as |i>|j> (row-major)."""
        v = as_complex(vec, "amplitude vector").ravel()
        d = math.isqrt(v.size)
        if d * d != v.size:
            raise DimensionError(f"amplitude vector of length {v.size} is not square")
        return cls(d=d, coeff=v.reshape(d, d), label=label)


def _check_dimension(d) -> None:
    """Refuse a local dimension that is not an integer, or is below 2 (DimensionError)."""
    check_integer(d, "local dimension")
    if d < 2:
        raise DimensionError(f"local dimension must be >= 2, got {d}")


def _check_range(values, lo, hi, name: str, open_hi: bool = False) -> np.ndarray:
    """The one domain check of every bounded parameter: ``values`` as a float array checked
    at once against [lo, hi], or [lo, hi) if ``open_hi``, within the ``domain_end`` tolerance
    (NaN fails), and clipped onto it.  A refusal names the first bad entry, by flat index if
    there are several."""
    try:
        v, tol = np.asarray(values, dtype=np.float64), TOLERANCES["domain_end"]
    except (TypeError, ValueError):
        raise DomainError(f"{name}: got a ragged or non-numeric sequence") from None
    below_hi = v < hi if open_hi else v <= hi + tol
    bad = ~((lo - tol <= v) & below_hi)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{name}{f'[{i}]' if v.size > 1 else ''}={float(v.flat[i])!r} "
                          f"outside [{lo!r}, {hi!r}{')' if open_hi else ']'}")
    return np.minimum(np.maximum(v, lo), hi)


def _one_angle(value, name: str):
    """``value`` if it is one number: an array or a string would pass the range
    check (a string is parsed) and fail only as a scalar factory's label is formatted."""
    if isinstance(value, (str, bytes, list, tuple)) or np.ndim(value) != 0:
        raise DomainError(f"{name} must be a single number, got {value!r}")
    return value


def _normalised(coeffs: np.ndarray) -> np.ndarray:
    """Check Tr(E^dag E) = 1 for a stack of coefficient matrices (..., d, d) at once;
    the refusal names the first bad norm in C order."""
    norms = np.real(np.einsum("...ij,...ij->...", coeffs.conj(), coeffs))
    bad = ~(np.abs(norms - 1.0) <= TOLERANCES["unit"])  # NaN fails
    if bad.any():
        raise DomainError(
            f"state is not normalized: Tr(E^dag E) = {float(norms[bad][0])!r}")
    return coeffs


def _pack(n: int, *entries) -> np.ndarray:
    """Complex stack of n 2x2 matrices (4 entries) or of n sets of four (16),
    filled row-major from arrays of length n or scalars."""
    out = np.empty((n, len(entries)), dtype=np.complex128)
    for k, x in enumerate(entries):
        out[:, k] = x
    return out.reshape((n, len(entries) // 4, 2, 2) if len(entries) > 4 else (n, 2, 2))


def max_entangled_stack(d: int, rows: int) -> np.ndarray:
    """``rows`` copies of the coefficient matrix I/sqrt(d)."""
    _check_dimension(d)
    check_integer(rows, "row count", 0)
    one = (np.eye(d) / math.sqrt(d)).astype(np.complex128)
    return _normalised(np.repeat(one[None], rows, axis=0))


def max_entangled(d: int) -> BipartiteState:
    """Maximally entangled state with coefficient matrix I/sqrt(d); d is checked as
    :func:`max_entangled_stack` checks it, and the norm once, by the state."""
    _check_dimension(d)
    return BipartiteState(d=d, coeff=(np.eye(d) / math.sqrt(d)).astype(np.complex128),
                          label=f"max_entangled(d={d})")


def schmidt_stack(phi, basis: str = "z") -> np.ndarray:
    """Coefficient stack of :func:`schmidt_channel` over an array of angles."""
    phi = _check_range(phi, 0.0, math.pi / 4, "phi")
    c, s = np.cos(phi), np.sin(phi)
    b = str(basis).lower()  # None and other non-strings fall through to the refusal
    if b == "z":
        coeff = _pack(phi.size, c, 0.0, 0.0, s)
    elif b == "y":
        # |0_y> = (|0> + i|1>)/sqrt2, |1_y> = (|0> - i|1>)/sqrt2
        coeff = 0.5 * _pack(phi.size, c + s, 1j * (c - s), 1j * (c - s), -(c + s))
    else:
        raise DomainError(f"unknown basis {basis!r}; expected 'z' or 'y'")
    return _normalised(coeff)


def schmidt_channel(phi: float, basis: str = "z") -> BipartiteState:
    """Two-qubit Schmidt-form channel cos(phi)|00> + sin(phi)|11>.

    Args:
        phi: Schmidt angle in [0, pi/4]; the concurrence is sin(2 phi).
        basis: "z" for the computational basis, "y" for the same state written
            in the sigma_y eigenbasis |0_y>, |1_y>.
    """
    return BipartiteState(d=2, coeff=schmidt_stack([_one_angle(phi, "phi")], basis)[0],
                          label=f"schmidt(phi={phi:.6g},{basis.lower()})")


def _ejm_elements(t: np.ndarray) -> np.ndarray:
    """Elegant measurement stack (rows, 4, 2, 2); element 0 is :func:`ejm_channel`."""
    pm = (1.0 - np.exp(-1j * t)) / math.sqrt(2)
    pp = (1.0 + np.exp(-1j * t)) / math.sqrt(2)
    e = lambda k: np.exp(1j * k * math.pi / 4)
    return 0.5 * _pack(t.size, e(-1), pm, pp, e(-3), e(3), pm, pp, e(1),
                       e(1), -pp, -pm, e(3), e(-3), -pp, -pm, e(-1))


def ejm_channel_stack(s) -> np.ndarray:
    """Coefficient stack of :func:`ejm_channel` over an array of angles."""
    return _normalised(_ejm_elements(_check_range(s, 0.0, math.pi / 2, "s"))[:, 0].copy())


def ejm_channel(s: float) -> BipartiteState:
    """Channel family aligned with outcome 0 of the elegant joint measurement.

    Its reduced Bloch direction is antiparallel to the measurement direction
    n_0 and its concurrence is sqrt(1 - (3/4) cos^2 s) for s in [0, pi/2].
    """
    return BipartiteState(d=2, coeff=ejm_channel_stack([_one_angle(s, "s")])[0],
                          label=f"ejm_channel(s={s:.6g})")


def concurrences(coeffs: np.ndarray) -> np.ndarray:
    """G-concurrence d |det E|^(2/d) of each matrix of a stack.  For d = 2 it is 2|ad - bc|,
    in real arithmetic on the entries' views (:func:`linalg.determinant`) and
    |det| = sqrt(re^2 + im^2)."""
    e = np.asarray(coeffs)
    d = e.shape[-1]
    if d != 2:
        return d * np.abs(np.linalg.det(e)) ** (2.0 / d)
    det_r, det_i = determinant(e)
    return 2.0 * np.sqrt(det_r * det_r + det_i * det_i)


def bloch_vectors(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch components (x, y, z) of the reduced operators conj(E) @ E.T of a stack of
    2x2 coefficient matrices [[a, b], [c, e]], in real arithmetic on the entries' views:
    A_01 = conj(a) c + conj(b) e and A_00 - A_11 = |a|^2 + |b|^2 - |c|^2 - |e|^2, added
    left to right, each product in numpy's own complex order."""
    ((ar, ai), (br, bi)), ((cr, ci), (er, ei)) = entries(coeffs)
    off_r = (ar * cr + ai * ci) + (br * er + bi * ei)  # A_01
    off_i = (ar * ci - ai * cr) + (br * ei - bi * er)
    z = (((ar * ar + ai * ai) + (br * br + bi * bi)) - (cr * cr + ci * ci)) - (er * er + ei * ei)
    return 2.0 * off_r, -2.0 * off_i, z


def _radius(x, y, z):  # Theorem 1's Bloch radii u and v
    return np.sqrt(x * x + y * y + z * z)


def concurrence(state: BipartiteState) -> float:
    """Two-qubit concurrence 2|det E| of a pure state."""
    if state.d != 2:
        raise DimensionError("concurrence is defined for d=2; use g_concurrence")
    return float(concurrences(state.coeff))


def g_concurrence(state: BipartiteState) -> float:
    """G-concurrence d |det E|^(2/d) = d (prod of singular values of E)^(2/d): the
    concurrence for d = 2, zero on rank-deficient coefficient matrices."""
    return float(concurrences(state.coeff))
