"""Closed-form success-probability laws and their dimension-d bounds.

For qubits the maximum success probability of faithful teleportation for a
single outcome is a closed function of the channel concurrence E_c, the
element concurrence E_r, and the Bloch alignment x_r between the reduced
channel and element operators.  For d > 2 only a sandwich of bounds in the
per-element G-concurrence is available; the lower bound comes from the unique
root of g(t) = t ((1-t)/(d-1))^(d-1) on [0, 1/d].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .jointmeas import JointMeasurement
from .qstate import DIR_FLOOR, BipartiteState, _normalised, _radius, bloch_vectors, concurrences

__all__ = ["Thm1Inputs", "Thm2Bounds", "thm1_outcome_success", "thm1_success_stack",
           "thm1_total_success", "g_of_t", "solve_tr", "thm2_bounds",
           "saturating_spectrum", "random_basis"]

_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class Thm1Inputs:
    """Scalar inputs of the qubit closed form.

    ``x_r`` may be None when either Bloch radius vanishes; the alignment term
    is then analytically zero regardless of direction.
    """

    e_c: float
    e_r: float
    x_r: float | None


@dataclass(frozen=True)
class Thm2Bounds:
    """Sandwich lower <= P_succ_max <= upper with the per-outcome roots t_r."""

    lower: float
    upper: float
    t_values: tuple[float, ...]


def _in_range(value, name: str, lo=0, hi=1):
    """``value`` as a float array (a scalar as a 0-d one) checked against [lo, hi] within
    _RANGE_TOL, NaN failing, and clipped onto it; a refusal names the first bad entry as a
    plain number, with its index in an array."""
    v = np.asarray(value, dtype=np.float64)
    bad = ~((lo - _RANGE_TOL <= v) & (v <= hi + _RANGE_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{name}{[i] if v.ndim else ''}={float(v.flat[i])} outside [{lo}, {hi}]")
    return np.clip(v, lo, hi)


def thm1_outcome_success(inp: Thm1Inputs) -> float:
    """Closed-form maximum success probability of one outcome (d = 2).

    Evaluates (1/4)[(1 + u v x) - sqrt((1 + u v x)^2 - (E_c E_r)^2)] with
    u = sqrt(1 - E_c^2), v = sqrt(1 - E_r^2).  The root argument is expanded
    into the exactly equal sum of squares (u + v x)^2 + v^2 (1 - x^2) E_c^2
    and the outer subtraction is replaced by its reciprocal form; both
    rewrites avoid catastrophic cancellation near alignment ties, where the
    naive expression loses seven digits.
    """
    e_c, e_r = _in_range(inp.e_c, "e_c"), _in_range(inp.e_r, "e_r")
    x = 0.0 if inp.x_r is None else _in_range(inp.x_r, "x_r", -1)
    u, v = (math.sqrt((1.0 - e) * (1.0 + e)) for e in (e_c, e_r))
    return float(_closed_form(e_c, e_r, u, v, x))


def _closed_form(e_c, e_r, u, v, x):
    # Elementwise over broadcastable arrays; x = 0 where the alignment is
    # undefined.  u, v are the Bloch radii sqrt(1 - E^2); passing them
    # explicitly lets callers that know them to full precision (from Bloch
    # vectors) avoid the ill-conditioned sqrt near E = 1.
    # snapping |x| near or above 1 to +-1 (unit-vector dot products cannot exceed
    # 1) keeps the (anti)parallel discriminant (u -+ v)^2 free of sqrt-amplified noise
    x = np.where(1.0 - np.abs(x) < 1e-12, np.copysign(1.0, x), x)
    b = e_c * e_r
    a = 1.0 + u * v * x
    disc = (u + v * x) ** 2 + v * v * (1.0 - x * x) * e_c * e_c
    den = 4.0 * (a + np.sqrt(disc))
    # E_c E_r = 0 gives exactly 0; the denominator vanishes only as E_c, E_r -> 0
    return np.divide(b * b, den, out=np.zeros(np.broadcast(b, den).shape), where=den > 0.0)


def _alignment(channels: np.ndarray, elements: np.ndarray):
    """Bloch radii u, v, alignment x (0 where undefined) and the mask where x is defined."""
    # B_r = W_r^dag W_r is the reduced operator conj(E) @ E.T of E = W_r^T
    (xc, yc, zc), (xr, yr, zr) = bloch_vectors(channels), bloch_vectors(elements.swapaxes(-1, -2))
    u, v = _radius(xc, yc, zc), _radius(xr, yr, zr)
    aligned = (u >= DIR_FLOOR) & (v >= DIR_FLOOR)
    x = np.divide(xc * xr + yc * yr + zc * zr, u * v, out=np.zeros(v.shape), where=aligned)
    return u, v, x, aligned


def thm1_success_stack(coeffs: np.ndarray, elements: np.ndarray):
    """Theorem 1 over qubit channels (..., 2, 2) and measurements
    (..., n, 2, 2): channel concurrences (...), element concurrences
    (..., n) and total success probabilities (...), all from elementwise
    2x2 invariants.  Raises DomainError if an element is not normalised."""
    _normalised(elements.reshape(-1, 2, 2))
    channels = coeffs[..., None, :, :]  # broadcasts against the n elements of its row
    e_c, e_r = concurrences(channels), concurrences(elements)
    u, v, x, _ = _alignment(channels, elements)
    p = _closed_form(np.minimum(e_c, 1.0), np.minimum(e_r, 1.0), u, v, x)
    return e_c[..., 0], e_r, np.add.reduce(p, axis=-1)


def thm1_total_success(channel: BipartiteState, jm: JointMeasurement) -> float:
    """Closed-form total success probability summed over the four outcomes."""
    if channel.d != 2 or jm.d != 2:
        raise DimensionError("the closed form is defined for qubits only")
    return float(thm1_success_stack(channel.coeff, np.asarray(jm.elements))[2])


def g_of_t(d: int, t: float) -> float:
    """g(t) = t ((1-t)/(d-1))^(d-1), strictly increasing on [0, 1/d]."""
    return t * ((1.0 - t) / (d - 1)) ** (d - 1)


def solve_tr(d, e_r):
    """Unique t in [0, 1/d] with g(t) = (e_r/d)^d, to a relative 2e-14, over arrays
    d and e_r at once (a float when both are 0-d).  With w = log(d t) and F(w) =
    w + (d-1) log1p((1 - e^w)/(d-1)) = d log e_r, Newton on sqrt(-d log e_r) -
    sqrt(-F) keeps a simple root as e_r -> 1, and bisection on [log(d t0), 0]
    guards it (t0 = (e_r/d)^d (d-1)^(d-1) <= t, as g(t) <= t/(d-1)^(d-1)).  A step
    s in w, relative in t, leaves an error near s^2/3: steps below 1e-7 end it."""
    if not np.all(np.asarray(d) >= 2):  # NaN fails too
        raise DomainError(f"dimension must be >= 2, got {np.min(d)}")
    e_r = _in_range(e_r, "e_r")
    e = np.atleast_1d(e_r)
    inner = (0.0 < e) & (e < 1.0)  # e = 0 and e = 1 are set at the end
    k, r2 = d - 1.0, -d * np.log(np.where(inner, e, 0.5))
    s = np.sqrt(r2)
    lo, hi = -r2 - k * np.log1p(1.0 / k), np.zeros_like(r2)
    # start from the series of F at the top where d t0 > 0.2, else from one
    # fixed-point step w <- d log e_r - (F(w) - w) up from log(d t0)
    y = s * np.sqrt(2.0 * k / d)
    w = np.where(lo > math.log(0.2), -y * (1.0 + (k + 2.0) / (6.0 * k) * y),
                 lo - k * np.log1p(-np.exp(lo) / d))
    for _ in range(64):
        um = -np.expm1(w)  # 1 - d t
        rho = np.sqrt(np.maximum(-w - k * np.log1p(um / k), 0.0))
        psi = s - rho
        lo, hi = np.where(psi <= 0.0, w, lo), np.where(psi <= 0.0, hi, w)
        step = psi * rho * (k + um) / (0.5 * d * um)
        if np.abs(step).max() <= 1e-7:
            w = np.minimum(np.maximum(w - step, lo), hi)
            break
        w = w - step
        w = np.where((lo <= w) & (w < hi), w, 0.5 * (lo + hi))
    t = np.where(inner, np.exp(w) / d, np.where(e == 1.0, 1.0 / d, 0.0))
    return float(t[0]) if np.ndim(e_r) == 0 and np.ndim(d) == 0 else t


def thm2_bounds(d: int, e_list) -> Thm2Bounds:
    """Success-probability sandwich for a maximally entangled channel.

    Args:
        d: local dimension, >= 2.
        e_list: the d^2 per-outcome G-concurrences of the measurement.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    es = _in_range(e_list, "e_list")
    if np.size(es) != d * d:
        raise DomainError(f"expected {d * d} entanglement values, got {np.size(es)}")
    ts = tuple(solve_tr(d, es).tolist())
    return Thm2Bounds(lower=sum(ts) / d, upper=sum(es.tolist()) / d ** 2, t_values=ts)


def saturating_spectrum(d: int, e_r: float) -> np.ndarray:
    """Singular values attaining the lower bound for a given G-concurrence.

    The first d-1 values equal sqrt((1-t_r)/(d-1)) and the last equals
    sqrt(t_r); their squares sum to one.
    """
    t = solve_tr(d, e_r)
    lam = np.full(d, math.sqrt((1.0 - t) / (d - 1)))
    lam[-1] = math.sqrt(t)
    return lam


def random_basis(d: int, rng: np.random.Generator) -> JointMeasurement:
    """Complete orthonormal measurement from a Haar-random d^2 x d^2 unitary.

    The unitary mixes the computational product basis; column r, reshaped
    row-major to d x d, becomes the coefficient matrix W_r.
    """
    n = d * d
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * phases
    elements = tuple(q[:, k].reshape(d, d) for k in range(n))
    return JointMeasurement(d=d, elements=elements, label=f"random(d={d})")
