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

from .errors import DimensionError, DomainError, check_integer
from .jointmeas import JointMeasurement
from .linalg import fold, identity_deviation
from .qstate import (DIR_FLOOR, NORM_TOL, BipartiteState, _check_range, _radius,
                     bloch_vectors, concurrences)


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


def thm1_outcome_success(inp: Thm1Inputs) -> float:
    """Closed-form maximum success probability of one outcome (d = 2).

    Evaluates (1/4)[(1 + u v x) - sqrt((1 + u v x)^2 - (E_c E_r)^2)] with
    u = sqrt(1 - E_c^2), v = sqrt(1 - E_r^2).  The root argument is expanded
    into the exactly equal sum of squares (u + v x)^2 + v^2 (1 - x^2) E_c^2
    and the outer subtraction is replaced by its reciprocal form; both
    rewrites avoid catastrophic cancellation near alignment ties, where the
    naive expression loses seven digits.
    """
    e_c, e_r = _check_range(inp.e_c, 0, 1, "e_c"), _check_range(inp.e_r, 0, 1, "e_r")
    x = 0.0 if inp.x_r is None else _check_range(inp.x_r, -1, 1, "x_r")
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


def _thm1_side(states: np.ndarray, reduced: np.ndarray) -> np.ndarray:
    """Theorem 1's invariants of one side, stacked on a new first axis: the concurrences
    of ``states`` and the Bloch components x, y, z and radius of the reduced operators
    conj(E) @ E.T of ``reduced`` (a channel's own E; W_r^T for element r, as
    B_r = W_r^dag W_r is conj(W_r^T) @ W_r)."""
    x, y, z = bloch_vectors(reduced)
    return np.stack([concurrences(states), x, y, z, _radius(x, y, z)])


def _aligned(channel: np.ndarray, element: np.ndarray):
    """Bloch radii u, v, alignment x (0 where undefined) and the mask where x is defined,
    from the :func:`_thm1_side` stacks of channels and elements."""
    _, xc, yc, zc, u = channel
    _, xr, yr, zr, v = element
    aligned = (u >= DIR_FLOOR) & (v >= DIR_FLOOR)
    x = np.divide(xc * xr + yc * yr + zc * zr, u * v, out=np.zeros(v.shape), where=aligned)
    return u, v, x, aligned


def _thm1_mixed(channel: np.ndarray, element: np.ndarray) -> np.ndarray:
    """Total success probabilities (...) from the :func:`_thm1_side` stacks of channels
    (5, ..., 1) and of their measurements' elements (5, ..., n), or of both already
    gathered to (5, ..., n): the alignment and closed form of every outcome, added in
    outcome order."""
    u, v, x, _ = _aligned(channel, element)
    p = _closed_form(np.minimum(channel[0], 1.0), np.minimum(element[0], 1.0), u, v, x)
    return fold(np.add, p)  # n = 4 outcomes: numpy's own order (see linalg.fold)


def thm1_total_success(channel: BipartiteState, jm: JointMeasurement) -> float:
    """Closed-form total success probability summed over the four outcomes: :func:`_thm1_side`
    of each side, then :func:`_thm1_mixed`; raises DimensionError unless the measurement has
    four 2 x 2 elements, and DomainError unless they are orthonormal (a complete measurement)."""
    if channel.d != 2 or jm.d != 2:
        raise DimensionError("the closed form is defined for qubits only")
    elements = jm.stack()
    if elements.shape != (4, 2, 2):
        raise DimensionError(f"expected the 4 elements (4, 2, 2) of a qubit measurement, "
                             f"got shape {elements.shape}")
    w = elements.reshape(4, 4)
    gap = float(identity_deviation(w.conj() @ w.T, 1.0))
    if not gap <= NORM_TOL:  # NaN fails too
        raise DomainError(f"measurement elements are not orthonormal: "
                          f"max |Tr(W_r^dag W_s) - delta_rs| = {gap:.3e}")
    # one elementwise pass over the channel and the four elements, split as (5, 1) and (5, 4)
    states = np.concatenate([channel.coeff[None], elements])
    side = _thm1_side(states, np.concatenate([channel.coeff[None], elements.swapaxes(-1, -2)]))
    return float(_thm1_mixed(side[:, :1], side[:, 1:]))


def g_of_t(d: int, t: float) -> float:
    """g(t) = t ((1-t)/(d-1))^(d-1), strictly increasing on [0, 1/d]."""
    check_integer(d, "dimension", 2)
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
    t = _root(d, np.atleast_1d(_check_range(e_r, 0, 1, "e_r")))
    return float(t[0]) if np.ndim(e_r) == 0 and np.ndim(d) == 0 else t


def _root(d, e: np.ndarray) -> np.ndarray:
    """:func:`solve_tr` of checked d >= 2 and checked e (at least 1-d), for callers
    that have checked their values already."""
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
        if np.all(np.abs(step) <= 1e-7):  # NaN fails; no step at all ends an empty e
            w = np.minimum(np.maximum(w - step, lo), hi)
            break
        w = w - step
        w = np.where((lo <= w) & (w < hi), w, 0.5 * (lo + hi))
    return np.where(inner, np.exp(w) / d, np.where(e == 1.0, 1.0 / d, 0.0))


def thm2_bounds(d: int, e_list) -> Thm2Bounds:
    """Success-probability sandwich for a maximally entangled channel.

    Args:
        d: local dimension, >= 2.
        e_list: the d^2 per-outcome G-concurrences of the measurement.
    """
    check_integer(d, "dimension", 2)
    es = _check_range(e_list, 0, 1, "e_list")
    if np.size(es) != d * d:
        raise DomainError(f"expected {d * d} entanglement values, got {np.size(es)}")
    if es.ndim != 1:
        raise DimensionError(f"e_list must be flat, got shape {es.shape}")
    ts = tuple(_root(d, es).tolist())
    return Thm2Bounds(lower=sum(ts) / d, upper=sum(es.tolist()) / d ** 2, t_values=ts)


def saturating_spectrum(d: int, e_r: float) -> np.ndarray:
    """Singular values attaining the lower bound for a given G-concurrence.

    The first d-1 values equal sqrt((1-t_r)/(d-1)) and the last equals
    sqrt(t_r); their squares sum to one.
    """
    check_integer(d, "dimension", 2)
    t = solve_tr(d, e_r)
    lam = np.full(d, math.sqrt((1.0 - t) / (d - 1)))
    lam[-1] = math.sqrt(t)
    return lam


def random_basis(d: int, rng: np.random.Generator) -> JointMeasurement:
    """Complete orthonormal measurement from a Haar-random d^2 x d^2 unitary.

    The unitary mixes the computational product basis; column r, reshaped
    row-major to d x d, becomes the coefficient matrix W_r.
    """
    check_integer(d, "dimension", 2)
    n = d * d
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * phases
    columns = q.T.copy().reshape(n, d, d)  # one copy in C order; the elements are its views
    return JointMeasurement(d=d, elements=tuple(columns), label=f"random(d={d})")
