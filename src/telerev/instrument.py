"""Effective quantum instrument of a channel + joint measurement, optimal
probabilistic reversal, and the derived performance metrics.

Outcome r of the joint measurement maps the input through the Kraus operator
M_r = E^T W_r^dag.  The reversing filter R_r = sigma_min M_r^-1 restores any
input exactly with probability sigma_min^2, independent of the input.  Every
metric derives from the singular values alone.  One type,
:class:`ReversalPlan`, holds the spectrum of one instrument or of a stack of
them (:func:`spectrum`); every metric, the reversal residual and the A_r = R_r M_r that
the Monte Carlo reads (:meth:`ReversalPlan.reversed`) are read off it, here alone.

At d = 2 the whole chain (``linalg.product``, the completeness Gram
``linalg.gram``, the closed-form spectrum and reversers, the residuals) is
elementwise real arithmetic, so its bits do not depend on the BLAS kernel or
on numpy's SIMD dispatch.  For d >= 3 the products are ``@``, sigma is one
values-only LAPACK SVD and the reversers R_r = sigma_min M_r^-1 are one
batched LU inverse; no singular vector is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import DimensionError, DomainError
from .jointmeas import JointMeasurement
from .linalg import (SIGMA_FLOOR, as_matrix, entries, floor_sigmas, fold, gram,
                     identity_deviation, product, singular_values)
from .qstate import BipartiteState

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class Instrument:
    """The d^2 effective Kraus operators (d^2, d, d) with sum_r M_r^dag M_r = I, made one
    complex array on construction and refused by name (DimensionError) unless that is
    (n, d, d) with n >= 1; :func:`spectrum` checks its entries finite."""

    d: int
    kraus: np.ndarray
    provenance: str

    def __post_init__(self):
        try:
            kraus = np.asarray(self.kraus, dtype=np.complex128)
        except ValueError:
            raise DimensionError(f"expected Kraus operators (n, d, d) with n >= 1 and "
                                 f"d = {self.d}, got a ragged or non-numeric sequence") from None
        if kraus.ndim != 3 or kraus.shape[0] == 0 or kraus.shape[1:] != (self.d, self.d):
            raise DimensionError(f"expected Kraus operators (n, d, d) with n >= 1 and "
                                 f"d = {self.d}, got shape {kraus.shape}")
        object.__setattr__(self, "kraus", kraus)  # a frozen dataclass


@dataclass(frozen=True)
class PerformanceReport:
    """Summary metrics for one channel + measurement pair.

    ``f_tele_mr`` is the fidelity conditioned on successful reversal, which is
    identically 1 for pure resources; it is carried for symmetry with the
    standard-protocol figure.  ``tradeoff_lhs`` is d(d+1) L + (d-1) P, bounded
    by 2d.
    """

    p_succ_max: float
    f_tele_standard: float
    f_tele_mr: float
    leakage_max: float
    tradeoff_lhs: float


@dataclass(frozen=True)
class ReversalPlan:
    """Singular values, optimal reversers and degenerate flags of one
    instrument, indexed [outcome], or of a stack, indexed [row, outcome].

    Degenerate outcomes (smallest singular value exactly zero) are
    unrecoverable: they carry a zero reverser and zero success probability.
    A stack's row i equals, bit for bit, the plan of that row's instrument.
    ``outcome_success`` and the metrics p_succ, leakage, f_standard and
    tradeoff are computed on first read, so a caller that takes only the
    reversers never pays for them.
    """

    sigmas: np.ndarray
    reversers: np.ndarray
    degenerate: np.ndarray

    @cached_property
    def outcome_success(self) -> np.ndarray:
        smin = self.sigmas[..., -1]
        return smin * smin

    @cached_property
    def _values(self) -> tuple[np.ndarray, ...]:
        s, d = self.sigmas, self.sigmas.shape[-1]
        # d = 2 folds its 2 sigmas and 4 outcomes, to numpy's bits (see linalg.fold)
        total = partial(fold, np.add) if d == 2 else partial(np.add.reduce, axis=-1)
        top, nuclear = s[..., 0], total(s)
        p_succ = total(self.outcome_success)
        leakage = (d + total(top * top)) / (d * (d + 1))
        f_ent = total(nuclear * nuclear) / d ** 2  # polar-unitary correction
        tradeoff = d * (d + 1) * leakage + (d - 1) * p_succ
        return p_succ, leakage, (d * f_ent + 1.0) / (d + 1.0), tradeoff

    p_succ = cached_property(lambda self: self._values[0])
    leakage = cached_property(lambda self: self._values[1])
    f_standard = cached_property(lambda self: self._values[2])
    tradeoff = cached_property(lambda self: self._values[3])

    def residual(self, kraus: np.ndarray) -> np.ndarray:
        """Max-abs deviation of R_r M_r from sigma_min^r I over the recoverable outcomes, per
        row of a stack (:func:`check_plan`): its own product, masked after the reduction, is
        cheaper than :meth:`reversed`, zeroed first and copied to C order.  Folded at d = 2."""
        check_plan(self, kraus)
        dev = identity_deviation(product(self.reversers, kraus), self.sigmas[..., -1])
        dev = np.where(self.degenerate, 0.0, dev)
        return fold(np.maximum, dev) if self.sigmas.shape[-1] == 2 else np.maximum.reduce(dev, -1)

    def reversed(self, kraus: np.ndarray) -> np.ndarray:
        """A_r = R_r M_r of the plan's Kraus operators (..., n, d, d) (:func:`check_plan`),
        zero where degenerate, C-contiguous: numpy's matmul picks BLAS or its own loop by
        layout, which round differently."""
        check_plan(self, kraus)
        zero = np.asarray(self.degenerate)[..., None, None]
        return np.ascontiguousarray(np.where(zero, 0.0, product(self.reversers, kraus)))

    def plan(self, row: int) -> ReversalPlan:
        """Row ``row`` of a stack, as the plan of that row's instrument."""
        return ReversalPlan(self.sigmas[row], self.reversers[row], self.degenerate[row])


def _completeness(kraus: np.ndarray) -> np.ndarray:
    """Max-abs entry of sum_r M_r^dag M_r - I (:func:`linalg.gram`), the outcomes r
    on axis -3."""
    return identity_deviation(gram(kraus), 1.0)


def kraus_stack(coeffs: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stack M_r = E^T W_r^dag (..., d^2, d, d) of channels (..., d, d)
    and measurements (..., d^2, d, d), with each one's completeness residual;
    raises DimensionError if the elements are not (..., n, d, d) with n >= 1 and
    the channels' d, or if the two stacks' leading shapes do not broadcast, and
    DomainError if any instrument is incomplete."""
    if elements.ndim < 3 or elements.shape[-3] == 0 or elements.shape[-1] != elements.shape[-2]:
        raise DimensionError(f"expected measurement elements (..., n, d, d) with n >= 1, "
                             f"got shape {elements.shape}")
    if elements.shape[-1] != coeffs.shape[-1]:
        raise DimensionError(
            f"element shape {elements.shape} does not match channel shape {coeffs.shape}")
    try:
        np.broadcast_shapes(coeffs.shape[:-2], elements.shape[:-3])
    except ValueError:
        raise DimensionError(f"channel stack {coeffs.shape} and element stack {elements.shape} "
                             "do not broadcast along their leading axes") from None
    kraus = product(coeffs.swapaxes(-1, -2)[..., None, :, :], elements.conj().swapaxes(-1, -2))
    residual = _completeness(kraus)
    worst = float(np.max(residual))
    if not worst <= COMPLETENESS_TOL:  # NaN fails too
        raise DomainError(f"instrument is not complete: residual {worst:.3e}")
    return kraus, residual


def _qubit_spectrum(kraus: np.ndarray) -> ReversalPlan:
    """Closed-form plan of 2 x 2 Kraus operators M = [[a, b], [c, e]], in
    real arithmetic.  With F = |M|_F^2 and M M^dag = [[m11, m12], [m12*, m22]],
    disc = (m11 - m22)^2 + 4|m12|^2 is a sum of squares, so
    sigma_min^2 = 2 |det M|^2 / (F + sqrt(disc)) keeps its precision where
    sigma_1 = sigma_2; sigma_max^2 = F - sigma_min^2, and
    R = sigma_min adj(M) / det M."""
    ((ar, ai), (br, bi)), ((cr, ci), (er, ei)) = entries(kraus)
    top = (ar * ar + ai * ai) + (br * br + bi * bi)
    bottom = (cr * cr + ci * ci) + (er * er + ei * ei)
    frob = top + bottom
    det_r = (ar * er - ai * ei) - (br * cr - bi * ci)
    det_i = (ar * ei + ai * er) - (br * ci + bi * cr)
    det2 = det_r * det_r + det_i * det_i
    off_r = (ar * cr + ai * ci) + (br * er + bi * ei)  # m12 = a c* + b e*
    off_i = (ai * cr - ar * ci) + (bi * er - br * ei)
    gap = top - bottom
    big = frob + np.sqrt(gap * gap + 4.0 * (off_r * off_r + off_i * off_i))
    smin2 = np.divide(2.0 * det2, big, out=np.zeros_like(big), where=big > 0.0)
    s = floor_sigmas(np.sqrt(np.stack([frob - smin2, smin2], axis=-1)))
    smin = s[..., 1]
    degenerate = smin == 0.0
    # sigma_min / det M = q conj(det M); degenerate outcomes get zeros
    q = np.divide(smin, det2, out=np.zeros_like(smin), where=~degenerate)
    k, nk = (q * det_r, q * det_i), (-q * det_r, -q * det_i)
    rev = np.empty((2, 2) + smin.shape, dtype=np.complex128)
    # R = k adj(M) = k [[e, -b], [-c, a]]; (-k) x is k (-x) to the bit, signed zeros included
    for (i, j), (xr, xi), (yr, yi) in (((0, 0), (er, ei), k), ((0, 1), (br, bi), nk),
                                       ((1, 0), (cr, ci), nk), ((1, 1), (ar, ai), k)):
        np.add(yr * xr, yi * xi, out=rev.real[i, j, ...])
        np.subtract(yr * xi, yi * xr, out=rev.imag[i, j, ...])
    reversers = rev.transpose(*range(2, rev.ndim), 0, 1)
    return ReversalPlan(s, reversers, degenerate)


def spectrum(kraus: np.ndarray) -> ReversalPlan:
    """The plan of finite Kraus operators (..., n, d, d), one instrument or a
    stack: the closed form at d = 2, else a values-only SVD and one batched
    LU inverse; raises DomainError if an operator with sigma_min at least
    SIGMA_FLOOR is singular to working precision."""
    kraus = as_matrix(kraus, batched=True)
    if kraus.ndim < 3 or kraus.shape[-1] == 0:
        raise DimensionError(
            f"expected Kraus operators (..., n, d, d) with d >= 1, got shape {kraus.shape}")
    if kraus.shape[-3] == 0:
        raise DimensionError(f"expected at least one Kraus operator, got shape {kraus.shape}")
    d = kraus.shape[-1]
    if d == 2:
        return _qubit_spectrum(kraus)
    s = singular_values(kraus)
    smin = s[..., -1]
    degenerate = smin == 0.0
    if degenerate.any():  # inverted as the identity, then zeroed by sigma_min = 0
        kraus = np.where(degenerate[..., None, None], np.eye(d), kraus)
    try:
        inverse = np.linalg.inv(kraus)
    except np.linalg.LinAlgError:
        raise DomainError("a Kraus operator is singular to working precision although "
                          f"its sigma_min is at least SIGMA_FLOOR = {SIGMA_FLOOR:g}") from None
    return ReversalPlan(s, smin[..., None, None] * inverse, degenerate)


def completeness_residual(kraus, d: int) -> float:
    """Max-abs deviation of sum_r M_r^dag M_r from the identity, for one list of
    Kraus operators (n, d, d); raises DimensionError on any other shape."""
    kraus = np.asarray(kraus, dtype=np.complex128)
    if d < 1 or kraus.ndim != 3 or kraus.shape[1:] != (d, d):
        raise DimensionError(
            f"expected Kraus operators (n, d, d) with d >= 1, got shape {kraus.shape} and d = {d}")
    return float(_completeness(kraus))


def build_instrument(channel: BipartiteState, jm: JointMeasurement) -> Instrument:
    """Assemble the instrument M_r = E^T W_r^dag for every outcome r."""
    if channel.d != jm.d:
        raise DimensionError(
            f"channel dimension {channel.d} != measurement dimension {jm.d}")
    kraus, _ = kraus_stack(channel.coeff, jm.stack())
    return Instrument(d=channel.d, kraus=kraus,
                      provenance=f"{channel.label or 'channel'}+{jm.label}")


def optimal_reversal(inst: Instrument) -> ReversalPlan:
    """Optimal reversing filter and success probability for every outcome."""
    return spectrum(inst.kraus)


def success_probability(plan: ReversalPlan) -> float:
    """Total success probability sum_r sigma_min^2, input-independent, of the plan of
    one instrument; raises DimensionError on a stacked plan."""
    if plan.sigmas.ndim != 2:
        raise DimensionError(f"expected the plan of one instrument, got sigmas {plan.sigmas.shape}")
    return float(plan.p_succ)


def leakage_max(inst: Instrument) -> float:
    """Maximum estimation fidelity available to the sender.

    Equals (d + sum_r sigma_max^2) / (d (d + 1)); the optimal per-outcome
    guess is the top eigenvector of M_r^dag M_r.
    """
    return performance_report(inst).leakage_max


def standard_fidelity(inst: Instrument) -> float:
    """Average fidelity of the unitary-correction (standard) protocol.

    Bob applies the trace-maximizing polar unitary per outcome, so the
    entanglement fidelity is sum_r nu_r^2 / d^2 with nu_r the nuclear norm of
    M_r, and the average fidelity is (d F_ent + 1)/(d + 1).
    """
    return performance_report(inst).f_tele_standard


def tradeoff_lhs(inst: Instrument, plan: ReversalPlan) -> float:
    """Left-hand side d(d+1) L_max + (d-1) P_max of the no-cloning bound."""
    return performance_report(inst, plan).tradeoff_lhs


def check_plan(plan: ReversalPlan, kraus: np.ndarray) -> ReversalPlan:
    """``plan``, refused if it was made for Kraus operators of another shape than ``kraus``."""
    if plan.reversers.shape != kraus.shape:
        raise DimensionError(f"plan shape {plan.reversers.shape} != Kraus shape {kraus.shape}")
    return plan


def reversal_residual(inst: Instrument, plan: ReversalPlan) -> float:
    """Max-abs deviation of R_r M_r from sigma_min^r I over recoverable outcomes."""
    return float(plan.residual(inst.kraus))


def performance_report(inst: Instrument, plan: ReversalPlan | None = None) -> PerformanceReport:
    """All scalar metrics of one instrument, read off its plan (made if not given,
    refused if made for another instrument's shape)."""
    plan = optimal_reversal(inst) if plan is None else check_plan(plan, inst.kraus)
    p_succ, leakage, f_standard, tradeoff = plan._values
    return PerformanceReport(p_succ_max=float(p_succ), f_tele_standard=float(f_standard),
                             f_tele_mr=1.0, leakage_max=float(leakage),
                             tradeoff_lhs=float(tradeoff))
