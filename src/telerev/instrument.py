"""Effective quantum instrument of a channel + joint measurement, optimal
probabilistic reversal, and the derived performance metrics.

Outcome r of the joint measurement maps the input through the Kraus operator
M_r = E^T W_r^dag.  The reversing filter R_r = sigma_min Q_r Sigma_r^-1 P_r^dag
(from the SVD M_r = P_r Sigma_r Q_r^dag) restores any input exactly with
probability sigma_min^2, independent of the input.  Every metric derives
from the singular values alone: :func:`spectrum` adds the reversers of a
stack from one full SVD, whose sigmas each plan keeps, and every scalar metric
reads them off a plan (a plan-less one makes its own); only the readers of the
reversal residual compute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError
from .jointmeas import JointMeasurement
from .linalg import CMatrix, svd
from .qstate import BipartiteState

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class Instrument:
    """The d^2 effective Kraus operators with sum_r M_r^dag M_r = I."""

    d: int
    kraus: tuple[CMatrix, ...]
    provenance: str


@dataclass(frozen=True)
class ReversalPlan:
    """Per-outcome optimal reversers and their success probabilities.

    Degenerate outcomes (smallest singular value exactly zero) are
    unrecoverable: they carry a zero reverser and zero success probability.
    ``sigmas`` (d^2, d) are the singular values of the spectrum row it came from.
    """

    reversers: tuple[CMatrix, ...]
    outcome_success: np.ndarray
    degenerate: tuple[bool, ...]
    sigmas: np.ndarray


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
class Spectrum:
    """Metrics and reversers of a stack of instruments, from one stacked SVD.

    Arrays are indexed [row] or [row, outcome]; row i's reversers and
    degenerate flags equal, bit for bit, ``optimal_reversal`` on that row.
    The metrics p_succ, leakage, f_standard and tradeoff are computed on
    first read, so a caller that takes only the reversers never pays for them.
    """

    sigmas: np.ndarray
    reversers: np.ndarray
    degenerate: np.ndarray

    @cached_property
    def _values(self) -> tuple[np.ndarray, ...]:
        return _metrics(self.sigmas.shape[-1], self.sigmas)

    p_succ = cached_property(lambda self: self._values[0])
    leakage = cached_property(lambda self: self._values[1])
    f_standard = cached_property(lambda self: self._values[2])
    tradeoff = cached_property(lambda self: self._values[3])

    def residual(self, kraus: np.ndarray) -> np.ndarray:
        """Each row's reversal residual (see :func:`reversal_residual`)."""
        return _reversal(kraus, self.reversers, self.degenerate, self.sigmas[..., -1])

    def plan(self, row: int) -> ReversalPlan:
        smin = self.sigmas[row, :, -1]
        return ReversalPlan(reversers=tuple(self.reversers[row]),
                            outcome_success=smin * smin,
                            degenerate=tuple(self.degenerate[row].tolist()),
                            sigmas=self.sigmas[row])


def _completeness(kraus: np.ndarray) -> np.ndarray:
    d = kraus.shape[-1]
    acc = np.sum(kraus.conj().swapaxes(-1, -2) @ kraus, axis=-3)
    return np.max(np.abs(acc - np.eye(d)), axis=(-2, -1))


def _reversal(kraus, reversers, degenerate, smin) -> np.ndarray:
    d = kraus.shape[-1]
    dev = np.max(np.abs(reversers @ kraus - smin[..., None, None] * np.eye(d)),
                 axis=(-2, -1))
    return np.max(np.where(degenerate, 0.0, dev), axis=-1)


def _metrics(d: int, s: np.ndarray):
    """P, L, F_standard and the trade-off of singular values s (..., n, d)."""
    smin, top, nuclear = s[..., -1], s[..., 0], np.sum(s, axis=-1)
    p_succ = np.sum(smin * smin, axis=-1)
    leakage = (d + np.sum(top * top, axis=-1)) / (d * (d + 1))
    f_ent = np.sum(nuclear * nuclear, axis=-1) / d ** 2  # polar-unitary correction
    tradeoff = d * (d + 1) * leakage + (d - 1) * p_succ
    return p_succ, leakage, (d * f_ent + 1.0) / (d + 1.0), tradeoff


def kraus_stack(coeffs: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stack M_r = E^T W_r^dag (rows, d^2, d, d) of channel stack
    (rows, d, d) and measurement stack (rows, d^2, d, d), with each row's
    completeness residual; raises DomainError if any row is incomplete."""
    kraus = coeffs.swapaxes(-1, -2)[:, None] @ elements.conj().swapaxes(-1, -2)
    residual = _completeness(kraus)
    worst = float(np.max(residual))
    if not worst <= COMPLETENESS_TOL:  # NaN fails too
        raise DomainError(f"instrument is not complete: residual {worst:.3e}")
    return kraus, residual


def spectrum(kraus: np.ndarray) -> Spectrum:
    """All metrics and reversers of a Kraus stack (rows, n, d, d) from a
    single stacked SVD."""
    d = kraus.shape[-1]
    res = svd(kraus)
    s = res.sigmas
    smin, degenerate = s[..., -1], res.rank_deficient
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=~degenerate[..., None])
    # Keep the order sigma_min ((V Sigma^-1) U^dag): Monte Carlo cells replay
    # bit for bit only from bit-identical reversers, and a reordered product
    # (an einsum, say) rounds differently.  Degenerate outcomes get zeros.
    reversers = smin[..., None, None] * (
        res.right @ (inv[..., None] * np.eye(d)) @ res.left.conj().swapaxes(-1, -2))
    return Spectrum(s, reversers, degenerate)


def _one(matrices) -> np.ndarray:  # per-outcome matrices as a batch of one row
    return np.array([matrices])


def completeness_residual(kraus, d: int) -> float:
    """Max-abs deviation of sum_r M_r^dag M_r from the identity."""
    return float(_completeness(np.reshape(kraus, (1, -1, d, d)))[0])


def build_instrument(channel: BipartiteState, jm: JointMeasurement) -> Instrument:
    """Assemble the instrument M_r = E^T W_r^dag for every outcome r."""
    if channel.d != jm.d:
        raise DimensionError(
            f"channel dimension {channel.d} != measurement dimension {jm.d}")
    kraus, _ = kraus_stack(channel.coeff[None], _one(jm.elements))
    return Instrument(d=channel.d, kraus=tuple(kraus[0]),
                      provenance=f"{channel.label or 'channel'}+{jm.label}")


def apply_kraus_oracle(channel: BipartiteState, jm: JointMeasurement,
                       phi, r: int) -> np.ndarray:
    """Unnormalized post-measurement state by direct tensor contraction.

    Contracts <w_r| against |phi> tensor |Phi> with an explicit sum over all
    d^3 index triples, deliberately avoiding the E^T W_r^dag identity.  Serves
    as the independent oracle for :func:`build_instrument`.
    """
    if channel.d != jm.d:
        raise DimensionError(
            f"channel dimension {channel.d} != measurement dimension {jm.d}")
    v = np.asarray(phi, dtype=np.complex128).ravel()
    d = channel.d
    if v.size != d:
        raise DimensionError(f"input vector has length {v.size}, expected {d}")
    e = channel.coeff
    w = jm.elements[r]
    out = np.zeros(d, dtype=np.complex128)
    for j in range(d):
        acc = 0.0 + 0.0j
        for p in range(d):
            for i in range(d):
                acc += np.conj(w[p, i]) * v[p] * e[i, j]
        out[j] = acc
    return out


def optimal_reversal(inst: Instrument) -> ReversalPlan:
    """Optimal reversing filter and success probability for every outcome."""
    return spectrum(_one(inst.kraus)).plan(0)


def success_probability(plan: ReversalPlan) -> float:
    """Total success probability sum_r sigma_min^2, input-independent."""
    return float(np.sum(plan.outcome_success))


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


def reversal_residual(inst: Instrument, plan: ReversalPlan) -> float:
    """Max-abs deviation of R_r M_r from sigma_min^r I over recoverable outcomes."""
    return float(_reversal(_one(inst.kraus), _one(plan.reversers),
                           np.array(plan.degenerate)[None], plan.sigmas[None, :, -1])[0])


def performance_report(inst: Instrument, plan: ReversalPlan | None = None) -> PerformanceReport:
    """All scalar metrics of one instrument, from the sigma of its plan (made if not given)."""
    sigmas = (optimal_reversal(inst) if plan is None else plan).sigmas
    p_succ, leakage, f_standard, tradeoff = (float(m) for m in _metrics(inst.d, sigmas))
    return PerformanceReport(p_succ_max=p_succ, f_tele_standard=f_standard,
                             f_tele_mr=1.0, leakage_max=leakage, tradeoff_lhs=tradeoff)
