"""Scalar reference implementations that only the tests use.

Each function restates, one matrix at a time, an invariant that the library
computes on stacks: the Bloch geometry of a reduced operator (with a None
direction where the radius is below ``qstate.DIR_FLOOR``), a basis
orthonormality report, the Theorem 1 alignment of one outcome, the d = 3
trigonometric root of Theorem 2 and a single Haar draw.  More keep an
earlier form of a library function whose output must not change: the real
arithmetic complex product on the operands' own layout
(:func:`real_matmul_reference`), one ``format`` call per output cell
(:func:`cells_reference`), the completeness and reversal residuals as
products of whole 2 x 2 matrices (:func:`completeness_reference`,
:func:`residual_reference`), the closed-form reversers written through
a copy of adj(M) (:func:`reversers_reference`) and the d >= 3 reversers
assembled from the full SVD (:func:`svd_reversers_reference`).  The tests
hold the stacked library code to these references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from telerev.errors import DimensionError, DomainError
from telerev.instrument import ReversalPlan
from telerev.jointmeas import JointMeasurement
from telerev.linalg import CMatrix, as_matrix, complex_from, svd
from telerev.montecarlo import _haar_batch
from telerev.qstate import DIR_FLOOR, NORM_TOL, BipartiteState, _radius, bloch_vectors
from telerev.scenarios import COLUMNS
from telerev.theorems import _alignment, _unit_interval

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class BlochPoint:
    """Bloch vector of a single-qubit positive unit-trace operator.

    ``direction`` is None when the radius is below :data:`DIR_FLOOR`; callers
    must treat a missing direction as contributing zero to any alignment term.
    """

    radius: float
    direction: np.ndarray | None


def _bloch_point(x, y, z) -> BlochPoint:
    radius = float(_radius(x, y, z))
    return BlochPoint(radius, None if radius < DIR_FLOOR else np.array([x, y, z]) / radius)


def channel_operator(state: BipartiteState) -> CMatrix:
    """Reduced channel operator A = conj(E) @ E.T (positive, unit trace)."""
    e = state.coeff
    return e.conj() @ e.T


def reduced_bloch(op: CMatrix) -> BlochPoint:
    """Bloch decomposition op = (I + r n.sigma)/2 of a positive 2x2 operator.

    Raises DomainError when ``op`` is not Hermitian positive with unit trace
    (all within 1e-10); its eigenvalues are (Tr +- r)/2, so positive means Tr >= r.
    """
    a = as_matrix(op)
    if a.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 operator, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > NORM_TOL:
        raise DomainError("operator is not Hermitian")
    if abs(np.trace(a).real - 1.0) > NORM_TOL or abs(np.trace(a).imag) > NORM_TOL:
        raise DomainError("operator does not have unit trace")
    (a00, a01), (a10, a11) = a  # Re Tr(a sigma_k) read off the entries
    point = _bloch_point((a01 + a10).real, (a10 - a01).imag, (a00 - a11).real)
    if np.trace(a).real - point.radius < -2.0 * NORM_TOL:
        raise DomainError("operator is not positive semidefinite")
    return point


def channel_bloch(state: BipartiteState) -> BlochPoint:
    """Bloch point of the reduced channel operator A = conj(E) @ E.T."""
    if state.d != 2:
        raise DimensionError("Bloch points are defined for qubits only")
    return _bloch_point(*bloch_vectors(state.coeff))


@dataclass(frozen=True)
class BasisReport:
    """Max-abs deviations from orthonormality and basis completeness."""

    ortho_residual: float
    completeness_residual: float


def validate(jm: JointMeasurement) -> BasisReport:
    """Report orthonormality and completeness residuals (never raises)."""
    n = len(jm.elements)
    vecs = np.stack([w.ravel() for w in jm.elements])
    gram = vecs.conj() @ vecs.T
    ortho = float(np.max(np.abs(gram - np.eye(n))))
    comp = vecs.T @ vecs.conj()
    completeness = float(np.max(np.abs(comp - np.eye(jm.d * jm.d))))
    return BasisReport(ortho_residual=ortho, completeness_residual=completeness)


def element_bloch(jm: JointMeasurement, r: int) -> BlochPoint:
    """Bloch point of B_r = W_r^dag W_r, the reduced operator conj(E) @ E.T of E = W_r^T."""
    return channel_bloch(BipartiteState(d=2, coeff=jm.elements[r].T))


def alignment_x(channel: BipartiteState, jm: JointMeasurement, r: int) -> float | None:
    """Bloch alignment u . n_r of the channel and measurement element r.

    Returns None when either Bloch radius is below the direction floor.
    """
    if channel.d != 2 or jm.d != 2:
        raise DimensionError("alignment is defined for qubits only")
    element = BipartiteState(d=2, coeff=jm.elements[r]).coeff  # checked like a channel
    _, _, x, aligned = _alignment(channel.coeff, element)
    return float(x) if aligned else None


def tr_closed_form_d3(e_r: float) -> float:
    """Closed-form root for d = 3 via the trigonometric cubic solution."""
    e_r = _unit_interval(e_r, "e_r")
    c = min(max(2.0 * e_r ** 3 - 1.0, -1.0), 1.0)
    return 2.0 / 3.0 + 2.0 / 3.0 * math.cos(math.acos(c) / 3.0 + 2.0 * math.pi / 3.0)


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random pure state: 2d standard normals, normalized."""
    return _haar_batch(d, 1, rng)[0]


def real_matmul_reference(a: CMatrix, b: CMatrix) -> CMatrix:
    """a @ b in real arithmetic on the operands' own layout, each entry's
    inner sum added in index order, each step a broadcast over the leading
    axes: the bits that ``linalg.real_matmul`` and, at d = 2,
    ``instrument._product`` must give."""
    for k in range(a.shape[-1]):
        xr, xi = a.real[..., :, k, None], a.imag[..., :, k, None]
        yr, yi = b.real[..., None, k, :], b.imag[..., None, k, :]
        tr, ti = xr * yr - xi * yi, xr * yi + xi * yr
        cr, ci = (tr, ti) if k == 0 else (cr + tr, ci + ti)
    return complex_from(cr, ci)


def cells_reference(cols, n: int):
    """``scenarios._cells`` with one ``format`` call per cell."""
    text = [[format(v, ".15g") for v in np.asarray(cols[c], dtype=np.float64).tolist()]
            if c in cols else ["NA"] * n for c in COLUMNS]
    return list(zip(*text))


def _product_reference(a: CMatrix, b: CMatrix) -> CMatrix:
    """a @ b, in real arithmetic (:func:`real_matmul_reference`) at d = 2."""
    return real_matmul_reference(a, b) if a.shape[-1] == 2 else a @ b


def completeness_reference(kraus: np.ndarray) -> np.ndarray:
    """``instrument._completeness`` through the matrix product: max-abs entry
    of sum_r M_r^dag M_r - I, the outcomes r on axis -3."""
    d = kraus.shape[-1]
    acc = np.sum(_product_reference(kraus.conj().swapaxes(-1, -2), kraus), axis=-3)
    return np.max(np.abs(acc - np.eye(d)), axis=(-2, -1))


def residual_reference(plan: ReversalPlan, kraus: np.ndarray) -> np.ndarray:
    """``ReversalPlan.residual`` through the matrix product: max-abs deviation
    of R_r M_r from sigma_min^r I over the recoverable outcomes, per row."""
    d = kraus.shape[-1]
    dev = np.abs(_product_reference(plan.reversers, kraus)
                 - plan.sigmas[..., -1, None, None] * np.eye(d))
    return np.max(np.where(plan.degenerate[..., None, None], 0.0, dev), axis=(-3, -2, -1))


def reversers_reference(kraus: np.ndarray, plan: ReversalPlan) -> np.ndarray:
    """``instrument._qubit_spectrum``'s reversers R = sigma_min adj(M) / det M
    of 2 x 2 operators M = [[a, b], [c, e]] in their earlier form: adj(M)
    copied with its off-diagonal negated, then one ``complex_from``.  sigma_min
    and the degenerate flags are read off ``plan``."""
    (ar, br), (cr, er) = np.moveaxis(kraus.real, (-2, -1), (0, 1))
    (ai, bi), (ci, ei) = np.moveaxis(kraus.imag, (-2, -1), (0, 1))
    det_r = (ar * er - ai * ei) - (br * cr - bi * ci)
    det_i = (ar * ei + ai * er) - (br * ci + bi * cr)
    det2 = det_r * det_r + det_i * det_i
    smin, degenerate = plan.sigmas[..., -1], plan.degenerate
    # sigma_min / det M = q conj(det M); degenerate outcomes get zeros
    q = np.divide(smin, det2, out=np.zeros_like(smin), where=~degenerate)
    kr, ki = (q * det_r)[..., None, None], (q * det_i)[..., None, None]
    adj = kraus[..., ::-1, ::-1].swapaxes(-1, -2).copy()  # [[e, -b], [-c, a]]
    adj[..., 0, 1] = -adj[..., 0, 1]
    adj[..., 1, 0] = -adj[..., 1, 0]
    return complex_from(kr * adj.real + ki * adj.imag, kr * adj.imag - ki * adj.real)


def svd_reversers_reference(kraus: np.ndarray) -> np.ndarray:
    """``instrument.spectrum``'s d >= 3 reversers in their earlier form, from
    the full SVD M = U Sigma V^dag of every operator: sigma_min ((V Sigma^-1)
    U^dag), zero on the degenerate outcomes."""
    res = svd(kraus)
    s = res.sigmas
    smin, degenerate = s[..., -1], res.rank_deficient
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=~degenerate[..., None])
    return smin[..., None, None] * (
        res.right @ (inv[..., None] * np.eye(kraus.shape[-1])) @ res.left.conj().swapaxes(-1, -2))
