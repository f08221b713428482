"""Scalar reference implementations that only the tests use.

Each function restates, one matrix at a time, an invariant that the library
computes on stacks: the Bloch geometry of a reduced operator (with a None
direction where the radius is below the ``direction_floor`` tolerance), a basis
orthonormality report, the Theorem 1 alignment of one outcome, one
outcome's post-measurement state by explicit tensor contraction
(:func:`apply_kraus_oracle`, the independent check of M_r = E^T W_r^dag),
the d = 3 trigonometric root of Theorem 2, a batch of Haar draws
(:func:`_haar_batch`) and a single one, and the generalized Bell basis
(:func:`clock_and_shift_basis`), which attains the channel-side bound.  More
keep an earlier form of a library function whose output must not change:
the real arithmetic complex product on the operands' own layout
(:func:`real_matmul_reference`, its result assembled by
:func:`complex_from`), one ``format`` call per output cell
(:func:`cells_reference`), the Theorem 2 root with newly allocated
temporaries (:func:`solve_tr_reference`), the completeness and reversal residuals as
products of whole 2 x 2 matrices (:func:`completeness_reference`,
:func:`residual_reference`), the completeness residual in its earlier d = 2
closed form (:func:`qubit_completeness_reference`), the closed-form
reversers written through a copy of adj(M) (:func:`reversers_reference`)
and the d >= 3 reversers assembled from the full SVD
(:func:`svd_reversers_reference`).  The tests hold the stacked library code
to these references.  Three compose library parts that the library calls one
by one: Theorem 1 over whole per-row stacks, with its channel and element
concurrences (:func:`thm1_success_stack`), the alignment of channels and
elements (:func:`_alignment`), and a scan's primary parameter and channel
angle expanded to every row (:func:`_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from telerev.errors import TOLERANCES, DimensionError, DomainError
from telerev.instrument import ReversalPlan
from telerev.jointmeas import JointMeasurement
from telerev.linalg import CMatrix, as_matrix, entries, svd
from telerev.montecarlo import _states
from telerev.qstate import BipartiteState, _check_range, _normalised, _radius, bloch_vectors
from telerev.scenarios import COLUMNS, ScenarioSpec, _axes
from telerev.theorems import _aligned, _thm1_mixed, _thm1_side

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class BlochPoint:
    """Bloch vector of a single-qubit positive unit-trace operator.

    ``direction`` is None when the radius is below the ``direction_floor`` tolerance; callers
    must treat a missing direction as contributing zero to any alignment term.
    """

    radius: float
    direction: np.ndarray | None


def _bloch_point(x, y, z) -> BlochPoint:
    radius = float(_radius(x, y, z))
    below = radius < TOLERANCES["direction_floor"]
    return BlochPoint(radius, None if below else np.array([x, y, z]) / radius)


def channel_operator(state: BipartiteState) -> CMatrix:
    """Reduced channel operator A = conj(E) @ E.T (positive, unit trace)."""
    e = state.coeff
    return e.conj() @ e.T


def reduced_bloch(op: CMatrix) -> BlochPoint:
    """Bloch decomposition op = (I + r n.sigma)/2 of a positive 2x2 operator.

    Raises DomainError when ``op`` is not Hermitian positive with unit trace
    (all within the ``unit`` tolerance); its eigenvalues are (Tr +- r)/2, so positive
    means Tr >= r.
    """
    a = as_matrix(op)
    if a.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 operator, got shape {a.shape}")
    tol = TOLERANCES["unit"]
    if np.max(np.abs(a - a.conj().T)) > tol:
        raise DomainError("operator is not Hermitian")
    if abs(np.trace(a).real - 1.0) > tol or abs(np.trace(a).imag) > tol:
        raise DomainError("operator does not have unit trace")
    (a00, a01), (a10, a11) = a  # Re Tr(a sigma_k) read off the entries
    point = _bloch_point((a01 + a10).real, (a10 - a01).imag, (a00 - a11).real)
    if np.trace(a).real - point.radius < -2.0 * tol:
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


def _alignment(channels: np.ndarray, elements: np.ndarray):
    """:func:`_aligned` of qubit channels and measurement elements."""
    return _aligned(_thm1_side(channels, channels), _thm1_side(elements, elements.swapaxes(-1, -2)))


def thm1_success_stack(coeffs: np.ndarray, elements: np.ndarray):
    """Theorem 1 over qubit channels (..., 2, 2) and measurements
    (..., n, 2, 2): channel concurrences (...), element concurrences
    (..., n) and total success probabilities (...), all from elementwise
    2x2 invariants: :func:`_thm1_side` of each side, then :func:`_thm1_mixed`.
    Raises DomainError if an element is not normalised."""
    _normalised(elements)
    channels = coeffs[..., None, :, :]  # broadcasts against the n elements of its row
    channel = _thm1_side(channels, channels)
    element = _thm1_side(elements, elements.swapaxes(-1, -2))
    return channel[0, ..., 0], element[0], _thm1_mixed(channel, element)


def alignment_x(channel: BipartiteState, jm: JointMeasurement, r: int) -> float | None:
    """Bloch alignment u . n_r of the channel and measurement element r.

    Returns None when either Bloch radius is below the direction floor.
    """
    if channel.d != 2 or jm.d != 2:
        raise DimensionError("alignment is defined for qubits only")
    element = BipartiteState(d=2, coeff=jm.elements[r]).coeff  # checked like a channel
    _, _, x, aligned = _alignment(channel.coeff, element)
    return float(x) if aligned else None


def _rows(entry: ScenarioSpec, t: np.ndarray, second: np.ndarray | None):
    """Parameter columns, primary parameter and channel angle of every row,
    in grid order with t outer."""
    cols, x, _, ix = _axes(entry, t, second)
    return cols, cols["param1"], x[ix]


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


def tr_closed_form_d3(e_r: float) -> float:
    """Closed-form root for d = 3 via the trigonometric cubic solution."""
    e_r = _check_range(e_r, 0, 1, "e_r")
    c = min(max(2.0 * e_r ** 3 - 1.0, -1.0), 1.0)
    return 2.0 / 3.0 + 2.0 / 3.0 * math.cos(math.acos(c) / 3.0 + 2.0 * math.pi / 3.0)


def solve_tr_reference(d, e_r):
    """A frozen copy of ``theorems.solve_tr``, whose roots must keep its bits until a
    change means to move them: the unique t in [0, 1/d] with g(t) = (e_r/d)^d, to a relative 2e-14, over arrays
    d and e_r at once (a float when both are 0-d).  With w = log(d t) and F(w) =
    w + (d-1) log1p((1 - e^w)/(d-1)) = d log e_r, Newton on sqrt(-d log e_r) -
    sqrt(-F) keeps a simple root as e_r -> 1, and bisection on [log(d t0), 0]
    guards it (t0 = (e_r/d)^d (d-1)^(d-1) <= t, as g(t) <= t/(d-1)^(d-1)).  A step
    s in w, relative in t, leaves an error near s^2/3: steps below 1e-7 end it."""
    if not np.all(np.asarray(d) >= 2):  # NaN fails too
        raise DomainError(f"dimension must be >= 2, got {np.min(d)}")
    e_r = _check_range(e_r, 0, 1, "e_r")
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
        if np.all(np.abs(step) <= 1e-7):  # NaN fails; no step at all ends an empty e_r
            w = np.minimum(np.maximum(w - step, lo), hi)
            break
        w = w - step
        w = np.where((lo <= w) & (w < hi), w, 0.5 * (lo + hi))
    t = np.where(inner, np.exp(w) / d, np.where(e == 1.0, 1.0 / d, 0.0))
    return float(t[0]) if np.ndim(e_r) == 0 and np.ndim(d) == 0 else t


def _haar_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar states, as :func:`_states` of freshly drawn normals.  Each sample takes
    its 2d normals in turn, so n draws of one state replay one draw of n on the same
    generator."""
    return _states(rng.standard_normal((n, d, 2)))


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random pure state: 2d standard normals, normalized."""
    return _haar_batch(d, 1, rng)[0]


def clock_and_shift_basis(d: int) -> JointMeasurement:
    """The generalized Bell basis: the d^2 coefficient matrices X^a Z^b / sqrt(d), r = a d + b,
    of the shift X|j> = |j + 1 mod d> and the clock Z|j> = w^j |j>, w = exp(2 pi i / d).
    Every element is maximally entangled, so with a channel of smallest Schmidt
    coefficient lambda_min every outcome succeeds with lambda_min^2 / d and the total
    is d lambda_min^2, the channel-side bound."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    powers = [np.linalg.matrix_power(m, k) for m in (shift, clock) for k in range(d)]
    return JointMeasurement(d, tuple(powers[a] @ powers[d + b] / math.sqrt(d)
                                     for a in range(d) for b in range(d)), f"clock_shift(d={d})")


def complex_from(re: np.ndarray, im: np.ndarray) -> CMatrix:
    """The complex array re + i im, assembled without arithmetic."""
    out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def real_matmul_reference(a: CMatrix, b: CMatrix) -> CMatrix:
    """a @ b in real arithmetic on the operands' own layout, each entry's
    inner sum added in index order, each step a broadcast over the leading
    axes: the bits that ``linalg.product`` must give at d = 2."""
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
    """``linalg.product`` as the references compute it: a @ b, in real
    arithmetic (:func:`real_matmul_reference`) at d = 2 and ``@`` at d >= 3."""
    return real_matmul_reference(a, b) if a.shape[-1] == 2 else a @ b


def completeness_reference(kraus: np.ndarray) -> np.ndarray:
    """``instrument._completeness`` through the matrix product: max-abs entry
    of sum_r M_r^dag M_r - I, the outcomes r on axis -3."""
    d = kraus.shape[-1]
    acc = np.sum(_product_reference(kraus.conj().swapaxes(-1, -2), kraus), axis=-3)
    return np.max(np.abs(acc - np.eye(d)), axis=(-2, -1))


def qubit_completeness_reference(kraus: np.ndarray) -> np.ndarray:
    """``instrument._completeness`` of 2 x 2 operators M = [[a, b], [c, e]] in its
    earlier closed form, before ``linalg.gram`` served it: M^dag M
    has the diagonal |a|^2 + |c|^2, |b|^2 + |e|^2 and the off-diagonal
    conj(a) b + conj(c) e (below it, its conjugate), each summed over the
    outcomes in order: the same bits as the real product and sum."""
    ((ar, ai), (br, bi)), ((cr, ci), (er, ei)) = entries(kraus)

    def outcome_sum(v):  # in outcome order, as np.sum adds along axis -3
        return sum((v[..., r] for r in range(v.shape[-1])), np.zeros(v.shape[:-1]))
    top = outcome_sum((ar * ar + ai * ai) + (cr * cr + ci * ci))
    bottom = outcome_sum((br * br + bi * bi) + (er * er + ei * ei))
    off = complex_from(outcome_sum((ar * br + ai * bi) + (cr * er + ci * ei)),
                       outcome_sum((ar * bi - ai * br) + (cr * ei - ci * er)))
    return np.maximum(np.maximum(np.abs(top - 1.0), np.abs(bottom - 1.0)), np.abs(off))


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


def reversed_reference(plan: ReversalPlan, kraus: np.ndarray) -> np.ndarray:
    """``ReversalPlan.reversed`` as ``montecarlo._reversed`` formed it before it moved
    into the plan: R_r M_r through the matrix product (:func:`_product_reference`),
    zero where degenerate, C-contiguous."""
    zero = np.asarray(plan.degenerate)[..., None, None]
    return np.ascontiguousarray(np.where(zero, 0.0, _product_reference(plan.reversers, kraus)))


def design_states(d: int) -> tuple[np.ndarray, np.ndarray]:
    """States and weights with the Haar second moment, sum_i w_i (psi_i psi_i^dag)^(x2)
    = (I + SWAP)/(d(d+1)): the d basis states e_i, weight (3 - d)/(d(d+1)), and the
    4 C(d, 2) states (e_i + i^k e_j)/sqrt(2), i < j, k = 0..3, weight 1/(d(d+1)).  For
    d >= 4 the basis weights are negative: an exact cubature rule, not a design.  A
    kernel value that is a polynomial of degree at most (2, 2) in psi and conj(psi)
    averages over them to its Haar average exactly.  Returned as the raw normals
    z (m, d, 2) of v = x + iy, unnormalised (entries 1 and i^k, so exact), and the
    weights (m,)."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    z = np.zeros((d + 4 * len(pairs), d, 2))
    z[np.arange(d), np.arange(d), 0] = 1.0
    for n, ((i, j), k) in enumerate(((p, k) for p in pairs for k in range(4)), d):
        z[n, i, 0] = 1.0
        z[n, j] = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[k]  # i^k
    w = np.full(len(z), 1.0 / (d * (d + 1)))
    w[:d] = (3 - d) / (d * (d + 1))
    return z, w

