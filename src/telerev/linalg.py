"""Dense complex linear algebra for small matrices.

The design envelope is local dimension d <= 8; everything is a plain
complex128 numpy array and all functions are pure.  :func:`svd` (with
vectors, for the Monte Carlo leakage guess and :func:`polar_unitary`) and
:func:`singular_values` (values only, for the d >= 3 spectrum) are the
package's two SVD calls; both clamp sigma below :data:`SIGMA_FLOOR` in
:func:`floor_sigmas`.  Both, like :func:`polar_unitary`, take a stack with
the bits of separate calls.  :func:`product` is the package's one matrix
product, of M_r = E^T W_r^dag and R_r M_r, and :func:`gram` its one sum
sum_r A_r^dag A_r, of the completeness gate and the Monte Carlo success Gram:
at d = 2 each entry in real arithmetic from the (real, imaginary) views of
:func:`entries`, which the d = 2 concurrences and Bloch vectors read too, so
their bits do not depend on the BLAS kernel or numpy's SIMD loops; at d >= 3
they are ``@``.  :func:`identity_deviation` (max |X - c I|, one numpy reduction
at every d) serves both gates and Theorem 1.  :func:`fold` reduces a short axis
left to right in whole-array operations: the bits of numpy's own sum or max over
an axis shorter than 8, without its per-row inner loops, for the qubit metrics,
the reversal residual's outcomes, Gram sums, Theorem 1 and the Haar norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionError, DomainError

# Singular values below this are clamped to exact zeros (rank deficiency).
SIGMA_FLOOR = 1e-12

CMatrix = np.ndarray


def as_matrix(m, batched: bool = False) -> CMatrix:
    """Coerce ``m`` to a complex matrix (a stack of square ones if ``batched``),
    rejecting non-finite entries with one check over the whole array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or (a.ndim != 2 and not batched):
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    if batched and a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Decomposition m = left @ diag(sigmas) @ right^dagger.

    ``sigmas`` is sorted descending; values below :data:`SIGMA_FLOOR` are
    exactly zero and flagged through ``rank_deficient``.  For a stack, every
    field carries its leading axes (``rank_deficient`` as a boolean array).
    """

    left: CMatrix
    sigmas: np.ndarray
    right: CMatrix
    rank_deficient: bool | np.ndarray


def svd(m: CMatrix) -> SvdResult:
    """SVD of a square matrix, or of a stack of them along leading axes: one
    call for the stack, matrix for matrix the same bits as separate calls; raises
    DimensionError on an empty (0 x 0) matrix."""
    a = as_matrix(m, batched=True)
    if a.shape[-1] == 0:
        raise DimensionError(f"expected a square matrix with d >= 1, got shape {a.shape}")
    u, s, vh = np.linalg.svd(a)
    s = floor_sigmas(s)
    deficient = s[..., -1] == 0.0
    return SvdResult(left=u, sigmas=s, right=vh.conj().swapaxes(-1, -2),
                     rank_deficient=bool(deficient) if a.ndim == 2 else deficient)


def singular_values(a: CMatrix) -> np.ndarray:
    """The sigmas of :func:`svd` (descending, floored) without the vectors,
    of a square matrix or a stack along leading axes already checked by
    :func:`as_matrix`: one LAPACK call."""
    return floor_sigmas(np.linalg.svd(a, compute_uv=False))


def floor_sigmas(s: np.ndarray) -> np.ndarray:
    """Set the singular values below :data:`SIGMA_FLOOR` to exact zeros, in
    place, and return ``s``."""
    s[s < SIGMA_FLOOR] = 0.0
    return s


def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y of stacks broadcast along leading axes; at d = 2 each entry in real
    arithmetic, its two products added in index order, written entries first
    and returned as a (..., 2, 2) view (see the module docstring)."""
    if x.shape[-1] != 2:
        return x @ y
    shape = np.broadcast_shapes(x.shape, y.shape)
    # an operand that broadcasts (a channel against its outcomes) is copied out to the
    # common shape: read in place, its entries would split every operation below into
    # inner loops as short as the axis it broadcasts along
    xs, ys = (entries(m if m.shape == shape else np.broadcast_to(m, shape).copy())
              for m in (x, y))
    out = np.empty((2, 2) + shape[:-2], dtype=np.complex128)
    for i in (0, 1):
        (pr, pi), (qr, qi) = xs[i]
        for j in (0, 1):  # x_i0 y_0j + x_i1 y_1j
            (ar, ai), (cr, ci) = ys[0][j], ys[1][j]
            np.add(pr * ar - pi * ai, qr * cr - qi * ci, out=out.real[i, j, ...])
            np.add(pr * ai + pi * ar, qr * ci + qi * cr, out=out.imag[i, j, ...])
    return out.transpose(*range(2, out.ndim), 0, 1)


def fold(op, a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``op`` over ``axis`` of ``a``, applied left to right between whole slices:
    op(op(a_0, a_1), a_2) ...  Numpy adds an axis shorter than 8 in the same order,
    so ``fold(np.add, a)`` has the bits of ``np.sum(a, axis=-1)`` there, and
    ``fold(np.maximum, a)`` those of ``np.max`` on any axis; at 8 and above numpy's
    pairwise sum adds in another order."""
    tail = (slice(None),) * (a.ndim - 1 - axis % a.ndim)  # slices, cheaper than np.moveaxis
    return reduce(op, (a[(..., k) + tail] for k in range(a.shape[axis])))


def gram(a: np.ndarray) -> np.ndarray:
    """sum_r a_r^dag a_r of a stack (..., n, d, d), the outcomes r on axis -3 added
    in order.  At d = 2, with a = [[a, b], [c, e]], the entries |a|^2 + |c|^2,
    conj(a) b + conj(c) e, conj(b) a + conj(e) c and |b|^2 + |e|^2 in real
    arithmetic, folded over the outcomes, the diagonal's imaginary parts +0: the
    bits of ``fold(np.add, product(a^dag, a), -3)``, returned as a (..., 2, 2)
    view.  At d >= 3, or with no outcome, ``np.add.reduce`` (the bits of ``np.sum``)
    of ``@``."""
    if a.shape[-1] != 2 or a.shape[-3] == 0:
        return np.add.reduce(a.conj().swapaxes(-1, -2) @ a, axis=-3)
    ((ar, ai), (br, bi)), ((cr, ci), (er, ei)) = entries(a)
    ab, ba, ce, ec = ar * bi, ai * br, cr * ei, ci * er
    terms = np.empty((5,) + ar.shape)  # every outcome's term of each sum, folded at once
    np.add(ar * ar + ai * ai, cr * cr + ci * ci, out=terms[0])
    np.add(br * br + bi * bi, er * er + ei * ei, out=terms[1])
    np.add(ar * br + ai * bi, cr * er + ci * ei, out=terms[2])
    np.add(ab - ba, ce - ec, out=terms[3])
    # its own sum: the negated entry above would turn a real operator's +0 into -0
    np.add(ba - ab, ec - ce, out=terms[4])
    top, bottom, off, above, below = fold(np.add, terms)
    out = np.zeros((2, 2) + top.shape, dtype=np.complex128)
    re, im = out.real, out.imag
    re[0, 0], re[0, 1], re[1, 0], re[1, 1], im[0, 1], im[1, 0] = top, off, off, bottom, above, below
    return out.transpose(*range(2, out.ndim), 0, 1)


def identity_deviation(dev: np.ndarray, scale) -> np.ndarray:
    """Max-abs entry of dev - scale I per matrix of a stack (..., d, d), ``scale`` a number
    or one per matrix; consumes ``dev`` (its diagonal shifted in place)."""
    diag = np.einsum("...ii->...i", dev.real)  # a writeable view
    diag -= np.asarray(scale)[..., None]
    return np.maximum.reduce(np.abs(dev), axis=(-2, -1))


def entries(m: np.ndarray) -> list:
    """Entries [[a, b], [c, e]] of a 2 x 2 stack as (real, imaginary) pairs of views
    with the stack's leading shape."""
    re, im = m.real, m.imag
    return [[(re[..., i, j], im[..., i, j]) for j in (0, 1)] for i in (0, 1)]


def polar_unitary(m: CMatrix) -> CMatrix:
    """Unitary U maximizing |Tr(U m)|, the nuclear norm of m; one per matrix of a stack."""
    res = svd(m)
    return res.right @ res.left.conj().swapaxes(-1, -2)
