"""Dense complex linear algebra for small matrices.

The design envelope is local dimension d <= 8; everything is a plain
complex128 numpy array and all functions are pure.  :func:`svd` (with
vectors, for the Monte Carlo leakage guess and :func:`polar_unitary`) and
:func:`singular_values` (values only, for the d >= 3 spectrum) are the package's
two SVD calls; both clamp sigma below :data:`SIGMA_FLOOR` in
:func:`floor_sigmas`.  Both, like
:func:`polar_unitary`, take a stack with the bits of separate calls.
:func:`real_matmul` is a complex product whose bits do not depend on the
CPU kernel, for the Monte Carlo success Gram matrix; the instrument's d = 2
products are written entry by entry in ``instrument._product``, from the
(real, imaginary) views of :func:`entries`, which the d = 2 concurrences and
Bloch vectors read too.  :func:`fold`
reduces a short axis left to right in whole-array operations: the bits of
numpy's own sum or max over an axis shorter than 8, without its per-row
inner loops, for the qubit metrics, residuals, Theorem 1 and the Haar norms.
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


def real_matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    """a @ b for complex stacks (broadcast along leading axes), in real float
    arithmetic: each entry's inner sum is added term by term in index order.
    Neither BLAS nor numpy's complex multiply (whose SIMD loops fuse into FMA
    on some CPUs) is involved, so the bits are the same on every kernel."""
    for k in range(a.shape[-1]):
        xr, xi = a.real[..., :, k, None], a.imag[..., :, k, None]
        yr, yi = b.real[..., None, k, :], b.imag[..., None, k, :]
        tr, ti = xr * yr - xi * yi, xr * yi + xi * yr
        cr, ci = (tr, ti) if k == 0 else (cr + tr, ci + ti)
    return complex_from(cr, ci)


def fold(op, a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``op`` over ``axis`` of ``a``, applied left to right between whole slices:
    op(op(a_0, a_1), a_2) ...  Numpy adds an axis shorter than 8 in the same order,
    so ``fold(np.add, a)`` has the bits of ``np.sum(a, axis=-1)`` there, and
    ``fold(np.maximum, a)`` those of ``np.max`` on any axis; at 8 and above numpy's
    pairwise sum adds in another order."""
    tail = (slice(None),) * (a.ndim - 1 - axis % a.ndim)  # slices, cheaper than np.moveaxis
    return reduce(op, (a[(..., k) + tail] for k in range(a.shape[axis])))


def entries(m: np.ndarray) -> list:
    """Entries [[a, b], [c, e]] of a 2 x 2 stack as (real, imaginary) pairs of views
    with the stack's leading shape."""
    re, im = m.real, m.imag
    return [[(re[..., i, j], im[..., i, j]) for j in (0, 1)] for i in (0, 1)]


def complex_from(re: np.ndarray, im: np.ndarray) -> CMatrix:
    """The complex array re + i im, assembled without arithmetic."""
    out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def polar_unitary(m: CMatrix) -> CMatrix:
    """Unitary U maximizing |Tr(U m)|, the nuclear norm of m; one per matrix of a stack."""
    res = svd(m)
    return res.right @ res.left.conj().swapaxes(-1, -2)
