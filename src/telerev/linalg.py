"""Dense complex linear algebra for small matrices.

The design envelope is local dimension d <= 8; everything is a plain
complex128 numpy array and all functions are pure, so the module is safe to
use from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    call for the stack, matrix for matrix the same bits as separate calls."""
    a = as_matrix(m, batched=True)
    u, s, vh = np.linalg.svd(a)
    s = np.where(s < SIGMA_FLOOR, 0.0, s)
    deficient = s[..., -1] == 0.0
    return SvdResult(left=u, sigmas=s, right=vh.conj().swapaxes(-1, -2),
                     rank_deficient=bool(deficient) if a.ndim == 2 else deficient)


def real_matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    """a @ b for complex stacks (broadcast along leading axes), in real float
    arithmetic: each entry's inner sum is added term by term in index order.
    Neither BLAS nor numpy's complex multiply (whose SIMD loops fuse into FMA
    on some CPUs) is involved, so the bits are the same on every kernel.  The
    operands are copied batch-last, as (rows, cols, batch) real and imaginary
    planes, so each step is one contiguous loop over the whole batch."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    ar, ai = _planes(a, batch)
    br, bi = _planes(b, batch)
    for k in range(ar.shape[1]):
        xr, xi, yr, yi = ar[:, k, None], ai[:, k, None], br[None, k], bi[None, k]
        tr, ti = xr * yr - xi * yi, xr * yi + xi * yr
        cr, ci = (tr, ti) if k == 0 else (cr + tr, ci + ti)
    shape, back = cr.shape[:2] + batch, (*range(2, len(batch) + 2), 0, 1)  # to (*batch, rows, cols)
    return complex_from(cr.reshape(shape).transpose(back), ci.reshape(shape).transpose(back))


def _planes(m: CMatrix, batch: tuple) -> np.ndarray:
    """Real and imaginary parts of ``m`` broadcast to ``batch``, each copied
    batch-last into one contiguous (rows, cols, batch size) plane."""
    planes = np.empty((2,) + m.shape[-2:] + batch)
    first = planes.transpose(0, *range(3, planes.ndim), 1, 2)  # (2, *batch, rows, cols)
    first[0], first[1] = m.real, m.imag
    return planes.reshape(2, *m.shape[-2:], -1)


def complex_from(re: np.ndarray, im: np.ndarray) -> CMatrix:
    """The complex array re + i im, assembled without arithmetic."""
    out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def polar_unitary(m: CMatrix) -> CMatrix:
    """Unitary U maximizing |Tr(U m)|; the maximum equals the nuclear norm of m."""
    res = svd(m)
    return res.right @ res.left.conj().T
