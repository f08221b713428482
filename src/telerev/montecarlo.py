"""Haar-random input sampling and empirical estimators.

The estimators serve as the statistical oracle for every closed form in the
package.  Randomness is counter-based (Philox keyed by seed and stream), so
identical (seed, stream) pairs replay bit-for-bit and shards with distinct
stream indices are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, check_integer
from .instrument import Instrument, ReversalPlan, check_plan
from .linalg import fold, polar_unitary, real_matmul, svd

_KEY_LIMIT = 1 << 64

# Samples per chunk of a Haar draw, sized for cache (more than the goldens'
# 2000).  The success kernel is elementwise, so its values do not depend on
# where the chunks split; the overlap, leakage and fidelity kernels multiply
# through BLAS, which rounds a one-row product differently (see _sample).
# The per-sample arrays stay whole: estimate_performance holds succ, overlap
# and f_cond, 24 B per sample; a success estimate, as a scenario row draws it,
# holds succ alone, 8 B.  Every estimator refuses a count over
# MC_BUDGET_BYTES / 24 (about 11.2 million), so one limit serves them all.
# It also caps a scenario's rows in flight: as many rows at once, one per
# thread, as fit in it at 24 B per sample (rows_in_budget).
CHUNK = 8192
MC_BUDGET_BYTES = 1 << 28


@dataclass(frozen=True)
class RngSpec:
    """Reproducible randomness source: 64-bit seed plus shard index.

    Both are Philox key words: integers (numpy ones too) in [0, 2^64).  A
    wider or fractional value would silently replay another key's stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            check_integer(value, name)
            if not 0 <= value < _KEY_LIMIT:
                raise DomainError(f"{name} {value} outside [0, 2^64)")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample stdev / sqrt(n))."""

    mean: float
    std_error: float
    n: int


def _haar_batch(d: int, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """n Haar states as the rows of a complex view of their normals, drawn into
    ``out`` (an (n, d, 2) float buffer, which the states then view) or into a fresh
    array.  Each sample takes its 2d normals in turn, so n draws of one state replay
    one draw of n on the same generator.  |v|^2 comes from numpy's complex multiply,
    in place on conj(v).  Scaling the normals by 1/|v| gives the bits of dividing v
    by |v| + 0j, as numpy's complex division multiplies by the reciprocal, only
    faster; the scale runs over one float column of n normals at a time."""
    z = rng.standard_normal((n, d, 2), out=out)
    v = z.view(np.complex128)[..., 0]
    w = np.conjugate(v)
    s = fold(np.add, np.multiply(w, v, out=w).real)
    np.divide(1.0, np.sqrt(s, out=s), out=s)
    for col in z.reshape(n, 2 * d).T:
        col *= s
    return v


def rows_in_budget(n: int) -> int:
    """How many rows of n >= 1 samples, at 24 B per sample, fit in MC_BUDGET_BYTES at once."""
    return MC_BUDGET_BYTES // (24 * n)


def check_budget(n: int) -> None:
    """Refuse a sample count whose per-sample arrays would exceed MC_BUDGET_BYTES."""
    if rows_in_budget(n) < 1:
        raise DomainError(f"{n} samples need {24 * n} B, over the {MC_BUDGET_BYTES} B budget")


def _sample(d: int, n: int, rng: RngSpec, kernel, k: int = 1) -> np.ndarray:
    """The (k, n) per-sample arrays over n Haar states: ``kernel(phi)`` returns
    k arrays for one chunk's states, each written in place into its row.  The
    near-equal chunks replay the one-shot draw; none holds one sample unless
    n = 1, as a one-row matmul in the BLAS kernels rounds differently.  Every chunk
    is drawn into one buffer, sized by the largest chunk (the first can be one
    sample shorter), and a kernel's arrays, which may view phi, are copied out
    before the next chunk is drawn."""
    check_integer(n, "sample count", 1)
    check_budget(n)
    gen, parts = rng.generator(), max(n // CHUNK, 1)
    ends = [n * j // parts for j in range(parts + 1)]
    out, buf = np.zeros((k, n)), np.empty((-(-n // parts), d, 2))
    for lo, hi in zip(ends, ends[1:]):
        phi = _haar_batch(d, hi - lo, gen, buf[:hi - lo])
        for row, values in zip(out[:, lo:hi], kernel(phi), strict=True):
            row[...] = values
    return out


def _estimate(samples: np.ndarray) -> McEstimate:
    """Mean and standard error of a per-sample row, which is consumed: its deviations
    from the mean are squared in place, in the operations and order of numpy's
    ``np.mean`` and ``np.std(ddof=1)``, so the bits are theirs without an n-sized
    temporary."""
    n = samples.size
    mean, se = np.add.reduce(samples) / n, 0.0
    if n > 1:
        samples -= mean
        np.multiply(samples, samples, out=samples)
        se = float(np.sqrt(np.add.reduce(samples) / (n - 1)) / math.sqrt(n))
    return McEstimate(mean=float(mean), std_error=se, n=n)


def _success_gram(kraus: np.ndarray, plan: ReversalPlan) -> np.ndarray:
    """G = sum_r (R_r M_r)^dag (R_r M_r) of Kraus operators (..., n, d, d), the outcomes added
    in order along axis -3, so a state's success probability sum_r |R_r M_r phi|^2 is
    phi^dag G phi; a degenerate outcome adds a zeroed term, whatever its reverser holds.
    Real arithmetic throughout, so row i of a stack's G is, bit for bit, that row's own."""
    check_plan(plan, kraus)
    a = real_matmul(plan.reversers, kraus)
    terms = real_matmul(a.conj().swapaxes(-1, -2), a)
    terms = np.where(np.asarray(plan.degenerate)[..., None, None], 0.0, terms)
    return fold(np.add, terms, -3)


def _success(g: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """phi^dag G phi of every row of phi for Hermitian G, in real arithmetic:
    sum_i G_ii |phi_i|^2 + 2 sum_{i<j} Re(G_ij conj(phi_i) phi_j), each sum
    added in index order, one column of samples at a time."""
    x, y, d = phi.real.T, phi.imag.T, g.shape[-1]
    diag = reduce(np.add, (g[k, k].real * (x[k] * x[k] + y[k] * y[k]) for k in range(d)))
    cross = reduce(np.add, (g[i, j].real * (x[i] * x[j] + y[i] * y[j])
                            - g[i, j].imag * (x[i] * y[j] - y[i] * x[j])
                            for i in range(d) for j in range(i + 1, d)))
    return diag + 2.0 * cross


def _overlaps(phi: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_r |phi^dag A_r phi|^2 of every row of phi, for the stack ops of the
    A_r^T, the outcomes added in order starting from zeros."""
    phic, out = phi.conj(), np.zeros(phi.shape[0])
    for op in ops:
        out += np.abs(fold(np.add, phic * (phi @ op))) ** 2
    return out


def estimate_performance(inst: Instrument, plan: ReversalPlan, n: int,
                         rng: RngSpec) -> dict[str, McEstimate]:
    """Empirical success probability and conditional fidelity over Haar inputs.

    Returns a dict with keys "p_succ" and "f_cond".  The conditional fidelity
    is the success-weighted output fidelity; it is 1 up to rounding whenever
    the resources are pure.
    """
    kraus = np.asarray(inst.kraus)
    g, zero = _success_gram(kraus, plan), np.asarray(plan.degenerate)[:, None, None]
    ops = np.where(zero, 0.0, plan.reversers @ kraus).swapaxes(-1, -2)
    succ, overlap = _sample(inst.d, n, rng, lambda phi: (_success(g, phi), _overlaps(phi, ops)), 2)
    f_cond = np.where(succ > 0.0, overlap / np.where(succ > 0.0, succ, 1.0), 1.0)
    return {"p_succ": _estimate(succ), "f_cond": _estimate(f_cond)}


def estimate_success(inst: Instrument, plan: ReversalPlan, n: int, rng: RngSpec) -> McEstimate:
    """Empirical success probability alone: equal, bit for bit, to
    ``estimate_performance(inst, plan, n, rng)["p_succ"]``, without the
    overlap and conditional-fidelity work."""
    return _success_estimate(_success_gram(np.asarray(inst.kraus), plan), n, rng)


def _success_estimate(g: np.ndarray, n: int, rng: RngSpec) -> McEstimate:
    """The success estimate of n Haar states from one instrument's Gram matrix G (d, d)."""
    return _estimate(_sample(g.shape[-1], n, rng, lambda phi: (_success(g, phi),))[0])


def estimate_leakage(inst: Instrument, n: int, rng: RngSpec) -> McEstimate:
    """Empirical estimation fidelity with the top-eigenvector guess states."""
    kraus = np.asarray(inst.kraus)
    kt, guesses = kraus.swapaxes(-1, -2), svd(kraus).right[..., :, 0].conj()
    def kernel(phi):
        out = np.zeros(phi.shape[0])
        for mt, guess in zip(kt, guesses):
            out += fold(np.add, np.abs(phi @ mt) ** 2) * np.abs(phi @ guess) ** 2
        return (out,)
    return _estimate(_sample(inst.d, n, rng, kernel)[0])


def estimate_standard_fidelity(inst: Instrument, n: int, rng: RngSpec) -> McEstimate:
    """Empirical average fidelity of the polar-unitary correction protocol."""
    kraus = np.asarray(inst.kraus)
    ops = (polar_unitary(kraus) @ kraus).swapaxes(-1, -2)
    return _estimate(_sample(inst.d, n, rng, lambda phi: (_overlaps(phi, ops),))[0])
