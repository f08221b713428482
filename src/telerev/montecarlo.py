"""Haar-random input sampling and empirical estimators.

The estimators serve as the statistical oracle for every closed form in the
package.  Randomness is counter-based (Philox keyed by seed and stream), so
identical (seed, stream) pairs replay bit-for-bit and shards with distinct
stream indices are independent.

Each chunk of a draw reaches its kernel as raw normals z (m, d, 2), the state
v = x + iy of each sample unnormalised.  The success kernel, which every
scenario row runs, reads v^dag G v / |v|^2 straight from them in real multiply,
add, subtract and divide, so its bits do not depend on numpy's SIMD loops; the
overlap, leakage and fidelity kernels first normalise the states in place
(:func:`_states`).  A scenario draws its rows on one thread pool per run
(:func:`_success_rows`); G = gram(ReversalPlan.reversed) = P_succ I under the
optimal reversal, so each sample returns P_succ up to rounding (tests/test_laws.py).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, check_integer
from .instrument import Instrument, ReversalPlan
from .linalg import fold, gram, polar_unitary, svd

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
# thread, as fit in it at 24 B per sample (rows_in_budget).  CHUNK also sizes
# a scenario's Monte Carlo batch (_success_rows): the consecutive rows one pool
# task draws hold at most CHUNK samples (one row if a row holds more than
# CHUNK / 2), so that a short row does not pay for a future of its own.
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


def _states(z: np.ndarray) -> np.ndarray:
    """The unit states v / |v| of the normals v = x + iy of every sample of z (m, d, 2),
    normalised in place and returned as a complex (m, d) view of z.  |v|^2 comes from
    numpy's complex multiply, in place on conj(v).  Scaling the normals by 1/|v| gives
    the bits of dividing v by |v| + 0j, as numpy's complex division multiplies by the
    reciprocal, only faster; the scale runs over one float column of m normals at a time."""
    m, d = z.shape[:2]
    v = z.view(np.complex128)[..., 0]
    w = np.conjugate(v)
    s = fold(np.add, np.multiply(w, v, out=w).real)
    np.divide(1.0, np.sqrt(s, out=s), out=s)
    for col in z.reshape(m, 2 * d).T:
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
    """The (k, n) per-sample arrays over n Haar states: ``kernel(z)`` returns k arrays for
    one chunk's raw normals z (m, d, 2), each written in place into its row.  The
    near-equal chunks replay the one-shot draw; none holds one sample unless n = 1, as a
    one-row matmul in the BLAS kernels rounds differently.  Every chunk is drawn into one
    buffer, sized by the largest chunk (the first can be one sample shorter), and a
    kernel's arrays, which may view z, are copied out before the next chunk is drawn;
    every entry of the output is written, so it starts empty."""
    check_integer(n, "sample count", 1)
    check_budget(n)
    gen, parts = rng.generator(), max(n // CHUNK, 1)
    ends = [n * j // parts for j in range(parts + 1)]
    out, buf = np.empty((k, n)), np.empty((-(-n // parts), d, 2))
    for lo, hi in zip(ends, ends[1:]):
        z = gen.standard_normal((hi - lo, d, 2), out=buf[:hi - lo])
        for row, values in zip(out[:, lo:hi], kernel(z), strict=True):
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


def _success(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The success v^dag G v / |v|^2 of the Haar state of every sample's normals
    v = x + iy in z (m, d, 2), for Hermitian G, with no state formed.  With
    s_k = x_k^2 + y_k^2: the terms G_kk s_k (k = 0, ..., d - 1), then, for each i < j in
    order, 2 Re G_ij (x_i x_j + y_i y_j) and -2 Im G_ij (x_i y_j - y_i x_j), added one
    by one into a running sum, which is divided by |v|^2 = s_0 + s_1 + ...  Only IEEE
    multiply, add, subtract and divide, one column of samples at a time, so the bits do
    not depend on numpy's SIMD loops; the scale of v cancels."""
    x, y, (m, d) = z[..., 0].T, z[..., 1].T, z.shape[:2]
    # num alone outlives the call, so the three scratch rows are freed before the next chunk
    num, (norm, t, u) = np.empty(m), np.empty((3, m))

    def square(k, out):  # s_k into out
        return np.add(np.multiply(x[k], x[k], out=out), np.multiply(y[k], y[k], out=u), out=out)
    np.multiply(square(0, norm), g[0, 0].real, out=num)
    for k in range(1, d):
        norm += square(k, t)
        num += np.multiply(t, g[k, k].real, out=t)
    for i, j in combinations(range(d), 2):
        np.add(np.multiply(x[i], x[j], out=t), np.multiply(y[i], y[j], out=u), out=t)
        num += np.multiply(t, 2.0 * g[i, j].real, out=t)
        np.subtract(np.multiply(x[i], y[j], out=t), np.multiply(y[i], x[j], out=u), out=t)
        num -= np.multiply(t, 2.0 * g[i, j].imag, out=t)
    return np.divide(num, norm, out=num)


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
    a = plan.reversed(inst.kraus)
    g, ops = gram(a), a.swapaxes(-1, -2)
    # the success reads the raw normals before _states normalises them in place
    succ, overlap = _sample(inst.d, n, rng, lambda z: (_success(g, z), _overlaps(_states(z), ops)), 2)
    f_cond = np.where(succ > 0.0, overlap / np.where(succ > 0.0, succ, 1.0), 1.0)
    return {"p_succ": _estimate(succ), "f_cond": _estimate(f_cond)}


def estimate_success(inst: Instrument, plan: ReversalPlan, n: int, rng: RngSpec) -> McEstimate:
    """Empirical success probability alone: equal, bit for bit, to
    ``estimate_performance(inst, plan, n, rng)["p_succ"]``, without the
    overlap and conditional-fidelity work."""
    return _success_estimate(gram(plan.reversed(inst.kraus)), n, rng)


def _success_estimate(g: np.ndarray, n: int, rng: RngSpec) -> McEstimate:
    """The success estimate of n Haar states from one instrument's Gram matrix G (d, d)."""
    return _estimate(_sample(g.shape[-1], n, rng, lambda z: (_success(g, z),))[0])


def _mc_workers(n: int, rows: int) -> int:
    """Threads that draw a run's Monte Carlo rows of n samples: one per CPU this
    process may run on, at most one per row, and only as many rows at once as fit in
    the sample budget (rows_in_budget)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, rows, rows_in_budget(n))


def _success_rows(g: np.ndarray, n: int, rng: RngSpec) -> tuple[list[McEstimate], int]:
    """The success estimates of n Haar states for each row k of a Gram stack g (rows, d, d),
    drawn from stream rng.stream + k, in row order whatever the thread count, and the size
    of the one pool that drew them (_mc_workers), in batches of consecutive rows (CHUNK).
    A row draws from its own generator, whose normals release the GIL, and only reads g.
    The first failed batch in row order raises, the batches not yet started are
    cancelled, and the pool's threads are joined before the error leaves."""
    # imported here, not with the module: concurrent.futures imports logging, about 6%
    # of a fresh `import telerev` (about 0.2 s on a 2-vCPU x86-64 host)
    from concurrent.futures import ThreadPoolExecutor
    rows, step, workers = len(g), max(CHUNK // n, 1), _mc_workers(n, len(g))
    def batch(lo):
        return [_success_estimate(g[k], n, RngSpec(rng.seed, rng.stream + k))
                for k in range(lo, min(lo + step, rows))]
    with ThreadPoolExecutor(workers) as pool:
        return [e for b in pool.map(batch, range(0, rows, step)) for e in b], workers


def estimate_leakage(inst: Instrument, n: int, rng: RngSpec) -> McEstimate:
    """Empirical estimation fidelity with the top-eigenvector guess states."""
    kraus = inst.kraus
    kt, guesses = kraus.swapaxes(-1, -2), svd(kraus).right[..., :, 0].conj()
    def kernel(z):
        phi, out = _states(z), np.zeros(z.shape[0])
        for mt, guess in zip(kt, guesses):
            out += fold(np.add, np.abs(phi @ mt) ** 2) * np.abs(phi @ guess) ** 2
        return (out,)
    return _estimate(_sample(inst.d, n, rng, kernel)[0])


def estimate_standard_fidelity(inst: Instrument, n: int, rng: RngSpec) -> McEstimate:
    """Empirical average fidelity of the polar-unitary correction protocol."""
    kraus = inst.kraus
    ops = (polar_unitary(kraus) @ kraus).swapaxes(-1, -2)
    return _estimate(_sample(inst.d, n, rng, lambda z: (_overlaps(_states(z), ops),))[0])
