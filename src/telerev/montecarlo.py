"""Haar-random input sampling and empirical estimators.

The estimators serve as the statistical oracle for every closed form in the
package.  Randomness is counter-based (Philox keyed by seed and stream), so
identical (seed, stream) pairs replay bit-for-bit and shards with distinct
stream indices are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .instrument import Instrument, ReversalPlan
from .linalg import polar_unitary, svd

_KEY_LIMIT = 1 << 64


@dataclass(frozen=True)
class RngSpec:
    """Reproducible randomness source: 64-bit seed plus shard index.

    Both are Philox key words and must lie in [0, 2^64); a wider value would
    silently replay another key's stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream", self.stream)):
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


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random pure state: 2d standard normals, normalized."""
    return _haar_batch(d, 1, rng)[0]


def _haar_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # Draw order matches n sequential haar_state calls on the same generator.
    z = rng.standard_normal((n, d, 2))
    v = z[..., 0] + 1j * z[..., 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _estimate(samples: np.ndarray) -> McEstimate:
    n = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=float(np.mean(samples)), std_error=se, n=n)


def estimate_performance(inst: Instrument, plan: ReversalPlan, n: int,
                         rng: RngSpec) -> dict[str, McEstimate]:
    """Empirical success probability and conditional fidelity over Haar inputs.

    Returns a dict with keys "p_succ" and "f_cond".  The conditional fidelity
    is the success-weighted output fidelity; it is 1 up to rounding whenever
    the resources are pure.
    """
    phi = _haar_batch(inst.d, n, rng.generator())
    succ = np.zeros(n)
    overlap = np.zeros(n)
    for m, rev, deg in zip(inst.kraus, plan.reversers, plan.degenerate):
        if deg:
            continue
        out = phi @ (rev @ m).T
        succ += np.sum(np.abs(out) ** 2, axis=1)
        overlap += np.abs(np.sum(phi.conj() * out, axis=1)) ** 2
    f_cond = np.where(succ > 0.0, overlap / np.where(succ > 0.0, succ, 1.0), 1.0)
    return {"p_succ": _estimate(succ), "f_cond": _estimate(f_cond)}


def estimate_leakage(inst: Instrument, n: int, rng: RngSpec) -> McEstimate:
    """Empirical estimation fidelity with the top-eigenvector guess states."""
    phi = _haar_batch(inst.d, n, rng.generator())
    acc = np.zeros(n)
    for m in inst.kraus:
        guess = svd(m).right[:, 0]
        prob = np.sum(np.abs(phi @ m.T) ** 2, axis=1)
        acc += prob * np.abs(phi @ guess.conj()) ** 2
    return _estimate(acc)


def estimate_standard_fidelity(inst: Instrument, n: int, rng: RngSpec) -> McEstimate:
    """Empirical average fidelity of the polar-unitary correction protocol."""
    phi = _haar_batch(inst.d, n, rng.generator())
    acc = np.zeros(n)
    for m in inst.kraus:
        corrected = polar_unitary(m) @ m
        acc += np.abs(np.sum(phi.conj() * (phi @ corrected.T), axis=1)) ** 2
    return _estimate(acc)
