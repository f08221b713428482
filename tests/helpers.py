"""Shared test utilities."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from telerev.cli import resolve

# Every pinned CLI run, as scripts/run_all_scans.py runs it: each a name, an output
# subdirectory, its full argv and, for the six whose CSV is committed beside the
# table, "golden": true.  desk.sha256 there digests the desk runs' data files.
RUNS = json.loads((Path(__file__).parent / "goldens" / "runs.json").read_text())
# The argv of each golden run, by the scenario the CLI's own option merge reads in it.
GOLDEN_ARGV = {resolve(row["argv"])[0].name: row["argv"] for row in RUNS if row.get("golden")}


def random_coeff(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random normalized d x d coefficient matrix (Frobenius norm 1)."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m / np.linalg.norm(m)


def random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def phase_aligned(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Rotate candidate by the unit phase matching reference at the largest entry."""
    idx = np.unravel_index(np.argmax(np.abs(candidate)), candidate.shape)
    if reference[idx] == 0 or candidate[idx] == 0:
        return candidate
    phase = (reference[idx] / abs(reference[idx])) / (candidate[idx] / abs(candidate[idx]))
    return candidate * phase


def dev_up_to_phase(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Max-abs deviation after per-matrix global-phase alignment."""
    return float(np.max(np.abs(reference - phase_aligned(reference, candidate))))


# Monte Carlo cells must replay bit-for-bit under a fixed seed; everything
# else is compared numerically.
MC_COLUMNS = ("P_succ_mc", "P_succ_mc_stderr")


def compare_csv_text(got: str, want: str, atol: float = 1e-9) -> float:
    """Assert two scenario CSVs match; returns the worst numeric deviation."""
    got_lines = got.strip().split("\n")
    want_lines = want.strip().split("\n")
    assert got_lines[0] == want_lines[0], "header mismatch"
    assert len(got_lines) == len(want_lines), "row count mismatch"
    header = got_lines[0].split(",")
    worst = 0.0
    for i, (gl, wl) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        for col, a, b in zip(header, gl.split(","), wl.split(",")):
            if col in MC_COLUMNS:
                assert a == b, f"row {i} col {col}: {a!r} != {b!r} (bit-exact)"
            elif a == "NA" or b == "NA":
                assert a == b, f"row {i} col {col}: {a!r} != {b!r}"
            else:
                dev = abs(float(a) - float(b))
                assert dev <= atol, f"row {i} col {col}: |{a} - {b}| = {dev}"
                worst = max(worst, dev)
    return worst
