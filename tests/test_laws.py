"""Paper-level laws that check the engine against a number it does not compute.

- The channel-side law (entanglement matching): teleportation through a channel
  whose smallest Schmidt coefficient is lambda_min succeeds with probability at
  most d lambda_min^2, and a maximally entangled measurement attains it (for
  qubits: Li, Li & Guo, PRA 61, 034301 (2000)).  At d = 2 the bound is
  2 lambda_min^2 = E_c^2 / (1 + sqrt(1 - E_c^2)), read from the E_c column.
- The symmetry of ``ejm-aligned-scan``: its channel family is outcome 0 of the
  elegant measurement, so P(s, t) = P(t, s).
- Faithfulness: the optimal reversal makes each A_r = R_r M_r equal
  sigma_min,r I, so the success Gram G = sum_r A_r^dag A_r, which the scenario
  Monte Carlo reads, is P_succ I, and the conditional fidelity
  F_cond = sum_r (|tr A_r|^2 + |A_r|_F^2) / (d (d + 1) P_succ) is 1: every input
  succeeds with the same probability and is restored exactly.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerev import BipartiteState, build_instrument, optimal_reversal, success_probability
from telerev.cli import resolve
from telerev.instrument import ReversalPlan, kraus_stack, spectrum
from telerev.linalg import gram
from telerev.scenarios import SCENARIOS, Scenario, _axes, _qubit_columns
from telerev.theorems import random_basis

from helpers import RUNS, random_coeff
from oracles import clock_and_shift_basis

GOLDEN_DIR = Path(__file__).parent / "goldens"

# |P_succ - d lambda_min^2| under the clock-and-shift basis read at most 1.7e-16 at
# d = 8 (2 x 10^4 random channels), 8.9e-16 at d = 3 and 1.3e-15 at d = 2 (10^5 each),
# the d = 2 closed form rounding most.  Over 500 random bases a d, P_succ stayed below
# the bound by at least 5.6e-6 at d = 8; bases twisted from the clock-and-shift one by
# local unitaries, tight by construction, met it within 9.7e-17 at d = 8 and 1.4e-15
# at d = 2.  The qubit goldens read at most 2.2e-16 above E_c^2 / (1 + sqrt(1 - E_c^2))
# and the desk-scale scans at most 8.9e-16 above 2 sigma_min(E)^2.  About 4x the largest:
LAW_TOL = 6e-15
# P(s, t) - P(t, s) on the default 21 x 21 ejm-aligned-scan: 1.1e-16 for the closed form
# (one ulp, at 4 of its 210 pairs) and 2.2e-16 for the SVD column; about 4x the larger.
# On the golden, written to 15 digits, the closed form's text is symmetric and the SVD
# column reads 1.0e-15 apart, so it gets 4x that.
SYMMETRY_TOL = 1e-15
GOLDEN_SYMMETRY_TOL = 4e-15
# max |G - P_succ I| read at most 4.4e-16 on the desk-scale stacks below and 2.2e-16 on
# 21,000 random channels and bases (d in [2, 8]); about 4x the larger:
GRAM_TOL = 2e-15
# |F_cond - 1| grows with the conditioning kappa = max_r sigma_max,r / sigma_min,r of a
# row's recoverable outcomes, whose rounding R_r = sigma_min,r M_r^-1 amplifies: it read
# 6.9e-15 on the desk-scale zz-scan (kappa up to 7.1e3) and 1.8e-14 on one of the random
# channels (d = 2, kappa 1.1e3), but never above 2.2 eps kappa (4.7e-16 kappa).  About 4x
# that, per unit of kappa:
F_COND_TOL = 2e-15

# Four desk-scale grids of scripts/run_all_scans.py, read from its table by row name
# through the CLI's own option merge.
DESK = {row["name"]: row["argv"] for row in RUNS}
DESK_SCALE = [(sc.name, sc.grid, sc.grid2) for sc, _, _ in
              (resolve(DESK[name]) for name in
               ("xx-scan-surface", "ejm-scan", "ejm-aligned-scan", "zz-scan"))]


def _channel_bound(coeffs: np.ndarray) -> np.ndarray:
    """d lambda_min^2 of each channel of a stack, from its smallest singular value."""
    smallest = np.linalg.svd(coeffs, compute_uv=False)[..., -1]
    return coeffs.shape[-1] * smallest * smallest


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@example(d=2, seed=0)
@example(d=8, seed=0)
def test_success_is_at_most_d_lambda_min_squared_and_the_clock_and_shift_basis_attains_it(d, seed):
    rng = np.random.default_rng(seed)
    channel = BipartiteState(d=d, coeff=random_coeff(d, rng))
    bound = _channel_bound(channel.coeff)

    def p_succ(jm):
        return success_probability(optimal_reversal(build_instrument(channel, jm)))
    assert p_succ(random_basis(d, rng)) <= bound + LAW_TOL
    assert abs(p_succ(clock_and_shift_basis(d)) - bound) <= LAW_TOL


def _golden(name: str) -> list[dict]:
    with (GOLDEN_DIR / f"{name}.csv").open(newline="") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("name", ["xx-scan", "ejm-scan", "ejm-aligned-scan", "zz-scan",
                                  "tradeoff-scan"])
def test_every_qubit_golden_row_is_within_the_channel_side_bound(name):
    rows = _golden(name)
    e_c = np.array([float(r["E_c"]) for r in rows])
    bound = e_c * e_c / (1.0 + np.sqrt(1.0 - e_c * e_c))
    for column in ("P_succ_svd", "P_succ_closed"):
        assert np.all(np.array([float(r[column]) for r in rows]) <= bound + LAW_TOL), column


# Near E_c = 1 the law read from E_c is ill-conditioned (an E_c one ulp below 1 moves it
# by 2e-8), so the bound here comes from the singular values of each row's channel instead.
@pytest.mark.parametrize("name, grid, grid2", DESK_SCALE)
def test_every_desk_scale_row_is_within_the_channel_side_bound(name, grid, grid2):
    entry = SCENARIOS[name]
    _, x, _, ix = _axes(entry, grid.values(), None if grid2 is None else grid2.values())
    bound = _channel_bound(entry.channel(x))[ix]
    cols = _qubit_columns(Scenario(name, grid, grid2))[0]
    for column in ("P_succ_svd", "P_succ_closed"):
        assert np.all(cols[column] <= bound + LAW_TOL), column


def test_ejm_aligned_scan_is_symmetric_in_channel_and_measurement():
    rows = _golden("ejm-aligned-scan")
    n = math.isqrt(len(rows))
    cell = {(r["param1"], r["param2"]): r for r in rows}
    for (t, s), row in cell.items():
        twin = cell[s, t]
        assert row["P_succ_closed"] == twin["P_succ_closed"], (t, s)
        assert abs(float(row["P_succ_svd"]) - float(twin["P_succ_svd"])) <= GOLDEN_SYMMETRY_TOL
    assert len(cell) == n * n
    entry = SCENARIOS["ejm-aligned-scan"]
    assert entry.grid == entry.grid2
    cols = _qubit_columns(Scenario("ejm-aligned-scan", entry.grid, entry.grid2))[0]
    for column in ("P_succ_closed", "P_succ_svd"):
        p = cols[column].reshape(entry.grid.steps, entry.grid.steps)
        assert np.max(np.abs(p - p.T)) <= SYMMETRY_TOL, column


def _assert_faithful(kraus: np.ndarray, plan: ReversalPlan) -> None:
    """G = P_succ I and F_cond = 1, within GRAM_TOL and F_COND_TOL kappa, on every row of
    Kraus operators (..., n, d, d) and their plan with P_succ > 0."""
    d, p = kraus.shape[-1], np.asarray(plan.p_succ)
    a = plan.reversed(kraus)
    g = gram(a)
    trace = np.trace(a, axis1=-2, axis2=-1)
    overlap = np.sum(np.abs(trace) ** 2 + np.sum(np.abs(a) ** 2, axis=(-2, -1)), axis=-1)
    s, degenerate = plan.sigmas, plan.degenerate
    kappa = np.max(np.where(degenerate, 1.0, s[..., 0] / np.where(degenerate, 1.0, s[..., -1])),
                   axis=-1)
    ok = p > 0.0
    assert np.any(ok)
    gram_dev = np.max(np.abs(g - p[..., None, None] * np.eye(d)), axis=(-2, -1))
    assert np.max(gram_dev[ok]) <= GRAM_TOL
    f_cond = overlap[ok] / (d * (d + 1) * p[ok])
    assert np.all(np.abs(f_cond - 1.0) <= F_COND_TOL * kappa[ok])


@pytest.mark.parametrize("name, grid, grid2", DESK_SCALE)
def test_desk_scale_rows_are_faithful(name, grid, grid2):
    entry = SCENARIOS[name]
    t = grid.values()
    _, x, it, ix = _axes(entry, t, None if grid2 is None else grid2.values())
    kraus, _ = kraus_stack(entry.channel(x).take(ix, axis=0),
                           entry.measurement(t).take(it, axis=0))
    _assert_faithful(kraus, spectrum(kraus))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@example(d=2, seed=0)
@example(d=8, seed=0)
def test_random_instruments_are_faithful(d, seed):
    rng = np.random.default_rng(seed)
    channel = BipartiteState(d=d, coeff=random_coeff(d, rng))
    inst = build_instrument(channel, random_basis(d, rng))
    _assert_faithful(np.asarray(inst.kraus), optimal_reversal(inst))
