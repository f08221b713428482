"""Paper-level laws that check the engine against a number it does not compute.

- The channel-side law (entanglement matching): teleportation through a channel
  whose smallest Schmidt coefficient is lambda_min succeeds with probability at
  most d lambda_min^2, and a maximally entangled measurement attains it (for
  qubits: Li, Li & Guo, PRA 61, 034301 (2000)).  At d = 2 the bound is
  2 lambda_min^2 = E_c^2 / (1 + sqrt(1 - E_c^2)), read from the E_c column.
- The symmetry of ``ejm-aligned-scan``: its channel family is outcome 0 of the
  elegant measurement, so P(s, t) = P(t, s).
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerev import BipartiteState, build_instrument, optimal_reversal, success_probability
from telerev.scenarios import SCENARIOS, GridSpec, Scenario, _axes, _qubit_columns
from telerev.theorems import random_basis

from helpers import random_coeff
from oracles import clock_and_shift_basis

GOLDEN_DIR = Path(__file__).parent / "goldens"
PI4, PI2 = math.pi / 4, math.pi / 2

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


# The desk-scale grids of scripts/run_all_scans.py.  Near E_c = 1 the law read from E_c
# is ill-conditioned (an E_c one ulp below 1 moves it by 2e-8), so the bound here comes
# from the singular values of each row's channel instead.
@pytest.mark.parametrize("name, grid, grid2", [
    ("xx-scan", GridSpec(0.0, PI4, 51), GridSpec(0.0, PI4, 51)),
    ("ejm-scan", GridSpec(0.0, PI2, 101), None),
    ("ejm-aligned-scan", GridSpec(0.0, PI2, 51), GridSpec(0.0, PI2, 51)),
    ("zz-scan", GridSpec(0.0, 1.35, 51), GridSpec(0.0, PI4, 51)),
])
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
