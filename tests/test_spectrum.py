"""The stacked spectrum engine against a per-matrix reference.

The reference rebuilds every grid row on its own: scalar factories, one
``np.linalg.svd`` per Kraus operator, and reversers in the documented order
sigma_min ((V Sigma^-1) U^dag).  Metrics must agree to 1e-12.  Kraus
operators and reversers must be bit-identical, because the Monte Carlo cells
replay bit for bit only from identical reversers.
"""

import math

import numpy as np
import pytest

from telerev import (BipartiteState, build_instrument, ejm, ejm_channel,
                     estimate_performance, max_entangled, optimal_reversal,
                     performance_report, schmidt_channel, xx_deformed, zx_zz)
from telerev.instrument import kraus_stack, reversal_residual, spectrum
from telerev.jointmeas import ejm_stack, xx_deformed_stack, zx_zz_stack
from telerev.linalg import SIGMA_FLOOR
from telerev.montecarlo import RngSpec
from telerev.qstate import (ejm_channel_stack, max_entangled_stack,
                            schmidt_stack)
from telerev.scenarios import BLOCK_ROWS, GridSpec, Scenario, _qubit_columns
from telerev.theorems import random_basis

from helpers import random_coeff

PI4, PI2 = math.pi / 4, math.pi / 2
METRIC_TOL = 1e-12

# scenario -> (scalar channel and measurement of one row from its primary
# parameter t and channel angle x; the same as stacks over arrays)
FAMILIES = {
    "xx-scan": (lambda t, x: (schmidt_channel(x, "z"), xx_deformed(t)),
                lambda t, x: (schmidt_stack(x, "z"), xx_deformed_stack(t))),
    "zz-scan": (lambda t, x: (schmidt_channel(x, "y"), zx_zz(t)),
                lambda t, x: (schmidt_stack(x, "y"), zx_zz_stack(t))),
    "ejm-aligned-scan": (lambda t, x: (ejm_channel(x), ejm(t)),
                         lambda t, x: (ejm_channel_stack(x), ejm_stack(t))),
    "ejm-scan": (lambda t, x: (max_entangled(2), ejm(t)),
                 lambda t, x: (max_entangled_stack(2, t.size), ejm_stack(t))),
}
FAMILIES["tradeoff-scan"] = FAMILIES["ejm-scan"]


def _reference(channel, jm):
    """Kraus operators, reversers, degenerate flags and metrics of one row."""
    d = channel.d
    kraus = [channel.coeff.T @ w.conj().T for w in jm.elements]
    reversers, degenerate, smin2, top2, nuclear2 = [], [], 0.0, 0.0, 0.0
    for m in kraus:
        u, s, vh = np.linalg.svd(m)
        s = np.where(s < SIGMA_FLOOR, 0.0, s)
        degenerate.append(bool(s[-1] == 0.0))
        if degenerate[-1]:
            reversers.append(np.zeros_like(m))
        else:
            reversers.append(float(s[-1]) * (vh.conj().T @ np.diag(1.0 / s) @ u.conj().T))
        smin2 += float(s[-1]) ** 2
        top2 += float(s[0]) ** 2
        nuclear2 += float(np.sum(s)) ** 2
    leakage = (d + top2) / (d * (d + 1))
    metrics = {"p_succ": smin2, "leakage": leakage,
               "f_standard": (nuclear2 / d + 1.0) / (d + 1.0),
               "tradeoff": d * (d + 1) * leakage + (d - 1) * smin2}
    return kraus, reversers, degenerate, metrics


def _rows(name, grid, grid2):
    """(t, channel angle) of every row, in grid order with t outer."""
    t = grid.values()
    second = grid2.values() if grid2 is not None else (t if name == "ejm-aligned-scan" else None)
    if second is None:
        return t, np.full(t.size, PI4)
    return np.repeat(t, second.size), np.tile(second, t.size)


def _engine_matches_reference(name, t, x):
    scalar, stacks = FAMILIES[name]
    kraus, _ = kraus_stack(*stacks(t, x))
    spec = spectrum(kraus)
    for i in range(t.size):
        ref_kraus, ref_rev, ref_deg, ref = _reference(*scalar(float(t[i]), float(x[i])))
        assert all(np.array_equal(a, b) for a, b in zip(kraus[i], ref_kraus)), i
        assert all(np.array_equal(a, b) for a, b in zip(spec.reversers[i], ref_rev)), i
        assert spec.degenerate[i].tolist() == ref_deg, i
        for key, want in ref.items():
            assert abs(getattr(spec, key)[i] - want) <= METRIC_TOL, (i, key)
    return spec


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("rows", [1, BLOCK_ROWS + 1])
def test_engine_is_bit_exact_on_every_family(name, rows):
    t = np.linspace(0.0, 1.3 if name == "zz-scan" else PI4, rows)
    x = np.linspace(PI4, 0.0, rows)
    _engine_matches_reference(name, t, x)


def test_engine_on_the_surface_grid_with_bell_and_rank_deficient_rows():
    grid, grid2 = GridSpec(0.0, 1.3, 51), GridSpec(0.0, PI4, 51)
    t, x = _rows("zz-scan", grid, grid2)
    assert t.size == 2601
    spec = _engine_matches_reference("zz-scan", t, x)
    bell = np.flatnonzero((t == 0.0) & (x == PI4))[0]
    assert np.allclose(spec.sigmas[bell], 0.5, atol=1e-15)  # sigma_1 = sigma_2
    assert not spec.degenerate[bell].any()
    rank_deficient = x == 0.0
    assert spec.degenerate[rank_deficient].all()
    assert not spec.reversers[rank_deficient].any()
    assert np.all(spec.p_succ[rank_deficient] == 0.0)


@pytest.mark.parametrize("name, grid, grid2", [
    ("xx-scan", GridSpec(0.0, PI4, BLOCK_ROWS + 1), None),
    ("xx-scan", GridSpec(0.0, PI4, 9), GridSpec(0.0, PI4, 9)),
    ("ejm-scan", GridSpec(0.0, PI2, BLOCK_ROWS + 1), None),
    ("tradeoff-scan", GridSpec(0.0, PI2, 3), None),
    ("ejm-aligned-scan", GridSpec(0.0, PI2, 16), GridSpec(0.0, PI2, 17)),
    ("zz-scan", GridSpec(0.0, 1.3, 51), GridSpec(0.0, PI4, 51)),
], ids=["xx-257", "xx-9x9", "ejm-257", "tradeoff-3", "ejm-aligned-16x17", "zz-51x51"])
def test_block_loop_matches_row_by_row(name, grid, grid2):
    cols, _, reversal_max = _qubit_columns(Scenario(name, grid, grid2))
    t, x = _rows(name, grid, grid2)
    assert np.array_equal(cols["param1"], t)
    assert reversal_max <= 1e-9
    for i in range(t.size):
        _, _, _, ref = _reference(*FAMILIES[name][0](float(t[i]), float(x[i])))
        for col, key in (("P_succ_svd", "p_succ"), ("L_max", "leakage"),
                         ("F_standard", "f_standard"), ("tradeoff_lhs", "tradeoff")):
            assert abs(cols[col][i] - ref[key]) <= METRIC_TOL, (i, col)


@pytest.mark.parametrize("name", ["xx-scan", "ejm-scan"])
def test_monte_carlo_cells_replay_across_block_boundaries(name):
    grid = GridSpec(0.0, PI4, BLOCK_ROWS + 2)
    cols, _, _ = _qubit_columns(Scenario(name, grid, None, mc_samples=50,
                                         rng=RngSpec(424242)))
    for k in (0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1):
        inst = build_instrument(*FAMILIES[name][0](float(grid.values()[k]), PI4))
        est = estimate_performance(inst, optimal_reversal(inst), 50,
                                   RngSpec(424242, k))["p_succ"]
        assert cols["P_succ_mc"][k] == est.mean
        assert cols["P_succ_mc_stderr"][k] == est.std_error


@pytest.mark.parametrize("d", [3, 4, 8])
def test_performance_report_in_dimension_d(d):
    rng = np.random.default_rng(800 + d)
    for channel in (max_entangled(d), BipartiteState(d=d, coeff=random_coeff(d, rng))):
        jm = random_basis(d, rng)
        inst = build_instrument(channel, jm)
        _, ref_rev, ref_deg, ref = _reference(channel, jm)
        plan = optimal_reversal(inst)
        assert all(np.array_equal(a, b) for a, b in zip(plan.reversers, ref_rev))
        assert list(plan.degenerate) == ref_deg
        assert reversal_residual(inst, plan) <= 1e-9
        for report in (performance_report(inst), performance_report(inst, plan)):
            assert abs(report.p_succ_max - ref["p_succ"]) <= METRIC_TOL
            assert abs(report.leakage_max - ref["leakage"]) <= METRIC_TOL
            assert abs(report.f_tele_standard - ref["f_standard"]) <= METRIC_TOL
            assert abs(report.tradeoff_lhs - ref["tradeoff"]) <= METRIC_TOL
