"""The stacked spectrum engine against a per-matrix reference.

The reference rebuilds every grid row on its own from scalar factories.  At
d = 2 it writes out the Kraus products and the closed-form plan in Python
complex scalars; at d >= 3 it takes one values-only ``np.linalg.svd`` and
one ``np.linalg.inv`` per Kraus operator, R = sigma_min M^-1.  Kraus
operators and reversers must be bit-identical to the reference, because the
Monte Carlo cells replay bit for bit only from identical reversers.  At
every d, sigma and the metrics must agree with LAPACK to 1e-12, the
degenerate flags must equal LAPACK's, and the reversers must pass the
reversal residual gate.  At d >= 3 the reversers must also lie within 1e-12
of the ones assembled from the full SVD (``oracles.svd_reversers_reference``)
with a worst residual no larger than theirs, the flags must hold with
sigma_min at half and at twice ``SIGMA_FLOOR``, and an operator that LU
finds singular although its sigma_min clears the floor is refused.
"""

import math

import numpy as np
import pytest

from telerev import (BipartiteState, DimensionError, DomainError, build_instrument, ejm,
                     ejm_channel, estimate_performance, max_entangled, optimal_reversal,
                     performance_report, schmidt_channel, xx_deformed, zx_zz)
from telerev.instrument import ReversalPlan, kraus_stack, reversal_residual, spectrum
from telerev.jointmeas import ejm_stack, xx_deformed_stack, zx_zz_stack
from telerev.linalg import SIGMA_FLOOR, svd
from telerev.montecarlo import RngSpec
from telerev.qstate import (ejm_channel_stack, max_entangled_stack,
                            schmidt_stack)
from telerev.scenarios import (BLOCK_ROWS, REVERSAL_GATE, GridSpec, Scenario,
                               _qubit_columns)
from telerev.theorems import random_basis

from helpers import random_coeff
from oracles import svd_reversers_reference

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


def _lapack(m):
    """Singular values (floored as the engine floors them), degenerate flag
    and reverser sigma_min M^-1 of one operator, by np.linalg.svd without
    vectors and np.linalg.inv."""
    s = np.linalg.svd(m, compute_uv=False)
    s = np.where(s < SIGMA_FLOOR, 0.0, s)
    if s[-1] == 0.0:
        return s, True, np.zeros_like(m)
    return s, False, float(s[-1]) * np.linalg.inv(m)


def _lapack_sigmas(kraus):
    """Floored singular values of each operator, by np.linalg.svd."""
    return [np.where(s < SIGMA_FLOOR, 0.0, s)
            for s in (np.linalg.svd(m, compute_uv=False) for m in kraus)]


def _sq(z):
    return (z * z.conjugate()).real


def _closed_form(m):
    """Singular values, degenerate flag and reverser of one 2 x 2 operator
    [[a, b], [c, e]], from the closed form in Python complex scalars:
    sigma_min^2 = 2 |det|^2 / (F + sqrt((m11 - m22)^2 + 4 |m12|^2)) for
    M M^dag = [[m11, m12], [m12*, m22]], sigma_max^2 = F - sigma_min^2 and
    R = sigma_min adj(M) / det."""
    (a, b), (c, e) = [[complex(v) for v in row] for row in m]
    top, bottom = _sq(a) + _sq(b), _sq(c) + _sq(e)
    frob, gap = top + bottom, top - bottom
    det = a * e - b * c
    m12 = a * c.conjugate() + b * e.conjugate()
    big = frob + math.sqrt(gap * gap + 4.0 * _sq(m12))
    smin2 = 2.0 * _sq(det) / big if big > 0.0 else 0.0
    s = np.array([math.sqrt(frob - smin2), math.sqrt(smin2)])
    s = np.where(s < SIGMA_FLOOR, 0.0, s)
    if s[-1] == 0.0:
        return s, True, np.zeros((2, 2), complex)
    coef = (float(s[-1]) / _sq(det) * det).conjugate()
    return s, False, np.array([[coef * e, coef * -b], [coef * -c, coef * a]])


def _kraus(channel, jm):
    """M_r = E^T W_r^dag: written out in Python complex scalars (summed over
    k = 0, 1) at d = 2, one ``@`` at d >= 3."""
    if channel.d > 2:
        return [channel.coeff.T @ w.conj().T for w in jm.elements]
    e = [[complex(v) for v in row] for row in channel.coeff]
    return [np.array([[e[0][i] * complex(w[j, 0]).conjugate()
                       + e[1][i] * complex(w[j, 1]).conjugate() for j in range(2)]
                      for i in range(2)]) for w in jm.elements]


def _metrics(d, sigmas):
    smin2 = sum(float(s[-1]) ** 2 for s in sigmas)
    top2 = sum(float(s[0]) ** 2 for s in sigmas)
    nuclear2 = sum(float(np.sum(s)) ** 2 for s in sigmas)
    leakage = (d + top2) / (d * (d + 1))
    return {"p_succ": smin2, "leakage": leakage,
            "f_standard": (nuclear2 / d + 1.0) / (d + 1.0),
            "tradeoff": d * (d + 1) * leakage + (d - 1) * smin2}


def _reference(channel, jm):
    """Kraus operators, sigma, degenerate flags and reversers of one row (the
    closed form at d = 2, LAPACK at d >= 3), LAPACK's sigma and flags, and
    the metrics from LAPACK's sigma."""
    kraus = _kraus(channel, jm)
    plan = [_closed_form(m) if channel.d == 2 else _lapack(m) for m in kraus]
    lapack = _lapack_sigmas(kraus)
    return {"kraus": kraus, "sigmas": [p[0] for p in plan],
            "degenerate": [p[1] for p in plan], "reversers": [p[2] for p in plan],
            "lapack_sigmas": np.array(lapack),
            "lapack_degenerate": [bool(s[-1] == 0.0) for s in lapack],
            "metrics": _metrics(channel.d, lapack)}


def _matches_reference(kraus, plan, ref):
    """The engine's Kraus operators and plan of one row against its reference
    (the caller checks the reversal residual)."""
    assert np.array_equal(kraus, ref["kraus"])
    assert np.array_equal(plan.sigmas, ref["sigmas"])
    assert np.array_equal(plan.reversers, ref["reversers"])
    assert list(plan.degenerate) == ref["degenerate"] == ref["lapack_degenerate"]
    assert np.max(np.abs(plan.sigmas - ref["lapack_sigmas"])) <= METRIC_TOL
    for key, want in ref["metrics"].items():
        assert abs(getattr(plan, key) - want) <= METRIC_TOL, key


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
        _matches_reference(kraus[i], spec.plan(i),
                           _reference(*scalar(float(t[i]), float(x[i]))))
    assert np.max(spec.residual(kraus)) <= REVERSAL_GATE
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
        channel, jm = FAMILIES[name][0](float(t[i]), float(x[i]))
        ref = _metrics(2, _lapack_sigmas(_kraus(channel, jm)))
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
        ref = _reference(channel, jm)
        plan = optimal_reversal(inst)
        _matches_reference(inst.kraus, plan, ref)
        assert reversal_residual(inst, plan) <= 1e-9
        ref = ref["metrics"]
        for report in (performance_report(inst), performance_report(inst, plan)):
            assert abs(report.p_succ_max - ref["p_succ"]) <= METRIC_TOL
            assert abs(report.leakage_max - ref["leakage"]) <= METRIC_TOL
            assert abs(report.f_tele_standard - ref["f_standard"]) <= METRIC_TOL
            assert abs(report.tradeoff_lhs - ref["tradeoff"]) <= METRIC_TOL


def test_reversers_agree_with_the_svd_assembled_ones():
    rng = np.random.default_rng(15)
    for d in range(3, 9):
        kraus = np.stack([build_instrument(BipartiteState(d=d, coeff=random_coeff(d, rng)),
                                           random_basis(d, rng)).kraus for _ in range(25)])
        plan = spectrum(kraus)
        ref = svd_reversers_reference(kraus)
        assert np.max(np.abs(plan.reversers - ref)) <= 1e-12, d
        worst_ref = np.max(ReversalPlan(plan.sigmas, ref, plan.degenerate).residual(kraus))
        assert np.max(plan.residual(kraus)) <= worst_ref, d


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("scale, degenerate", [(0.5, True), (2.0, False)])
def test_reversal_with_sigma_min_at_the_floor_in_dimension_d(d, scale, degenerate):
    rng = np.random.default_rng(100 * d + int(4 * scale))
    z = rng.standard_normal((2, 40, d, d)) + 1j * rng.standard_normal((2, 40, d, d))
    left, right = np.linalg.qr(z)[0]
    sigmas = np.sort(rng.uniform(0.1, 1.0, (40, d)), axis=-1)[:, ::-1]
    sigmas[:, -1] = scale * SIGMA_FLOOR
    kraus = (left * sigmas[:, None, :]) @ right.conj().swapaxes(-1, -2)
    plan = spectrum(kraus)
    assert np.array_equal(plan.degenerate, svd(kraus).rank_deficient)
    assert np.all(plan.degenerate == degenerate)
    assert plan.residual(kraus) <= REVERSAL_GATE
    assert np.all(np.isfinite(plan.reversers)) and not plan.reversers[plan.degenerate].any()


def test_operator_singular_to_working_precision_is_refused():
    # rank 2; LU meets an exact zero pivot, while the SVD reads sigma_min of
    # about 4e-11 (rounding noise) above the floor
    kraus = 1e4 * np.array([[[2, -3, 2], [-2, -3, 3], [0, 12, -10]]], dtype=complex)
    assert np.linalg.svd(kraus, compute_uv=False)[0, -1] >= SIGMA_FLOOR
    with pytest.raises(DomainError, match="singular to working precision"):
        spectrum(kraus)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_single_matrix_without_outcome_axis_is_refused(d):
    with pytest.raises(DimensionError, match=r"\(\.\.\., n, d, d\)"):
        spectrum(np.eye(d) * 0.5)


def test_operators_of_dimension_zero_are_refused():
    with pytest.raises(DimensionError, match=r"with d >= 1, got shape \(4, 0, 0\)"):
        spectrum(np.zeros((4, 0, 0)))


# The d = 2 closed form at its edges, against the LAPACK oracle (linalg.svd).
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)


def _agrees_with_lapack(kraus):
    """The closed-form plan of a stack (..., n, 2, 2): sigma and the metrics
    within METRIC_TOL of LAPACK's, the same degenerate flags, and reversers
    that pass the reversal gate."""
    plan, res = spectrum(kraus), svd(kraus)
    oracle = ReversalPlan(res.sigmas, np.zeros_like(kraus), res.rank_deficient)
    assert np.max(np.abs(plan.sigmas - oracle.sigmas)) <= METRIC_TOL
    for key in ("p_succ", "leakage", "f_standard", "tradeoff"):
        assert np.max(np.abs(getattr(plan, key) - getattr(oracle, key))) <= METRIC_TOL, key
    assert np.array_equal(plan.degenerate, oracle.degenerate)
    assert np.max(plan.residual(kraus)) <= REVERSAL_GATE
    assert not plan.reversers[plan.degenerate].any()
    return plan


def _unitaries(n, rng):
    return np.linalg.qr(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))[0]


def test_closed_form_on_bell_rows_where_the_discriminant_vanishes():
    plan = _agrees_with_lapack(PAULIS / 2)
    assert np.array_equal(plan.sigmas, np.full((4, 2), 0.5))  # disc = 0 exactly
    assert plan.p_succ == 1.0 and not plan.degenerate.any()
    rotated = _unitaries(500, np.random.default_rng(11)).reshape(125, 4, 2, 2) / 2
    plan = _agrees_with_lapack(rotated)
    # no cancellation: a root of F^2 - 4|det|^2 would be off by about 1e-8 here
    assert np.max(np.abs(plan.sigmas - 0.5)) <= 1e-15


def test_closed_form_on_rank_one_and_zero_operators():
    rng = np.random.default_rng(12)
    u = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    v = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    rank_one = (u[:, :, None] * v[:, None, :].conj()).reshape(50, 4, 2, 2) / 4
    plan = _agrees_with_lapack(rank_one)
    assert plan.degenerate.all() and np.all(plan.p_succ == 0.0)
    zero = np.zeros((1, 4, 2, 2), complex)
    plan = _agrees_with_lapack(zero)
    assert np.array_equal(plan.sigmas, np.zeros((1, 4, 2))) and plan.degenerate.all()
    assert np.all(np.isfinite(plan.reversers)) and not plan.reversers.any()


@pytest.mark.parametrize("scale, degenerate", [(0.5, True), (2.0, False)])
def test_closed_form_at_the_sigma_floor(scale, degenerate):
    rng = np.random.default_rng(13)
    left, right = _unitaries(400, rng), _unitaries(400, rng)
    top = rng.uniform(0.1, 1.0, 400)
    sigmas = np.stack([top, np.full(400, scale * SIGMA_FLOOR)], axis=-1)
    kraus = ((left * sigmas[:, None, :]) @ right.conj().swapaxes(-1, -2)).reshape(100, 4, 2, 2)
    plan = _agrees_with_lapack(kraus)
    assert np.all(plan.degenerate == degenerate)


def test_closed_form_on_random_stacks():
    rng = np.random.default_rng(14)
    kraus = rng.standard_normal((1000, 4, 2, 2)) + 1j * rng.standard_normal((1000, 4, 2, 2))
    kraus *= 10.0 ** rng.uniform(-3, 0, (1000, 4, 1, 1))
    _agrees_with_lapack(kraus / 4)
