import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telerev import (BipartiteState, DimensionError, DomainError, bell_basis,
                     build_instrument, ejm, leakage_max,
                     max_entangled, optimal_reversal, performance_report,
                     schmidt_channel, standard_fidelity, success_probability,
                     tradeoff_lhs, xx_deformed, zx_zz)
from telerev.instrument import (Instrument, completeness_residual, kraus_stack,
                                reversal_residual, spectrum)
from telerev.jointmeas import JointMeasurement, ejm_stack, element_entanglement, zx_zz_stack
from telerev.linalg import svd
from telerev.montecarlo import (RngSpec, estimate_leakage, estimate_performance,
                                estimate_standard_fidelity)
from telerev.qstate import max_entangled_stack, schmidt_stack
from telerev.theorems import random_basis, thm2_bounds

from helpers import dev_up_to_phase, random_coeff, random_ket
from oracles import PAULI_X, PAULI_Y, PAULI_Z, apply_kraus_oracle

KET0Y = np.array([1.0, 1.0j]) / math.sqrt(2)
KET1Y = np.array([1.0, -1.0j]) / math.sqrt(2)


def _ideal():
    return build_instrument(max_entangled(2), bell_basis())


def test_ideal_instrument_kraus_are_scaled_unitaries():
    inst = _ideal()
    for m in inst.kraus:
        prod = m.conj().T @ m
        assert np.max(np.abs(prod - np.eye(2) / 4)) < 1e-12
    assert completeness_residual(inst.kraus, 2) < 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        build_instrument(max_entangled(3), bell_basis())


def test_elegant_kraus_closed_form():
    for t in (0.0, 0.4, 1.1):
        inst = build_instrument(max_entangled(2), ejm(t))
        pp = (1.0 + np.exp(-1j * t)) / math.sqrt(2)
        pm = (1.0 - np.exp(-1j * t)) / math.sqrt(2)
        m0 = np.array([[np.exp(1j * np.pi / 4), pp.conjugate()],
                       [pm.conjugate(), np.exp(3j * np.pi / 4)]]) / (2 * math.sqrt(2))
        assert np.max(np.abs(inst.kraus[0] - m0)) < 1e-12
        # remaining outcomes are Pauli conjugations of outcome 0
        assert np.max(np.abs(inst.kraus[1] + PAULI_Z @ m0 @ PAULI_Z)) < 1e-12
        assert np.max(np.abs(inst.kraus[2] + PAULI_X @ m0 @ PAULI_X)) < 1e-12
        assert np.max(np.abs(inst.kraus[3] - PAULI_Y @ m0 @ PAULI_Y)) < 1e-12


def test_rotated_bell_kraus_closed_form():
    for phi, t in ((math.pi / 8, 0.2), (math.pi / 6, 0.6), (math.pi / 4, 0.0)):
        th = math.pi / 4 - t
        inst = build_instrument(schmidt_channel(phi, "z"), xx_deformed(t))
        c, s = math.cos(phi), math.sin(phi)
        ct, st_ = math.cos(th), math.sin(th)
        expected = [
            np.diag([c * st_, -1j * s * ct]),
            np.array([[0, -1j * c * ct], [s * st_, 0]]),
            np.diag([c * ct, 1j * s * st_]),
            np.array([[0, 1j * c * st_], [s * ct, 0]]),
        ]
        for got, want in zip(inst.kraus, expected):
            assert np.max(np.abs(got - want)) < 1e-12


def test_zz_error_kraus_closed_form_up_to_phase():
    p00 = np.outer(KET0Y, KET0Y.conj())
    p11 = np.outer(KET1Y, KET1Y.conj())
    p01 = np.outer(KET0Y, KET1Y.conj())
    p10 = np.outer(KET1Y, KET0Y.conj())
    for phi, t in ((math.pi / 8, 0.3), (0.5, 1.0)):
        big_r = math.sqrt(math.pi ** 2 + 16 * t * t) / 4.0
        gam = (math.pi - 4j * t) / math.sqrt(math.pi ** 2 + 16 * t * t)
        c, s = math.cos(phi), math.sin(phi)
        sr, cr = math.sin(big_r), math.cos(big_r)
        expected = [
            gam * c * sr * p01 + s * cr * p10,
            c * cr * p00 - gam.conjugate() * s * sr * p11,
            gam * c * sr * p00 + s * cr * p11,
            c * cr * p01 - gam.conjugate() * s * sr * p10,
        ]
        inst = build_instrument(schmidt_channel(phi, "y"), zx_zz(t))
        for got, want in zip(inst.kraus, expected):
            assert dev_up_to_phase(want, got) < 1e-12


def test_oracle_ideal_case():
    out = apply_kraus_oracle(max_entangled(2), bell_basis(), np.array([1.0, 0.0]), 0)
    assert np.max(np.abs(out - np.array([0.5, 0.0]))) < 1e-12


def test_oracle_matches_instrument_on_random_inputs():
    rng = np.random.default_rng(23)
    jm = ejm(0.4)
    inst = build_instrument(max_entangled(2), jm)
    for _ in range(100):
        v = random_ket(2, rng)
        r = int(rng.integers(0, 4))
        dev = np.max(np.abs(apply_kraus_oracle(max_entangled(2), jm, v, r)
                            - inst.kraus[r] @ v))
        assert dev < 1e-12


def test_oracle_matches_instrument_in_dimension_three():
    rng = np.random.default_rng(24)
    for _ in range(20):
        channel = BipartiteState(d=3, coeff=random_coeff(3, rng))
        jm = random_basis(3, rng)
        inst = build_instrument(channel, jm)
        v = random_ket(3, rng)
        r = int(rng.integers(0, 9))
        dev = np.max(np.abs(apply_kraus_oracle(channel, jm, v, r) - inst.kraus[r] @ v))
        assert dev < 1e-12


def test_ideal_reversal_success():
    plan = optimal_reversal(_ideal())
    assert np.allclose(plan.outcome_success, 0.25, atol=1e-12)
    assert success_probability(plan) == pytest.approx(1.0, abs=1e-12)
    assert not any(plan.degenerate)


def test_elegant_reversal_closed_form():
    for t in (0.0, 0.5, 1.3):
        inst = build_instrument(max_entangled(2), ejm(t))
        plan = optimal_reversal(inst)
        lam1sq = (2.0 - math.sqrt(3) * math.cos(t)) / 8.0
        assert np.allclose(plan.outcome_success, lam1sq, atol=1e-12)
        kappa = 4 * math.sqrt(2) * math.sqrt(lam1sq) / (3.0 - np.exp(2j * t))
        pp = (1.0 + np.exp(-1j * t)) / math.sqrt(2)
        pm = (1.0 - np.exp(-1j * t)) / math.sqrt(2)
        r0 = kappa * np.array([[np.exp(-1j * np.pi / 4), pp.conjugate()],
                               [pm.conjugate(), np.exp(-3j * np.pi / 4)]])
        assert dev_up_to_phase(r0, plan.reversers[0]) < 1e-9


def test_degenerate_outcomes_are_flagged_not_raised():
    # product-basis limit: every outcome has a vanishing singular value
    inst = build_instrument(max_entangled(2), xx_deformed(math.pi / 4))
    plan = optimal_reversal(inst)
    assert all(plan.degenerate)
    assert success_probability(plan) == 0.0
    for rev in plan.reversers:
        assert np.all(rev == 0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_kraus_entries_are_refused(d, value):
    rng = np.random.default_rng(70 + d)
    kraus = build_instrument(BipartiteState(d=d, coeff=random_coeff(d, rng)),
                             random_basis(d, rng)).kraus
    for entry in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        bad = kraus.copy()
        bad[(1,) + entry] = value
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            performance_report(Instrument(d, bad, "non-finite"))
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            spectrum(bad)


def test_success_probability_examples():
    assert success_probability(optimal_reversal(_ideal())) == pytest.approx(1.0, abs=1e-12)
    inst = build_instrument(max_entangled(2), ejm(0.0))
    assert success_probability(optimal_reversal(inst)) == pytest.approx(
        1.0 - math.sqrt(3) / 2, abs=1e-12)
    inst = build_instrument(schmidt_channel(math.pi / 8, "z"), xx_deformed(math.pi / 8))
    assert success_probability(optimal_reversal(inst)) == pytest.approx(
        1.0 - math.sqrt(2) / 2, abs=1e-12)


def test_success_probability_refuses_a_stacked_plan():
    # the stack's rows read 0.134, 0.240 and 0.532: summing every row gave 0.906
    kraus, _ = kraus_stack(max_entangled_stack(2, 3), ejm_stack(np.array([0.0, 0.5, 1.0])))
    plan = spectrum(kraus)
    with pytest.raises(DimensionError, match=re.escape(
            "expected the plan of one instrument, got sigmas (3, 4, 2)")):
        success_probability(plan)
    for i in range(3):
        assert success_probability(plan.plan(i)) == float(plan.p_succ[i])


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_success_probability_keeps_the_bits_of_the_sum_over_outcomes(d):
    rng = np.random.default_rng(90 + d)
    for _ in range(20):
        inst = build_instrument(BipartiteState(d=d, coeff=random_coeff(d, rng)),
                                random_basis(d, rng))
        plan = optimal_reversal(inst)
        assert success_probability(plan) == float(np.sum(plan.outcome_success))


def test_leakage_examples():
    assert leakage_max(_ideal()) == pytest.approx(0.5, abs=1e-12)
    inst = build_instrument(max_entangled(2), ejm(0.0))
    assert leakage_max(inst) == pytest.approx(0.5 + math.sqrt(3) / 12, abs=1e-12)
    inst = build_instrument(max_entangled(2), ejm(math.pi / 2))
    assert leakage_max(inst) == pytest.approx(0.5, abs=1e-12)


def test_leakage_stays_in_analytic_range():
    # blind-guess floor 1/d and ceiling 2/(d+1)
    rng = np.random.default_rng(31)
    for _ in range(200):
        channel = BipartiteState(d=2, coeff=random_coeff(2, rng))
        inst = build_instrument(channel, random_basis(2, rng))
        val = leakage_max(inst)
        assert 0.5 - 1e-9 <= val <= 2.0 / 3.0 + 1e-9


def test_tradeoff_examples():
    inst = _ideal()
    assert tradeoff_lhs(inst, optimal_reversal(inst)) == pytest.approx(4.0, abs=1e-12)
    for t in (0.0, 0.8, math.pi / 2):
        inst = build_instrument(max_entangled(2), ejm(t))
        assert tradeoff_lhs(inst, optimal_reversal(inst)) == pytest.approx(4.0, abs=1e-9)
    inst = build_instrument(schmidt_channel(math.pi / 8, "z"), xx_deformed(math.pi / 8))
    assert tradeoff_lhs(inst, optimal_reversal(inst)) <= 4.0 + 1e-9


def test_tradeoff_bound_on_random_pairs():
    rng = np.random.default_rng(32)
    for _ in range(200):
        channel = BipartiteState(d=2, coeff=random_coeff(2, rng))
        inst = build_instrument(channel, random_basis(2, rng))
        assert tradeoff_lhs(inst, optimal_reversal(inst)) <= 4.0 + 1e-9


def test_standard_fidelity_closed_forms():
    for t in np.linspace(0.0, math.pi / 4, 21):
        inst = build_instrument(max_entangled(2), xx_deformed(float(t)))
        assert abs(standard_fidelity(inst) - (2.0 + math.cos(2 * t)) / 3.0) < 1e-12
    for t in np.linspace(0.0, math.pi / 2, 21):
        inst = build_instrument(max_entangled(2), ejm(float(t)))
        want = 2.0 / 3.0 + math.sqrt(4.0 - 3.0 * math.cos(t) ** 2) / 6.0
        assert abs(standard_fidelity(inst) - want) < 1e-12
    for phi, t in ((0.2, 0.1), (math.pi / 8, math.pi / 8), (0.7, 0.5)):
        inst = build_instrument(schmidt_channel(phi, "z"), xx_deformed(t))
        want = (2.0 + math.sin(2 * phi) * math.cos(2 * t)) / 3.0
        assert abs(standard_fidelity(inst) - want) < 1e-12


def test_standard_fidelity_beats_classical_limit_with_ideal_channel():
    families = [xx_deformed(0.3), ejm(0.9), zx_zz(0.7), bell_basis()]
    for jm in families:
        val = standard_fidelity(build_instrument(max_entangled(2), jm))
        assert 2.0 / 3.0 - 1e-9 <= val <= 1.0 + 1e-9


def test_completeness_on_random_pairs():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        channel = BipartiteState(d=2, coeff=random_coeff(2, rng))
        inst = build_instrument(channel, random_basis(2, rng))
        worst = max(worst, completeness_residual(inst.kraus, 2))
    assert worst < 1e-10


def test_reversal_identity_on_haar_inputs():
    rng = np.random.default_rng(34)
    pairs = [
        (max_entangled(2), ejm(0.6)),
        (schmidt_channel(0.3, "z"), xx_deformed(0.4)),
        (schmidt_channel(0.5, "y"), zx_zz(0.8)),
    ]
    for channel, jm in pairs:
        inst = build_instrument(channel, jm)
        plan = optimal_reversal(inst)
        assert reversal_residual(inst, plan) < 1e-9
        for m, rev, deg, succ in zip(inst.kraus, plan.reversers,
                                     plan.degenerate, plan.outcome_success):
            if deg:
                continue
            smin = math.sqrt(succ)
            for _ in range(100):
                v = random_ket(2, rng)
                assert np.linalg.norm(rev @ m @ v - smin * v) < 1e-9


def test_conditional_fidelity_is_unity_after_successful_reversal():
    rng = np.random.default_rng(35)
    for _ in range(50):
        channel = BipartiteState(d=2, coeff=random_coeff(2, rng))
        inst = build_instrument(channel, random_basis(2, rng))
        plan = optimal_reversal(inst)
        for m, rev, deg in zip(inst.kraus, plan.reversers, plan.degenerate):
            if deg:
                continue
            v = random_ket(2, rng)
            out = rev @ m @ v
            fid = abs(np.vdot(v, out)) ** 2 / np.linalg.norm(out) ** 2
            assert abs(fid - 1.0) < 1e-9


def test_reverser_singular_values_are_valid_filters():
    rng = np.random.default_rng(36)
    for _ in range(100):
        channel = BipartiteState(d=2, coeff=random_coeff(2, rng))
        plan = optimal_reversal(build_instrument(channel, random_basis(2, rng)))
        for rev in plan.reversers:
            assert np.linalg.svd(rev, compute_uv=False)[0] <= 1.0 + 1e-10


def test_performance_report_bundle():
    inst = build_instrument(max_entangled(2), ejm(0.0))
    rep = performance_report(inst)
    assert rep.p_succ_max == pytest.approx(1.0 - math.sqrt(3) / 2, abs=1e-12)
    assert rep.f_tele_standard == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert rep.f_tele_mr == 1.0
    assert rep.leakage_max == pytest.approx(0.5 + math.sqrt(3) / 12, abs=1e-12)
    assert rep.tradeoff_lhs == pytest.approx(4.0, abs=1e-9)
    assert 0.0 <= rep.p_succ_max <= 1.0


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1), entangled=st.booleans())
def test_sigma_only_metrics_agree_with_the_full_spectrum(d, seed, entangled):
    # the scalar metrics take sigma from a plan, made by the stacked full SVD
    # when none is given; held to 1e-15 absolute for the metrics in [0, 1],
    # relative for the trade-off (about 2d)
    rng = np.random.default_rng(seed)
    channel = max_entangled(d) if entangled else BipartiteState(d=d, coeff=random_coeff(d, rng))
    inst = build_instrument(channel, random_basis(d, rng))
    spec = spectrum(np.array([inst.kraus]))
    plan = optimal_reversal(inst)
    full = {"p": spec.p_succ[0], "l": spec.leakage[0], "f": spec.f_standard[0],
            "trade": spec.tradeoff[0]}
    for report in (performance_report(inst), performance_report(inst, plan)):
        got = {"p": report.p_succ_max, "l": report.leakage_max, "f": report.f_tele_standard,
               "trade": report.tradeoff_lhs}
        for key, want in full.items():
            assert abs(got[key] - want) <= 1e-15 * max(1.0, abs(want)), key
    assert leakage_max(inst) == performance_report(inst).leakage_max
    assert standard_fidelity(inst) == performance_report(inst).f_tele_standard
    assert abs(tradeoff_lhs(inst, plan) - full["trade"]) <= 1e-15 * full["trade"]
    assert all(np.array_equal(a, b) for a, b in zip(plan.reversers, spec.reversers[0]))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_reversal_residual_is_the_block_residual_bit_for_bit(d):
    # the block engine computes the residual of a whole stack of rows; the
    # scalar reversal_residual of each row's instrument is the same number
    rng = np.random.default_rng(90 + d)
    if d == 2:  # zz-scan rows, with rank-deficient (phi = 0) and Bell rows
        phi, t = np.repeat(np.linspace(0.0, math.pi / 4, 7), 6), np.tile(np.linspace(0.0, 1.3, 6), 7)
        coeffs, elements = schmidt_stack(phi, "y"), zx_zz_stack(t)
    else:
        coeffs = np.stack([random_coeff(d, rng) for _ in range(12)])
        elements = np.stack([np.stack(random_basis(d, rng).elements) for _ in range(12)])
    kraus, _ = kraus_stack(coeffs, elements)
    block = spectrum(kraus).residual(kraus)
    for i in range(len(kraus)):
        inst = build_instrument(BipartiteState(d=d, coeff=coeffs[i]),
                                JointMeasurement(d=d, elements=tuple(elements[i]), label="row"))
        assert reversal_residual(inst, optimal_reversal(inst)) == block[i], i
    assert np.max(block) <= 1e-9


@pytest.mark.parametrize("d", range(2, 9))
def test_plan_metrics_reuse_the_plan_spectrum(d, monkeypatch):
    # a plan carries the singular values of its spectrum row, and every metric
    # of the planned instrument comes from them, bit for bit, with no new SVD
    rng = np.random.default_rng(700 + d)
    inst = build_instrument(BipartiteState(d=d, coeff=random_coeff(d, rng)), random_basis(d, rng))
    spec = spectrum(np.array([inst.kraus]))
    plan = optimal_reversal(inst)
    assert np.array_equal(plan.sigmas, spec.sigmas[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a planned metric ran an SVD")
    monkeypatch.setattr(np.linalg, "svd", refuse)  # either LAPACK SVD, with or without vectors
    report = performance_report(inst, plan)
    assert report.p_succ_max == spec.p_succ[0]
    assert report.leakage_max == spec.leakage[0]
    assert report.f_tele_standard == spec.f_standard[0]
    assert report.tradeoff_lhs == spec.tradeoff[0] == tradeoff_lhs(inst, plan)
    assert reversal_residual(inst, plan) == spec.residual(np.array([inst.kraus]))[0]


@pytest.mark.parametrize("d", range(2, 9))
def test_planless_metrics_equal_the_spectrum_bit_for_bit(d):
    # a report without a plan makes one, so its sigma are the spectrum's own
    rng = np.random.default_rng(800 + d)
    inst = build_instrument(BipartiteState(d=d, coeff=random_coeff(d, rng)), random_basis(d, rng))
    spec = spectrum(np.array([inst.kraus]))
    report = performance_report(inst)
    assert report.p_succ_max == spec.p_succ[0]
    assert report.leakage_max == spec.leakage[0] == leakage_max(inst)
    assert report.f_tele_standard == spec.f_standard[0] == standard_fidelity(inst)
    assert report.tradeoff_lhs == spec.tradeoff[0]


@pytest.mark.parametrize("d", range(2, 9))
def test_one_instrument_is_its_row_of_the_stack_bit_for_bit(d):
    # kraus_stack and spectrum take any leading shape, so one instrument's
    # (d^2, d, d) stack and plan are its row of a stacked block, bit for bit
    rng = np.random.default_rng(900 + d)
    channels = [BipartiteState(d=d, coeff=random_coeff(d, rng)) for _ in range(3)]
    channels.append(max_entangled(d))
    channels.append(BipartiteState(d=d, coeff=np.diag(np.eye(d)[0]) + 0j))  # all degenerate
    bases = [random_basis(d, rng) for _ in channels]
    kraus, _ = kraus_stack(np.stack([c.coeff for c in channels]),
                           np.stack([np.array(jm.elements) for jm in bases]))
    block = spectrum(kraus)
    residuals = block.residual(kraus)
    for i, (channel, jm) in enumerate(zip(channels, bases)):
        one, _ = kraus_stack(channel.coeff, np.array(jm.elements))
        plan = spectrum(one)
        assert np.array_equal(one, kraus[i]), i
        for name in ("sigmas", "reversers", "degenerate", "outcome_success",
                     "p_succ", "leakage", "f_standard", "tradeoff"):
            assert np.array_equal(getattr(plan, name), getattr(block, name)[i]), (i, name)
        assert plan.residual(one) == residuals[i], i
    assert block.degenerate[-1].all() and not block.degenerate[-2].any()


def test_a_nan_element_is_refused_as_incomplete():
    # NaN compares False with the tolerance, so the check must fail on it
    elements = list(bell_basis().elements)
    elements[1] = np.full((2, 2), np.nan + 0j)
    with pytest.raises(DomainError, match="instrument is not complete: residual nan"):
        build_instrument(max_entangled(2), JointMeasurement(2, tuple(elements), "nan"))
    coeffs = np.stack([max_entangled(2).coeff] * 2)
    stack = np.stack([np.stack(bell_basis().elements), np.stack(elements)])
    with pytest.raises(DomainError, match="instrument is not complete"):
        kraus_stack(coeffs, stack)


# A plan is read only against the instrument it was made for: a plan of another
# dimension is refused by name, in both directions, before numpy broadcasts it.
@pytest.mark.parametrize("d_inst, d_plan", [(2, 3), (3, 2)])
def test_a_plan_of_another_instrument_is_refused_by_name(d_inst, d_plan):
    inst, other = (build_instrument(max_entangled(d), random_basis(d, np.random.default_rng(d)))
                   for d in (d_inst, d_plan))
    plan = optimal_reversal(other)
    message = re.escape(f"plan shape {(d_plan ** 2, d_plan, d_plan)} "
                        f"!= Kraus shape {(d_inst ** 2, d_inst, d_inst)}")
    for call in (performance_report, tradeoff_lhs, reversal_residual):
        with pytest.raises(DimensionError, match=message):
            call(inst, plan)


def test_a_measurement_without_elements_is_refused_by_name():
    message = re.escape("expected measurement elements (..., n, d, d) with n >= 1, got shape (0,)")
    with pytest.raises(DimensionError, match=message):
        build_instrument(max_entangled(2), JointMeasurement(2, (), "empty"))


def test_build_instrument_refuses_elements_of_unequal_shapes():
    jm = JointMeasurement(2, (np.eye(2), np.eye(3), np.eye(2), np.eye(2)), "unequal")
    with pytest.raises(DimensionError, match=r"shape \(3, 3\), expected \(2, 2\)"):
        build_instrument(max_entangled(2), jm)


@pytest.mark.parametrize("shape", [(0, 2, 2), (4, 2), (4, 2, 3)],
                         ids=["no-elements", "flat", "not-square"])
def test_kraus_stack_refuses_elements_that_are_not_n_d_by_d(shape):
    message = re.escape(f"expected measurement elements (..., n, d, d) with n >= 1, got shape {shape}")
    with pytest.raises(DimensionError, match=message):
        kraus_stack(max_entangled(2).coeff, np.zeros(shape, dtype=np.complex128))


def test_kraus_stack_refuses_elements_of_another_dimension():
    message = re.escape("element shape (9, 3, 3) does not match channel shape (2, 2)")
    with pytest.raises(DimensionError, match=message):
        kraus_stack(np.eye(2) / math.sqrt(2), np.zeros((9, 3, 3)))


def test_kraus_stack_refuses_stacks_whose_leading_shapes_do_not_broadcast():
    coeffs, elements = schmidt_stack(np.linspace(0.1, 0.7, 3)), zx_zz_stack(np.linspace(0.0, 1.0, 5))
    message = re.escape("channel stack (3, 2, 2) and element stack (5, 4, 2, 2) "
                        "do not broadcast along their leading axes")
    with pytest.raises(DimensionError, match=message):
        kraus_stack(coeffs, elements)


# completeness_residual reads one list of Kraus operators (n, d, d): a matrix of
# another d, d = 0 or a stack of lists is refused by name, not reshaped into a bare
# ValueError or silently read as one list of rows x n outcomes.
@pytest.mark.parametrize("shape, d", [((2, 2), 3), ((1, 0, 0), 0), ((4, 2, 2), 0),
                                      ((3, 4, 2, 2), 2), ((4, 2, 2), 3), ((4, 4), 2)],
                         ids=["matrix", "d-0-empty", "d-0", "stack", "other-d", "flat"])
def test_completeness_residual_refuses_a_shape_that_is_not_one_kraus_list(shape, d):
    message = re.escape(f"expected Kraus operators (n, d, d) with d >= 1, got shape {shape} "
                        f"and d = {d}")
    with pytest.raises(DimensionError, match=message):
        completeness_residual(np.zeros(shape), d)


def test_completeness_residual_reads_any_list_of_kraus_operators():
    assert completeness_residual([np.eye(3, dtype=int)], 3) == 0.0
    inst = build_instrument(max_entangled(2), bell_basis())
    assert completeness_residual(inst.kraus.tolist(), 2) == completeness_residual(inst.kraus, 2)


# An Instrument coerces its Kraus operators once and refuses any shape other than
# (n, d, d) with n >= 1 by name, where the estimators used to fail on a bare index,
# matmul or broadcast error deep inside.
def test_an_instrument_keeps_a_complex_kraus_array_as_given():
    kraus = _ideal().kraus
    assert Instrument(2, kraus, "same").kraus is kraus  # no copy: matmul rounds by layout
    listed = Instrument(2, kraus.tolist(), "listed").kraus
    assert listed.dtype == np.complex128 and np.array_equal(listed, kraus)


@pytest.mark.parametrize("estimate", [
    lambda inst: estimate_performance(inst, optimal_reversal(_ideal()), 10, RngSpec(1)),
    lambda inst: estimate_leakage(inst, 10, RngSpec(1)),
    lambda inst: estimate_standard_fidelity(inst, 10, RngSpec(1))],
    ids=["performance", "leakage", "standard-fidelity"])
def test_an_instrument_whose_d_disagrees_with_its_kraus_is_refused_by_name(estimate):
    message = re.escape("expected Kraus operators (n, d, d) with n >= 1 and d = 3, "
                        "got shape (4, 2, 2)")
    with pytest.raises(DimensionError, match=message):
        estimate(Instrument(3, _ideal().kraus, "other d"))


@pytest.mark.parametrize("kraus, shape", [
    (np.eye(2), (2, 2)), (np.zeros((0, 2, 2)), (0, 2, 2)), (np.zeros((1, 4, 2, 2)), (1, 4, 2, 2))],
    ids=["matrix", "no-operator", "stack"])
def test_an_instrument_of_another_shape_is_refused_by_name(kraus, shape):
    message = re.escape(f"expected Kraus operators (n, d, d) with n >= 1 and d = 2, "
                        f"got shape {shape}")
    with pytest.raises(DimensionError, match=message):
        Instrument(2, kraus, "bad shape")


# An Instrument refuses a non-integer d by name, as a state does before build_instrument
# reads it: (2, 2) == (2.0, 2.0), so the shape check alone would let a float d through to
# estimate_leakage's and estimate_performance's draw, which fails with a bare TypeError.
@pytest.mark.parametrize("d", [2.0, 2.5, True])
def test_a_non_integer_dimension_is_refused_by_name(d):
    message = rf"^local dimension {re.escape(repr(d))} is not an integer$"
    with pytest.raises(DomainError, match=message):
        Instrument(d, _ideal().kraus, "non-integer d")
    with pytest.raises(DomainError, match=message):
        build_instrument(BipartiteState(d, np.eye(2) / math.sqrt(2)), bell_basis())


def test_a_numpy_integer_dimension_is_taken():
    inst = build_instrument(BipartiteState(np.int64(2), np.eye(2) / math.sqrt(2)), bell_basis())
    assert inst.d == 2 and np.array_equal(inst.kraus, _ideal().kraus)
    kept = Instrument(np.int64(2), inst.kraus, "numpy d")
    assert estimate_leakage(kept, 10, RngSpec(1)) == estimate_leakage(_ideal(), 10, RngSpec(1))


def test_an_instrument_of_ragged_kraus_operators_is_refused_by_name():
    message = re.escape("expected Kraus operators (n, d, d) with n >= 1 and d = 2, "
                        "got a ragged or non-numeric sequence")
    with pytest.raises(DimensionError, match=message):
        Instrument(2, [np.eye(2), np.eye(3)], "ragged")


# A ragged or non-numeric argument is refused by the coercion it reaches first
# (linalg.as_complex, or qstate._check_range for bounded values), naming the argument,
# instead of numpy's bare "inhomogeneous shape" or "could not convert" ValueError.
def _measurement_with(element) -> JointMeasurement:
    bell = bell_basis().elements
    return JointMeasurement(2, bell[:1] + (element,) + bell[2:], "bad element")


@pytest.mark.parametrize("value", [[[1, 0], [0]], [["x", 0], [0, 1]]], ids=["ragged", "text"])
@pytest.mark.parametrize("call, error, name", [
    (lambda v: BipartiteState(2, v), DimensionError, "coefficient matrix"),
    (BipartiteState.from_vector, DimensionError, "amplitude vector"),
    (lambda v: build_instrument(max_entangled(2), _measurement_with(v)), DimensionError,
     "coefficient matrix"),
    (lambda v: element_entanglement(_measurement_with(v), 0), DimensionError,
     "coefficient matrix"),
    (lambda v: spectrum([v]), DimensionError, "Kraus operators"),
    (lambda v: completeness_residual([v], 2), DimensionError, "Kraus operators"),
    (svd, DimensionError, "matrix"),
    (lambda v: thm2_bounds(2, v), DomainError, "e_list"),
], ids=["state", "from_vector", "build_instrument", "element_entanglement", "spectrum",
        "completeness_residual", "svd", "thm2_bounds"])
def test_a_ragged_or_non_numeric_argument_is_refused_by_name(call, error, name, value):
    with pytest.raises(error, match=rf"^{name}: got a ragged or non-numeric sequence$"):
        call(value)


# A measurement checks its d as a state does, and so does an instrument: d = 1 used to
# build a plan, and a fractional or zero d was read only as a shape.
@pytest.mark.parametrize("d", [1.5, 0, 1])
def test_a_measurement_and_an_instrument_refuse_a_bad_dimension_by_name(d):
    error, message = ((DomainError, r"^local dimension 1\.5 is not an integer$") if d == 1.5
                      else (DimensionError, rf"^local dimension must be >= 2, got {d}$"))
    with pytest.raises(error, match=message):
        JointMeasurement(d, (), "bad d")
    with pytest.raises(error, match=message):
        Instrument(d, [[[1.0]]], "bad d")
