"""End-to-end acceptance gates.

One test per criterion; each prints a single pass/fail line with the measured
deviation (visible with ``pytest -s`` or in the failure report).  Tolerances
are pinned here and nowhere else.
"""

import json
import math
from pathlib import Path

import numpy as np

from telerev import (BipartiteState, RngSpec, Thm1Inputs, bell_basis,
                     build_instrument, ejm, estimate_leakage,
                     estimate_performance, estimate_standard_fidelity,
                     leakage_max, max_entangled, optimal_reversal,
                     saturating_spectrum, schmidt_channel, solve_tr,
                     standard_fidelity, success_probability, svd,
                     thm1_outcome_success, thm1_total_success, thm2_bounds,
                     xx_deformed, zx_zz)
from telerev.cli import main as cli_main
from telerev.instrument import apply_kraus_oracle
from telerev.jointmeas import ZX_ZZ_LIMIT, element_entanglement
from telerev.theorems import random_basis

from helpers import compare_csv_text, dev_up_to_phase, random_coeff, random_ket
from oracles import reduced_bloch, tr_closed_form_d3

GOLDEN_DIR = Path(__file__).parent / "goldens"
MC_N = 100_000
# absolute floor on statistical gates: some estimators have zero variance up
# to rounding, leaving 5 sigma below the float noise of the comparison
MC_FLOOR = 1e-12


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_xx_standard_fidelity():
    worst_analytic = 0.0
    worst_mc_sigma = 0.0
    for i, t in enumerate((0.0, math.pi / 8, math.pi / 4)):
        inst = build_instrument(max_entangled(2), xx_deformed(t))
        closed = (2.0 + math.cos(2 * t)) / 3.0
        worst_analytic = max(worst_analytic, abs(standard_fidelity(inst) - closed))
        est = estimate_standard_fidelity(inst, MC_N, RngSpec(seed=1001, stream=i))
        worst_mc_sigma = max(worst_mc_sigma,
                             abs(est.mean - closed) / (5 * est.std_error + MC_FLOOR))
    end0 = abs(standard_fidelity(build_instrument(max_entangled(2), xx_deformed(0.0))) - 1.0)
    end1 = abs(standard_fidelity(build_instrument(max_entangled(2),
                                                  xx_deformed(math.pi / 4))) - 2.0 / 3.0)
    ok = worst_analytic <= 1e-12 and worst_mc_sigma <= 1.0 and end0 <= 1e-12 and end1 <= 1e-12
    _report(1, "XX-model standard fidelity (2+cos2t)/3, analytic + Monte Carlo", ok,
            f"analytic dev {worst_analytic:.2e}, MC at {worst_mc_sigma:.2f} of gate")


def test_criterion_02_ejm_standard_fidelity():
    at0 = standard_fidelity(build_instrument(max_entangled(2), ejm(0.0)))
    at1 = standard_fidelity(build_instrument(max_entangled(2), ejm(math.pi / 2)))
    worst = 0.0
    for t in np.linspace(0.0, math.pi / 2, 100):
        got = standard_fidelity(build_instrument(max_entangled(2), ejm(float(t))))
        want = 2.0 / 3.0 + math.sqrt(4.0 - 3.0 * math.cos(t) ** 2) / 6.0
        worst = max(worst, abs(got - want))
    ok = abs(at0 - 5.0 / 6.0) <= 1e-12 and abs(at1 - 1.0) <= 1e-12 and worst <= 1e-9
    _report(2, "elegant-measurement standard fidelity 2/3 + sqrt(4-3cos^2 t)/6", ok,
            f"endpoints dev {max(abs(at0 - 5 / 6), abs(at1 - 1)):.2e}, curve dev {worst:.2e}")


def test_criterion_03_ejm_reversal_protocol():
    probes = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2),
              np.array([1.0, 1.0j]) / math.sqrt(2)]
    worst_fid = worst_p = worst_l = worst_trade = 0.0
    for t in np.linspace(0.0, math.pi / 2, 100):
        inst = build_instrument(max_entangled(2), ejm(float(t)))
        plan = optimal_reversal(inst)
        for m, rev in zip(inst.kraus, plan.reversers):
            for v in probes:
                out = rev @ m @ v
                fid = abs(np.vdot(v, out)) ** 2 / np.linalg.norm(out) ** 2
                worst_fid = max(worst_fid, abs(fid - 1.0))
        p = success_probability(plan)
        lk = leakage_max(inst)
        worst_p = max(worst_p, abs(p - (1.0 - math.sqrt(3) / 2 * math.cos(t))))
        worst_l = max(worst_l, abs(lk - (0.5 + math.sqrt(3) / 12 * math.cos(t))))
        worst_trade = max(worst_trade, abs(6.0 * lk + p - 4.0))
    ok = max(worst_fid, worst_p, worst_l, worst_trade) <= 1e-9
    _report(3, "elegant-measurement reversal: unit conditional fidelity, "
               "P, L, and 6L+P=4", ok,
            f"fid {worst_fid:.2e}, P {worst_p:.2e}, L {worst_l:.2e}, "
            f"trade {worst_trade:.2e}")


def test_criterion_04_closed_form_vs_svd_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        e = random_coeff(2, rng)
        w = random_coeff(2, rng)
        pa = reduced_bloch(e.conj() @ e.T)
        pb = reduced_bloch(w.conj().T @ w)
        x = None
        if pa.direction is not None and pb.direction is not None:
            x = float(np.dot(pa.direction, pb.direction))
        closed = thm1_outcome_success(Thm1Inputs(
            e_c=min(2.0 * abs(np.linalg.det(e)), 1.0),
            e_r=min(2.0 * abs(np.linalg.det(w)), 1.0), x_r=x))
        smin = float(svd(e.T @ w.conj().T).sigmas[-1])
        worst = max(worst, abs(closed - smin * smin))
    ok = worst < 1e-9
    _report(4, "closed form vs SVD oracle on 10,000 random qubit pairs", ok,
            f"max dev {worst:.2e}")


def test_criterion_05_total_success_surfaces():
    worst_xx = 0.0
    for phi in np.linspace(0.0, math.pi / 4, 50):
        for t in np.linspace(0.0, math.pi / 4, 50):
            weaker = min(math.sin(2 * phi), math.cos(2 * t))
            want = 1.0 - math.sqrt(1.0 - weaker ** 2)
            channel, jm = schmidt_channel(float(phi), "z"), xx_deformed(float(t))
            p_svd = success_probability(optimal_reversal(build_instrument(channel, jm)))
            p_closed = thm1_total_success(channel, jm)
            worst_xx = max(worst_xx, abs(p_svd - want), abs(p_closed - want))
    worst_zz = 0.0
    for phi in np.linspace(0.0, math.pi / 4, 50):
        for t in np.linspace(0.0, ZX_ZZ_LIMIT * 0.999, 50):
            big_r = math.sqrt(math.pi ** 2 + 16 * t * t) / 4.0
            want = 1.0 - max(math.cos(2 * phi), abs(math.cos(2 * big_r)))
            channel, jm = schmidt_channel(float(phi), "y"), zx_zz(float(t))
            p_svd = success_probability(optimal_reversal(build_instrument(channel, jm)))
            p_closed = thm1_total_success(channel, jm)
            worst_zz = max(worst_zz, abs(p_svd - want), abs(p_closed - want))
    ok = worst_xx <= 1e-9 and worst_zz <= 1e-9
    _report(5, "total-success surfaces on 50x50 grids (XX and ZX+ZZ models)", ok,
            f"XX dev {worst_xx:.2e}, ZZ dev {worst_zz:.2e}")


def test_criterion_06_tensor_contraction_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for d, count in ((2, 1000), (3, 200)):
        for _ in range(count):
            channel = BipartiteState(d=d, coeff=random_coeff(d, rng))
            jm = random_basis(d, rng)
            inst = build_instrument(channel, jm)
            v = random_ket(d, rng)
            r = int(rng.integers(0, d * d))
            dev = np.max(np.abs(apply_kraus_oracle(channel, jm, v, r)
                                - inst.kraus[r] @ v))
            worst = max(worst, float(dev))
    ok = worst <= 1e-12
    _report(6, "direct tensor-contraction oracle equals Kraus action "
               "(1000 triples d=2, 200 d=3)", ok, f"max dev {worst:.2e}")


def test_criterion_07_dimension_bounds():
    rng = np.random.default_rng(707)
    worst_violation = -1.0
    for d in (3, 4):
        for _ in range(1000):
            jm = random_basis(d, rng)
            es = [min(element_entanglement(jm, r), 1.0) for r in range(d * d)]
            bounds = thm2_bounds(d, es)
            p = success_probability(optimal_reversal(
                build_instrument(max_entangled(d), jm)))
            worst_violation = max(worst_violation, bounds.lower - p, p - bounds.upper)
    worst_attain = 0.0
    for d in (3, 4):
        for e in np.linspace(0.05, 1.0, 8):
            lam = saturating_spectrum(d, float(e))
            q1, _ = np.linalg.qr(rng.standard_normal((d, d))
                                 + 1j * rng.standard_normal((d, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d))
                                 + 1j * rng.standard_normal((d, d)))
            w = q1 @ np.diag(lam) @ q2.conj().T
            smin_sq = float(svd(max_entangled(d).coeff.T @ w.conj().T).sigmas[-1]) ** 2
            worst_attain = max(worst_attain, abs(smin_sq - solve_tr(d, float(e)) / d))
    worst_d3 = max(abs(tr_closed_form_d3(float(e)) - solve_tr(3, float(e)))
                   for e in np.linspace(0.0, 1.0, 1000))
    sat3 = thm2_bounds(3, [1.0] * 9)
    sat4 = thm2_bounds(4, [1.0] * 16)
    # float summation of nine 1/3 terms costs one ulp on the d=3 lower bound
    exact_ok = (sat3.upper == 1.0 and sat4.upper == 1.0 and sat4.lower == 1.0
                and abs(sat3.lower - 1.0) <= 2 ** -52)
    ok = (worst_violation <= 1e-9 and worst_attain <= 1e-9
          and worst_d3 <= 1e-12 and exact_ok)
    _report(7, "dimension-d bounds: sandwich, saturating spectra, d=3 root", ok,
            f"sandwich {worst_violation:.2e}, attain {worst_attain:.2e}, "
            f"d3 root {worst_d3:.2e}")


def _elegant_printed_reversers(t):
    lam1 = math.sqrt(2.0 - math.sqrt(3) * math.cos(t)) / (2 * math.sqrt(2))
    kappa = 4 * math.sqrt(2) * lam1 / (3.0 - np.exp(2j * t))
    pp = (1.0 + np.exp(-1j * t)) / math.sqrt(2)
    pm = (1.0 - np.exp(-1j * t)) / math.sqrt(2)
    r0 = kappa * np.array([[np.exp(-1j * np.pi / 4), pp.conjugate()],
                           [pm.conjugate(), np.exp(-3j * np.pi / 4)]])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    return [r0, -sz @ r0 @ sz, -sx @ r0 @ sx, sy @ r0 @ sy]


def _rotated_printed_reversers(phi, t):
    th = math.pi / 4 - t
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    tanp, tanth = math.tan(phi), math.tan(th)
    if th <= phi:
        r0 = k0 + 1j / tanp * tanth * k1
        r3 = sx @ (-1j * k0 + tanth / tanp * k1)
    else:
        r0 = tanp / tanth * k0 + 1j * k1
        r3 = sx @ (-1j * tanp / tanth * k0 + k1)
    r1 = sx @ (1j * tanp * tanth * k0 + k1)
    r2 = tanp * tanth * k0 - 1j * k1
    return [r0, r1, r2, r3]


def _zz_printed_reversers(phi, t):
    ket0y = np.array([1.0, 1.0j]) / math.sqrt(2)
    ket1y = np.array([1.0, -1.0j]) / math.sqrt(2)
    p00 = np.outer(ket0y, ket0y.conj())
    p11 = np.outer(ket1y, ket1y.conj())
    p01 = np.outer(ket0y, ket1y.conj())
    p10 = np.outer(ket1y, ket0y.conj())
    big_r = math.sqrt(math.pi ** 2 + 16 * t * t) / 4.0
    gam = (math.pi - 4j * t) / math.sqrt(math.pi ** 2 + 16 * t * t)
    t_phi = math.sqrt(max((math.pi / 2 - phi) ** 2 - (math.pi / 4) ** 2, 0.0))
    tanp = math.tan(phi)
    tan_r = math.tan(big_r)
    cot_r = 1.0 / tan_r
    r0 = p01 + tanp * cot_r * gam.conjugate() * p10
    r2 = tanp * cot_r * gam.conjugate() * p00 + p11
    if t <= t_phi:
        r1 = tanp * tan_r * p00 - gam * p11
        r3 = -gam * p01 + tanp * tan_r * p10
    else:
        r1 = p00 - cot_r / tanp * gam * p11
        r3 = -cot_r / tanp * gam * p01 + p10
    return [r0, r1, r2, r3]


def test_criterion_08_reverser_closed_forms():
    worst = 0.0
    for t in np.linspace(0.0, math.pi / 2, 25):
        plan = optimal_reversal(build_instrument(max_entangled(2), ejm(float(t))))
        for want, got in zip(_elegant_printed_reversers(float(t)), plan.reversers):
            worst = max(worst, dev_up_to_phase(want, got))
    for phi in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        # branch switch sits at t = pi/4 - phi; straddle it explicitly
        ts = sorted(set(np.linspace(0.0, math.pi / 4 * 0.98, 15))
                    | {max(math.pi / 4 - phi - 1e-3, 0.0), math.pi / 4 - phi,
                       min(math.pi / 4 - phi + 1e-3, math.pi / 4)})
        for t in ts:
            plan = optimal_reversal(build_instrument(
                schmidt_channel(phi, "z"), xx_deformed(float(t))))
            for want, got, deg in zip(_rotated_printed_reversers(phi, float(t)),
                                      plan.reversers, plan.degenerate):
                if not deg:
                    worst = max(worst, dev_up_to_phase(want, got))
    for phi in (math.pi / 16, math.pi / 8, 0.6, math.pi / 4):
        t_phi = math.sqrt(max((math.pi / 2 - phi) ** 2 - (math.pi / 4) ** 2, 0.0))
        ts = sorted(set(np.linspace(0.0, ZX_ZZ_LIMIT * 0.99, 15))
                    | {max(t_phi - 1e-3, 0.0), t_phi, t_phi + 1e-3})
        for t in ts:
            plan = optimal_reversal(build_instrument(
                schmidt_channel(phi, "y"), zx_zz(float(t))))
            for want, got, deg in zip(_zz_printed_reversers(phi, float(t)),
                                      plan.reversers, plan.degenerate):
                if not deg:
                    worst = max(worst, dev_up_to_phase(want, got))
    ok = worst <= 1e-9
    _report(8, "closed-form reversers match SVD construction across branch "
               "switches (elegant, XX, ZX+ZZ)", ok, f"max dev {worst:.2e}")


def test_criterion_09_monte_carlo_gates():
    inst0 = build_instrument(max_entangled(2), ejm(0.0))
    plan0 = optimal_reversal(inst0)
    perf = estimate_performance(inst0, plan0, MC_N, RngSpec(seed=909, stream=0))
    dev_p = abs(perf["p_succ"].mean - (1.0 - math.sqrt(3) / 2))
    ok_p = dev_p <= 5 * perf["p_succ"].std_error + MC_FLOOR
    ok_f = abs(perf["f_cond"].mean - 1.0) <= 1e-9

    inst_xx = build_instrument(schmidt_channel(math.pi / 8, "z"),
                               xx_deformed(math.pi / 8))
    plan_xx = optimal_reversal(inst_xx)
    perf_xx = estimate_performance(inst_xx, plan_xx, MC_N, RngSpec(seed=909, stream=1))
    ok_p2 = abs(perf_xx["p_succ"].mean - (1.0 - math.sqrt(2) / 2)) \
        <= 5 * perf_xx["p_succ"].std_error + MC_FLOOR

    leak = estimate_leakage(inst0, MC_N, RngSpec(seed=909, stream=2))
    ok_l = abs(leak.mean - (0.5 + math.sqrt(3) / 12)) <= 5 * leak.std_error + MC_FLOOR
    leak_bell = estimate_leakage(build_instrument(max_entangled(2), bell_basis()),
                                 MC_N, RngSpec(seed=909, stream=3))
    ok_l2 = abs(leak_bell.mean - 0.5) <= 5 * leak_bell.std_error + MC_FLOOR

    f_xx = estimate_standard_fidelity(build_instrument(max_entangled(2),
                                                       xx_deformed(math.pi / 4)),
                                      MC_N, RngSpec(seed=909, stream=4))
    ok_f2 = abs(f_xx.mean - 2.0 / 3.0) <= 5 * f_xx.std_error + MC_FLOOR
    f_ejm = estimate_standard_fidelity(inst0, MC_N, RngSpec(seed=909, stream=5))
    ok_f3 = abs(f_ejm.mean - 5.0 / 6.0) <= 5 * f_ejm.std_error + MC_FLOOR

    # a generic pair exercises genuinely fluctuating estimators as well
    inst_g = build_instrument(schmidt_channel(0.3, "z"), xx_deformed(0.2))
    leak_g = estimate_leakage(inst_g, MC_N, RngSpec(seed=909, stream=6))
    ok_g = (leak_g.std_error > 0.0
            and abs(leak_g.mean - leakage_max(inst_g)) <= 5 * leak_g.std_error + MC_FLOOR)

    replay = estimate_performance(inst0, plan0, MC_N, RngSpec(seed=909, stream=0))
    ok_replay = replay == perf

    ok = all((ok_p, ok_f, ok_p2, ok_l, ok_l2, ok_f2, ok_f3, ok_g, ok_replay))
    _report(9, "Monte Carlo estimators hit closed forms at n=1e5 and replay "
               "bit-for-bit", ok,
            f"p dev {dev_p:.2e}, leak dev {abs(leak.mean - 0.5 - math.sqrt(3) / 12):.2e}, "
            f"replay {ok_replay}")


def test_criterion_10_golden_files(tmp_path):
    invocations = json.loads((GOLDEN_DIR / "invocations.json").read_text())
    worst = 0.0
    for entry in invocations:
        name, argv = entry["name"], entry["argv"]
        out = tmp_path / name
        code = cli_main(argv + ["--out", str(out)])
        assert code == 0, f"{name}: CLI exit {code}"
        got = (out / f"{name}.csv").read_text()
        want = (GOLDEN_DIR / f"{name}.csv").read_text()
        worst = max(worst, compare_csv_text(got, want, atol=1e-9))
    ok = True  # compare_csv_text asserts on any mismatch
    _report(10, "all six scenario CSVs regenerate their goldens "
                "(analytic 1e-9, MC bit-exact)", ok,
            f"{len(invocations)} scenarios, worst analytic dev {worst:.2e}")
