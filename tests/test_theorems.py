import importlib
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telerev
from telerev import (DimensionError, Thm1Inputs, build_instrument, ejm, ejm_channel,
                     g_of_t, max_entangled, optimal_reversal, saturating_spectrum,
                     schmidt_channel, solve_tr, success_probability, svd, theorems,
                     thm1_outcome_success, thm1_total_success, thm2_bounds,
                     xx_deformed, zx_zz)
from telerev.errors import DomainError
from telerev.jointmeas import ZX_ZZ_LIMIT, JointMeasurement, element_entanglement, xx_deformed_stack
from telerev.qstate import BipartiteState, max_entangled_stack
from telerev.scenarios import SCENARIOS
from telerev.theorems import _closed_form, random_basis

from helpers import random_coeff
from oracles import (_alignment, _rows, alignment_x, channel_bloch, element_bloch, reduced_bloch,
                     thm1_success_stack, tr_closed_form_d3)


def _closed_form_vs_svd(e_coeff, w_coeff):
    """Evaluate both routes to the single-outcome success probability."""
    a = e_coeff.conj() @ e_coeff.T
    b = w_coeff.conj().T @ w_coeff
    pa, pb = reduced_bloch(a), reduced_bloch(b)
    x = None
    if pa.direction is not None and pb.direction is not None:
        x = float(np.dot(pa.direction, pb.direction))
    inp = Thm1Inputs(e_c=2.0 * abs(np.linalg.det(e_coeff)),
                     e_r=2.0 * abs(np.linalg.det(w_coeff)), x_r=x)
    closed = thm1_outcome_success(inp)
    smin = float(svd(e_coeff.T @ w_coeff.conj().T).sigmas[-1])
    return closed, smin * smin


def test_outcome_success_maximally_entangled_inputs():
    for x in (-1.0, 0.0, 0.5, None):
        assert thm1_outcome_success(Thm1Inputs(1.0, 1.0, x)) == pytest.approx(0.25, abs=1e-12)


def test_outcome_success_ideal_channel_reduces_to_smallest_sigma():
    for t in (0.1, 0.5, 0.7):
        closed = thm1_outcome_success(Thm1Inputs(1.0, math.cos(2 * t), 0.3))
        assert closed == pytest.approx((1.0 - math.sin(2 * t)) / 4.0, abs=1e-12)
        # cross-check against the smallest singular value of the explicit Kraus
        th = math.pi / 4 - t
        m0 = np.diag([math.sin(th), -1j * math.cos(th)]) / math.sqrt(2)
        assert closed == pytest.approx(float(svd(m0).sigmas[-1]) ** 2, abs=1e-12)


def test_outcome_success_symmetric_point():
    v = math.sqrt(2) / 2
    assert thm1_outcome_success(Thm1Inputs(v, v, 1.0)) == pytest.approx(
        (1.5 - math.sqrt(2)) / 4.0, abs=1e-12)
    assert thm1_outcome_success(Thm1Inputs(v, v, -1.0)) == pytest.approx(0.125, abs=1e-12)


def test_outcome_success_rejects_out_of_range():
    with pytest.raises(DomainError):
        thm1_outcome_success(Thm1Inputs(1.2, 0.5, 0.0))
    with pytest.raises(DomainError):
        thm1_outcome_success(Thm1Inputs(0.5, -0.2, 0.0))
    with pytest.raises(DomainError):
        thm1_outcome_success(Thm1Inputs(0.5, 0.5, 1.5))


def test_alignment_absent_for_maximally_entangled_channel():
    assert alignment_x(max_entangled(2), ejm(0.4), 0) is None


def test_alignment_signs_for_rotated_family():
    ch = schmidt_channel(math.pi / 8, "z")
    jm = xx_deformed(math.pi / 8)
    assert [alignment_x(ch, jm, r) for r in range(4)] == pytest.approx([-1.0, 1.0, 1.0, -1.0])


def test_alignment_antiparallel_for_matched_elegant_pair():
    assert alignment_x(ejm_channel(0.4), ejm(0.9), 0) == pytest.approx(-1.0, abs=1e-10)


def test_total_success_closed_form_requires_qubits():
    with pytest.raises(DimensionError, match="^the closed form is defined for qubits only$"):
        thm1_total_success(max_entangled(3), random_basis(3, np.random.default_rng(0)))


def test_alignment_requires_qubits():
    with pytest.raises(DimensionError):
        alignment_x(max_entangled(3), random_basis(3, np.random.default_rng(0)), 0)


@pytest.mark.parametrize("name", [n for n, e in SCENARIOS.items() if e.measurement])
def test_alignment_is_the_x_of_the_stacked_law(name):
    # on the scenario's default grid, alignment_x is bit for bit the x from
    # which thm1_success_stack computes P_succ, and the Bloch accessors' radii
    # are its u and v
    entry = SCENARIOS[name]
    _, t, x_angle = _rows(entry, entry.grid.values(),
                          None if entry.grid2 is None else entry.grid2.values())
    coeffs, elements = entry.channel(x_angle), entry.measurement(t)
    e_c, e_r, total = thm1_success_stack(coeffs, elements)
    u, v, x, aligned = _alignment(coeffs[:, None], elements)
    p = _closed_form(np.minimum(e_c, 1.0)[:, None], np.minimum(e_r, 1.0), u, v, x)
    assert np.array_equal(np.add.reduce(p, axis=-1), total)
    for i in range(t.size):
        channel = BipartiteState(d=2, coeff=coeffs[i])
        jm = JointMeasurement(d=2, elements=tuple(elements[i]), label=name)
        assert channel_bloch(channel).radius == u[i, 0]
        for r in range(4):
            assert element_bloch(jm, r).radius == v[i, r]
            got = alignment_x(channel, jm, r)
            assert (got is None) == (not aligned[i, r])
            assert got is None or got == x[i, r]


# thm1_total_success calls Theorem 1's parts itself; on every default-grid row of each
# qubit family, the Bell row of xx-scan among them, and on zz-scan's rank-deficient
# phi = 0 channel, it gives the bits of the stacked oracle on that row.
@pytest.mark.parametrize("name, second", [(n, None) for n, e in SCENARIOS.items() if e.measurement]
                         + [("zz-scan", np.zeros(1))],
                         ids=[n for n, e in SCENARIOS.items() if e.measurement] + ["zz-scan-phi0"])
def test_total_success_is_the_stacked_oracle_bit_for_bit(name, second):
    entry = SCENARIOS[name]
    if second is None and entry.grid2 is not None:
        second = entry.grid2.values()
    _, t, x = _rows(entry, entry.grid.values(), second)
    coeffs, elements = entry.channel(x), entry.measurement(t)
    got = np.array([thm1_total_success(BipartiteState(d=2, coeff=coeffs[i]),
                                       JointMeasurement(d=2, elements=tuple(elements[i]), label=name))
                    for i in range(t.size)])
    want = np.array([thm1_success_stack(coeffs[i], elements[i])[2] for i in range(t.size)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if name == "xx-scan":  # t = 0: the Bell measurement on the maximally entangled channel
        assert got[0] == pytest.approx(1.0, abs=1e-15)
    if second is not None and not second.any():  # phi = 0: E_c = 0, nothing recoverable
        assert not got.any()


def test_closed_form_matches_svd_on_random_pairs():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(500):
        closed, direct = _closed_form_vs_svd(random_coeff(2, rng), random_coeff(2, rng))
        worst = max(worst, abs(closed - direct))
    assert worst < 1e-9


def _aligned_reference(s: float, t: float) -> float:
    # the closed-form total in 50-digit arithmetic: the first radical vanishes
    # identically on the s = t diagonal, so float evaluation would lose half
    # its digits to cancellation right where the grid is densest
    import mpmath as mp
    with mp.workdps(50):
        e_c2 = 1 - mp.mpf(3) / 4 * mp.cos(s) ** 2
        e_m2 = 1 - mp.mpf(3) / 4 * mp.cos(t) ** 2
        x = mp.sqrt((1 - e_m2) * (1 - e_c2))
        a = mp.sqrt((1 - x) ** 2 - e_c2 * e_m2)
        b = mp.sqrt((3 + x) ** 2 - 9 * e_c2 * e_m2)
        return float(1 - (a + b) / 4)


def test_total_success_matches_elegant_aligned_formula():
    for s in np.linspace(0.0, math.pi / 2, 15):
        for t in np.linspace(0.0, math.pi / 2, 15):
            want = _aligned_reference(float(s), float(t))
            channel, jm = ejm_channel(float(s)), ejm(float(t))
            assert abs(thm1_total_success(channel, jm) - want) < 1e-9
            plan = optimal_reversal(build_instrument(channel, jm))
            assert abs(success_probability(plan) - want) < 1e-9


def test_total_success_matches_rotated_bell_formula():
    for phi in np.linspace(0.0, math.pi / 4, 15):
        for t in np.linspace(0.0, math.pi / 4, 15):
            weaker = min(math.sin(2 * phi), math.cos(2 * t))
            want = 1.0 - math.sqrt(1.0 - weaker ** 2)
            got = thm1_total_success(schmidt_channel(float(phi), "z"), xx_deformed(float(t)))
            assert abs(got - want) < 1e-9


def test_total_success_matches_zz_error_formula():
    for phi in np.linspace(0.0, math.pi / 4, 12):
        for t in np.linspace(0.0, ZX_ZZ_LIMIT * 0.99, 12):
            big_r = math.sqrt(math.pi ** 2 + 16 * t * t) / 4.0
            want = 1.0 - max(math.cos(2 * phi), abs(math.cos(2 * big_r)))
            got = thm1_total_success(schmidt_channel(float(phi), "y"), zx_zz(float(t)))
            assert abs(got - want) < 1e-9


def test_total_success_rejects_unnormalised_elements():
    jm = xx_deformed(0.3)
    bad = JointMeasurement(d=2, elements=(1.1 * jm.elements[0],) + jm.elements[1:],
                           label="scaled")
    with pytest.raises(DomainError):
        thm1_total_success(max_entangled(2), bad)


# build_instrument refuses these measurements too: the shapes by name, an incomplete set
# as an incomplete instrument.
def test_total_success_refuses_a_measurement_with_no_elements():
    with pytest.raises(DimensionError, match=re.escape("got shape (0,)")):
        thm1_total_success(max_entangled(2), JointMeasurement(2, (), "none"))


def test_total_success_refuses_three_of_the_four_bell_elements():
    three = JointMeasurement(2, xx_deformed(0.0).elements[:3], "three of bell")
    with pytest.raises(DimensionError, match=re.escape("got shape (3, 2, 2)")):
        thm1_total_success(max_entangled(2), three)


def test_total_success_refuses_elements_of_unequal_shapes():
    # checked element by element before stacking, as element_entanglement checks them
    jm = JointMeasurement(2, (np.eye(2), np.eye(3), np.eye(2), np.eye(2)), "unequal")
    with pytest.raises(DimensionError, match=r"shape \(3, 3\), expected \(2, 2\)"):
        thm1_total_success(max_entangled(2), jm)


def test_total_success_refuses_four_elements_that_are_not_orthonormal():
    bell = xx_deformed(0.0).elements
    repeated = JointMeasurement(2, bell[:3] + bell[:1], "bell with element 0 twice")
    with pytest.raises(DomainError, match="not orthonormal: max .* = 1.000e[+]00"):
        thm1_total_success(max_entangled(2), repeated)


def test_bloch_accessors_reject_bad_elements():
    jm = xx_deformed(0.3)
    scaled = JointMeasurement(d=2, elements=(1.1 * jm.elements[0],) + jm.elements[1:],
                              label="scaled")
    with pytest.raises(DomainError):
        element_bloch(scaled, 0)
    with pytest.raises(DomainError):
        alignment_x(schmidt_channel(math.pi / 8, "z"), scaled, 0)
    with pytest.raises(DimensionError):
        element_bloch(random_basis(3, np.random.default_rng(0)), 0)


@pytest.mark.parametrize("d", [2, 3])
def test_element_entanglement_rejects_bad_elements(d):
    # the SVD the determinant form replaced refused these for d > 2
    jm = random_basis(d, np.random.default_rng(5))
    nan = jm.elements[0].copy()
    nan[0, 0] = np.nan
    with pytest.raises(DomainError, match="finite"):
        element_entanglement(JointMeasurement(d=d, elements=(nan,) + jm.elements[1:],
                                              label="nan"), 0)
    flat = JointMeasurement(d=d, elements=(jm.elements[0][:, :-1],) + jm.elements[1:],
                            label="non-square")
    with pytest.raises(DimensionError, match="shape"):
        element_entanglement(flat, 0)
    scaled = JointMeasurement(d=d, elements=(1.1 * jm.elements[0],) + jm.elements[1:],
                              label="scaled")
    with pytest.raises(DomainError, match="not normalized"):
        element_entanglement(scaled, 0)


def test_stacked_law_rejects_non_finite_elements():
    elements = xx_deformed_stack([0.3])
    elements[0, 1, 0, 0] = np.nan
    with pytest.raises(DomainError):
        thm1_success_stack(max_entangled_stack(2, 1), elements)


def test_antiparallel_alignment_is_optimal_for_elegant_measurement():
    # grid search over channel Bloch directions at fixed entanglement values
    jm = ejm(0.5)
    ns = [element_bloch(jm, r).direction for r in range(4)]
    e_m = element_entanglement(jm, 0)
    golden = (1 + math.sqrt(5)) / 2
    for e_c in (0.3, 0.6, 0.9):
        def total(u):
            return sum(thm1_outcome_success(Thm1Inputs(e_c, e_m, float(np.dot(u, n))))
                       for n in ns)
        best_aligned = total(-ns[0])
        for k in range(400):
            z = 1.0 - 2.0 * (k + 0.5) / 400
            r = math.sqrt(1.0 - z * z)
            th = 2.0 * math.pi * k / golden
            u = np.array([r * math.cos(th), r * math.sin(th), z])
            assert total(u) <= best_aligned + 1e-12


def test_g_of_t_examples():
    assert g_of_t(2, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert g_of_t(3, 1.0 / 3.0) == pytest.approx(1.0 / 27.0, abs=1e-15)
    assert g_of_t(4, 0.1) == pytest.approx(0.1 * 0.3 ** 3, abs=1e-15)


def test_solve_tr_endpoints():
    for d in (2, 3, 4, 5):
        assert solve_tr(d, 0.0) == 0.0
        assert solve_tr(d, 1.0) == pytest.approx(1.0 / d, abs=1e-15)


def test_solve_tr_qubit_closed_form():
    for e in np.linspace(0.0, 1.0, 101):
        want = (1.0 - math.sqrt(1.0 - e * e)) / 2.0
        assert abs(solve_tr(2, float(e)) - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 6]), e=st.floats(0.0, 1.0))
def test_solve_tr_residual(d, e):
    t = solve_tr(d, e)
    assert 0.0 <= t <= 1.0 / d + 1e-15
    assert abs(g_of_t(d, t) - (e / d) ** d) < 1e-14


def _mp_root(d, e):
    """Root t of g(t) = (e/d)^d to a relative 1e-32: Newton from log t0 on
    h(u) = log g(e^u) - log (e/d)^d (increasing and concave, so the steps
    rise monotonically to the root) at 50 digits, certified by the sign change
    of h across u -+ 1e-32."""
    import mpmath as mp
    with mp.workdps(50):
        c = d * mp.log(mp.mpf(e) / d) + (d - 1) * mp.log(d - 1)  # log t0 and log (d-1)^(d-1) (e/d)^d
        h = lambda u: u + (d - 1) * mp.log1p(-mp.exp(u)) - c
        u = c
        for _ in range(200):
            step = h(u) / (1 - (d - 1) / mp.expm1(-u))
            u -= step
            if abs(step) < mp.mpf(10) ** -40:
                break
        width = mp.mpf(10) ** -32
        assert h(u - width) < 0 < h(u + width)
        return mp.exp(u)


def _bisection_root(d, e):
    """The bisection solve_tr ran before, stopping at hi - lo <= 1e-17."""
    target, lo, hi = (e / d) ** d, 0.0, 1.0 / d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g_of_t(d, mid) < target else (lo, mid)
        if hi - lo <= 1e-17:
            break
    return 0.5 * (lo + hi)


E_INTERIOR = np.concatenate([np.geomspace(1e-6, 0.4, 12), 1.0 - np.geomspace(1e-6, 0.4, 12)])
E_NEAR_ONE = 1.0 - np.array([1e-12, 3e-13, 1e-13, 2.0 ** -52, 2.0 ** -53])


@pytest.mark.parametrize("d", range(2, 9))
def test_solve_tr_against_mpmath_root(d):
    # relative 1e-12 on [1e-6, 1 - 1e-6], scalar and stacked, where the
    # absolute stop of the old bisection left solve_tr(8, 1e-6) off by 7e31;
    # within 1e-12 of 1, at least as close as that bisection
    import mpmath as mp
    refs = [_mp_root(d, e) for e in E_INTERIOR.tolist()]
    for e, ref in zip(E_INTERIOR.tolist(), refs):
        assert abs(mp.mpf(solve_tr(d, e)) - ref) <= 1e-12 * ref, (e, ref)
    stacked = solve_tr(np.full(E_INTERIOR.size, d), E_INTERIOR)
    for e, t, ref in zip(E_INTERIOR.tolist(), stacked.tolist(), refs):
        assert abs(mp.mpf(t) - ref) <= 1e-12 * ref, (e, ref)
    for e in E_NEAR_ONE.tolist():
        ref = _mp_root(d, e)
        assert abs(mp.mpf(solve_tr(d, e)) - ref) <= abs(mp.mpf(_bisection_root(d, e)) - ref)


def test_solve_tr_stacks_over_dimensions_and_endpoints():
    d = np.array([2.0, 3.0, 8.0, 4.0, 5.0])
    e = np.array([0.0, 1.0, 1.0, 0.3, 1.0 + 1e-10])
    t = solve_tr(d, e)
    assert t[0] == 0.0 and t[1] == 1.0 / 3.0 and t[2] == 0.125 and t[4] == 0.2
    assert t[3] == pytest.approx(solve_tr(4, 0.3), rel=1e-14)
    with pytest.raises(DomainError, match=re.escape("e_r[1]=1.5 outside [0, 1]")):
        solve_tr(3, [0.2, 1.5, -1.0])
    with pytest.raises(DomainError, match=re.escape("e_r=-0.5 outside [0, 1]")):
        solve_tr(3, -0.5)


@pytest.mark.parametrize("d", [2, np.array(3.0)])
def test_solve_tr_of_no_values_is_empty(d):
    t = solve_tr(d, [])
    assert isinstance(t, np.ndarray) and t.shape == (0,) and t.dtype == np.float64


def test_a_refused_numpy_scalar_is_named_as_a_plain_number():
    with pytest.raises(DomainError, match=re.escape("e_c=1.5 outside [0, 1]")):
        thm1_outcome_success(Thm1Inputs(np.float64(1.5), 0.5, 0.0))
    with pytest.raises(DomainError, match=re.escape("e_r=-0.5 outside [0, 1]")):
        solve_tr(3, np.float64(-0.5))
    with pytest.raises(DomainError, match=re.escape("x_r=-1.5 outside [-1, 1]")):
        thm1_outcome_success(Thm1Inputs(0.5, 0.5, np.float64(-1.5)))
    assert isinstance(solve_tr(np.int64(3), np.array(0.5)), float)


@pytest.mark.parametrize("call, got", [
    (lambda: solve_tr(1, 0.5), "1"), (lambda: solve_tr(0, 0.5), "0"),
    (lambda: solve_tr(-3, [0.5, 0.2]), "-3"), (lambda: saturating_spectrum(1, 0.5), "1"),
    (lambda: solve_tr(np.array([3.0, 1.0, 0.0]), np.array([0.5, 0.5, 0.5])), "0.0"),
    (lambda: solve_tr(np.array([3.0, float("nan")]), 0.5), "nan")],
    ids=["d=1", "d=0", "d=-3", "saturating d=1", "stacked", "nan"])
def test_solve_tr_refuses_dimensions_below_two(call, got):
    # d = 1 and d = 0 would divide by d - 1 = 0 or by d = 0; a stack names its smallest d
    with pytest.raises(DomainError, match=re.escape(f"dimension must be >= 2, got {got}")):
        call()


def test_d3_closed_form_matches_bisection():
    for e in np.linspace(0.0, 1.0, 1000):
        assert abs(tr_closed_form_d3(float(e)) - solve_tr(3, float(e))) < 1e-12
    assert tr_closed_form_d3(1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert tr_closed_form_d3(0.0) == pytest.approx(0.0, abs=1e-12)
    assert tr_closed_form_d3(0.8) == pytest.approx(solve_tr(3, 0.8), abs=1e-12)


def test_bounds_saturate_for_maximally_entangled_basis():
    b = thm2_bounds(3, [1.0] * 9)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == 1.0


def test_bounds_tight_for_qubits():
    for t in (0.1, 0.4, 0.7):
        e = math.cos(2 * t)
        b = thm2_bounds(2, [e] * 4)
        inst = build_instrument(max_entangled(2), xx_deformed(t))
        p = success_probability(optimal_reversal(inst))
        assert abs(b.lower - (1.0 - math.sin(2 * t))) < 1e-12
        assert abs(b.lower - p) < 1e-9


def test_bounds_sandwich_on_random_bases():
    rng = np.random.default_rng(47)
    for d in (3, 4):
        for _ in range(100):
            jm = random_basis(d, rng)
            es = [element_entanglement(jm, r) for r in range(d * d)]
            b = thm2_bounds(d, es)
            p = success_probability(optimal_reversal(build_instrument(max_entangled(d), jm)))
            assert b.lower - 1e-9 <= p <= b.upper + 1e-9
            assert 0.0 <= b.lower <= b.upper <= 1.0 + 1e-12
            assert all(0.0 <= t <= 1.0 / d + 1e-12 for t in b.t_values)


def test_bounds_monotone_in_each_entanglement():
    grid = np.linspace(0.0, 1.0, 21)
    base = [0.3] * 9
    prev_lower = prev_upper = -1.0
    for e in grid:
        es = list(base)
        es[4] = float(e)
        b = thm2_bounds(3, es)
        assert b.lower >= prev_lower - 1e-15
        assert b.upper >= prev_upper - 1e-15
        prev_lower, prev_upper = b.lower, b.upper


def test_bounds_validate_inputs():
    with pytest.raises(DomainError):
        thm2_bounds(3, [0.5] * 8)
    with pytest.raises(DomainError):
        thm2_bounds(3, [1.5] * 9)
    with pytest.raises(DomainError):
        thm2_bounds(1, [])


def test_bounds_input_messages():
    # one stacked check names the first bad value by index, NaN included
    es = [0.5] * 9
    es[2], es[6] = 1.5, -0.5
    with pytest.raises(DomainError, match=re.escape("e_list[2]=1.5 outside [0, 1]")):
        thm2_bounds(3, es)
    es[2] = float("nan")
    with pytest.raises(DomainError, match=re.escape("e_list[2]=nan outside [0, 1]")):
        thm2_bounds(3, es)
    with pytest.raises(DomainError, match=re.escape("expected 9 entanglement values, got 8")):
        thm2_bounds(3, [0.5] * 8)
    with pytest.raises(DomainError, match=re.escape("dimension must be >= 2, got 1")):
        thm2_bounds(1, [])
    # values within the tolerance of [0, 1] are clipped onto it
    assert thm2_bounds(2, [1.0 + 1e-10] * 3 + [-1e-10]).upper == 0.75


def test_saturating_spectrum_examples():
    assert np.allclose(saturating_spectrum(3, 1.0), [1 / math.sqrt(3)] * 3, atol=1e-12)
    assert np.allclose(saturating_spectrum(3, 0.0),
                       [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], atol=1e-12)


def test_saturating_spectrum_round_trips_g_concurrence():
    for d in (3, 4):
        for e in (0.0, 0.2, 0.6, 0.95, 1.0):
            lam = saturating_spectrum(d, e)
            assert abs(np.sum(lam ** 2) - 1.0) < 1e-12
            g = d * float(np.prod(lam)) ** (2.0 / d)
            assert abs(g - e) < 1e-10


def test_saturating_spectrum_attains_lower_bound():
    rng = np.random.default_rng(48)
    for d in (3, 4):
        for e in (0.1, 0.5, 0.9):
            lam = saturating_spectrum(d, e)
            q1, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            w = q1 @ np.diag(lam) @ q2.conj().T
            m = max_entangled(d).coeff.T @ w.conj().T
            smin_sq = float(svd(m).sigmas[-1]) ** 2
            assert abs(smin_sq - solve_tr(d, e) / d) < 1e-9


def test_random_basis_is_orthonormal_and_complete():
    from oracles import validate
    rng = np.random.default_rng(49)
    for d in (2, 3, 4):
        rep = validate(random_basis(d, rng))
        assert rep.ortho_residual < 1e-10
        assert rep.completeness_residual < 1e-10


# Scalar references that live in tests/oracles.py and nowhere in the library.
TEST_ONLY = ("PAULI_X", "PAULI_Y", "PAULI_Z", "BlochPoint", "_bloch_point", "channel_operator",
             "reduced_bloch", "channel_bloch", "BasisReport", "validate", "element_bloch",
             "alignment_x", "tr_closed_form_d3", "haar_state", "apply_kraus_oracle", "_rows",
             "_alignment", "thm1_success_stack", "SCENARIO_NAMES", "_haar_batch", "complex_from")


def test_public_names_resolve_and_test_oracles_stay_out_of_the_library():
    namespace = {}
    exec("from telerev import *", namespace)
    assert set(telerev.__all__) <= namespace.keys()
    for module in (telerev, theorems):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    modules = [telerev] + [importlib.import_module(f"telerev.{m.name}")
                           for m in pkgutil.iter_modules(telerev.__path__)]
    assert [(m.__name__, name) for m in modules for name in TEST_ONLY if hasattr(m, name)] == []


# A fractional dimension, a float-typed whole one too, is refused by name, before
# numpy fails on it with a bare TypeError or an entry count of d^2 = 6.25.
def test_saturating_spectrum_refuses_a_fractional_dimension():
    with pytest.raises(DomainError, match=r"^dimension 2\.5 is not an integer$"):
        saturating_spectrum(2.5, 0.5)
    with pytest.raises(DomainError, match=r"^dimension np\.float64\(3\.0\) is not an integer$"):
        saturating_spectrum(np.float64(3.0), 0.5)
    assert np.array_equal(saturating_spectrum(np.int64(3), 0.5), saturating_spectrum(3, 0.5))


def test_thm2_bounds_refuses_a_fractional_dimension():
    with pytest.raises(DomainError, match=r"^dimension 2\.5 is not an integer$"):
        thm2_bounds(2.5, [0.5] * 6)


def test_random_basis_refuses_a_fractional_dimension():
    with pytest.raises(DomainError, match=r"^dimension 2\.5 is not an integer$"):
        random_basis(2.5, np.random.default_rng(0))


# Dimensions below two are refused by name, before a division by d - 1 = 0 or an
# empty "measurement".
@pytest.mark.parametrize("d", [0, 1])
def test_random_basis_refuses_dimensions_below_two(d):
    with pytest.raises(DomainError, match=rf"^dimension must be >= 2, got {d}$"):
        random_basis(d, np.random.default_rng(0))


def test_g_of_t_refuses_dimensions_below_two():
    with pytest.raises(DomainError, match=r"^dimension must be >= 2, got 1$"):
        g_of_t(1, 0.5)


def test_thm2_bounds_refuses_a_nested_list_of_the_right_size():
    with pytest.raises(DimensionError, match=re.escape("e_list must be flat, got shape (2, 2)")):
        thm2_bounds(2, [[0.5, 0.5], [0.5, 0.5]])
