import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telerev import bell_basis, ejm, element_entanglement, xx_deformed, zx_zz
from telerev.errors import DimensionError, DomainError, TelerevError
from telerev.jointmeas import ZX_ZZ_LIMIT, JointMeasurement
from telerev.theorems import random_basis

from helpers import dev_up_to_phase
from oracles import element_bloch, validate


def test_bell_basis_is_maximally_entangled():
    jm = bell_basis()
    for r in range(4):
        assert abs(element_entanglement(jm, r) - 1.0) < 1e-12
        assert element_bloch(jm, r).direction is None
    rep = validate(jm)
    assert rep.ortho_residual < 1e-12
    assert rep.completeness_residual < 1e-12


def test_bell_matches_ideal_limit_of_rotated_family():
    ideal = xx_deformed(0.0)
    jm = bell_basis()
    for a, b in zip(jm.elements, ideal.elements):
        assert dev_up_to_phase(a, b) < 1e-12


@pytest.mark.parametrize("t, expected", [
    (0.0, 1.0),
    (math.pi / 8, math.sqrt(2) / 2),
    (math.pi / 4, 0.0),
])
def test_xx_deformed_concurrence(t, expected):
    jm = xx_deformed(t)
    for r in range(4):
        assert abs(element_entanglement(jm, r) - expected) < 1e-12
        assert abs(element_entanglement(jm, r) - math.cos(2 * t)) < 1e-12


def test_xx_deformed_rejects_out_of_range():
    with pytest.raises(DomainError):
        xx_deformed(-0.01)
    with pytest.raises(DomainError):
        xx_deformed(math.pi / 4 + 0.01)


def test_ejm_limits():
    ideal = ejm(math.pi / 2)
    for r in range(4):
        assert abs(element_entanglement(ideal, r) - 1.0) < 1e-12
    widest = ejm(0.0)
    for r in range(4):
        assert abs(element_entanglement(widest, r) - 0.5) < 1e-12
        assert abs(element_bloch(widest, r).radius - math.sqrt(3) / 2) < 1e-12


def test_ejm_iso_entangled_across_parameters():
    for t in np.linspace(0.0, math.pi / 2, 40):
        jm = ejm(float(t))
        vals = [element_entanglement(jm, r) for r in range(4)]
        assert max(vals) - min(vals) < 1e-12
        assert abs(vals[0] - math.sqrt(1.0 - 0.75 * math.cos(t) ** 2)) < 1e-12
        assert abs(element_bloch(jm, 0).radius - math.sqrt(3) / 2 * math.cos(t)) < 1e-10


def test_ejm_bloch_directions_form_regular_tetrahedron():
    for t in (0.0, 0.6, 1.2):
        dirs = [element_bloch(ejm(t), r).direction for r in range(4)]
        for a, b in combinations(dirs, 2):
            assert abs(np.dot(a, b) + 1.0 / 3.0) < 1e-10


def test_ejm_rejects_out_of_range():
    with pytest.raises(DomainError):
        ejm(-0.2)
    with pytest.raises(DomainError):
        ejm(math.pi / 2 + 0.2)


def test_zx_zz_ideal_limit():
    jm = zx_zz(0.0)
    alpha = 2.0 * jm.elements[0][0, 0]
    beta = 2.0 * jm.elements[0][0, 1]
    assert abs(alpha - math.sqrt(2)) < 1e-12
    assert abs(beta) < 1e-12
    bell = np.diag([1.0, 1.0]) / math.sqrt(2)
    assert np.max(np.abs(jm.elements[0] - bell)) < 1e-12
    assert abs(element_entanglement(jm, 0) - 1.0) < 1e-12


def test_zx_zz_concurrence_formula():
    for t in (0.1, 0.3, 0.9, 1.3):
        jm = zx_zz(t)
        big_r = math.sqrt(math.pi ** 2 + 16 * t * t) / 4.0
        expected = abs(math.sin(2 * big_r))
        for r in range(4):
            assert abs(element_entanglement(jm, r) - expected) < 1e-12


def test_zx_zz_ket_normalization_invariant():
    for t in np.linspace(0.0, ZX_ZZ_LIMIT * 0.999, 60):
        w0 = zx_zz(float(t)).elements[0]
        alpha = 2.0 * w0[0, 0]
        beta = 2.0 * w0[0, 1]
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 2.0) < 1e-12


def test_zx_zz_rejects_out_of_range():
    with pytest.raises(DomainError):
        zx_zz(-0.05)
    with pytest.raises(DomainError):
        zx_zz(ZX_ZZ_LIMIT)
    with pytest.raises(DomainError):
        zx_zz(2.0)


@pytest.mark.parametrize("family, grid", [
    (xx_deformed, np.linspace(0.0, math.pi / 4, 200)),
    (ejm, np.linspace(0.0, math.pi / 2, 200)),
    (zx_zz, np.linspace(0.0, ZX_ZZ_LIMIT * 0.999, 200)),
])
def test_families_orthonormal_and_complete_on_grids(family, grid):
    worst_ortho = worst_comp = 0.0
    for t in grid:
        rep = validate(family(float(t)))
        worst_ortho = max(worst_ortho, rep.ortho_residual)
        worst_comp = max(worst_comp, rep.completeness_residual)
    assert worst_ortho < 1e-10
    assert worst_comp < 1e-10


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, math.pi / 2))
def test_ejm_validates_everywhere(t):
    rep = validate(ejm(t))
    assert rep.ortho_residual < 1e-10
    assert rep.completeness_residual < 1e-10


def test_validate_detects_corruption():
    jm = ejm(0.7)
    rep = validate(jm)
    assert rep.ortho_residual < 1e-10 and rep.completeness_residual < 1e-10
    corrupted = list(np.copy(w) for w in jm.elements)
    corrupted[2][0, 1] += 1e-3
    bad = JointMeasurement(d=2, elements=tuple(corrupted), label="corrupted")
    assert validate(bad).completeness_residual >= 1e-4


def test_element_accessors_check_index():
    jm = bell_basis()
    with pytest.raises(IndexError):
        element_entanglement(jm, 4)
    with pytest.raises(IndexError):
        element_bloch(jm, -5)


def test_element_examples():
    t = 0.3
    jm = xx_deformed(t)
    assert abs(element_entanglement(jm, 0) - math.cos(2 * t)) < 1e-12
    bp = element_bloch(jm, 0)
    assert abs(bp.radius - math.sin(2 * t)) < 1e-12
    assert np.allclose(bp.direction, [0, 0, -1], atol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_element_entanglement_is_one_stack_per_measurement(d, monkeypatch):
    import telerev.jointmeas as jointmeas
    from telerev.qstate import BipartiteState, concurrences, g_concurrence
    from telerev.theorems import random_basis
    jm = random_basis(d, np.random.default_rng(60 + d))
    calls = []
    checked = jointmeas._normalised
    monkeypatch.setattr(jointmeas, "_normalised", lambda e: calls.append(1) or checked(e))
    stack = concurrences(np.array(jm.elements))
    for r in range(d * d):
        got = element_entanglement(jm, r)
        assert got == stack[r], r
        # the one-matrix determinant path may round abs and ** differently
        one = g_concurrence(BipartiteState(d=d, coeff=jm.elements[r]))
        assert abs(got - one) <= 1e-15 * one, r
    assert len(calls) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_element_entanglement_refuses_a_bad_element_at_any_index(d):
    # every element is checked once, so element 1 is refused when 0 is asked for
    from telerev.errors import DimensionError
    from telerev.theorems import random_basis
    jm = random_basis(d, np.random.default_rng(7))
    nan = jm.elements[1].copy()
    nan[0, 0] = np.nan
    bad = {"finite": nan, "not normalized": 1.1 * jm.elements[1],
           "shape": jm.elements[1][:, :-1]}
    for message, element in bad.items():
        broken = JointMeasurement(d=d, elements=jm.elements[:1] + (element,) + jm.elements[2:],
                                  label=message)
        error = DimensionError if message == "shape" else DomainError
        with pytest.raises(error, match=message):
            element_entanglement(broken, 0)


def test_element_entanglement_refuses_elements_of_unequal_shapes():
    jm = JointMeasurement(2, (np.eye(2), np.eye(3), np.eye(2), np.eye(2)), "unequal")
    with pytest.raises(DimensionError, match=r"shape \(3, 3\), expected \(2, 2\)"):
        element_entanglement(jm, 0)


# An outcome outside [0, d^2) is refused by name; -1 would read element d^2 - 1.
@pytest.mark.parametrize("r", [9, -1, 4 * 4])
def test_element_entanglement_refuses_an_outcome_out_of_range(r):
    jm = random_basis(3, np.random.default_rng(5))
    with pytest.raises(IndexError, match=rf"^outcome {r} outside \[0, 9\)$"):
        element_entanglement(jm, r)
    with pytest.raises(IndexError, match=rf"^outcome {r} outside \[0, 4\)$"):
        element_entanglement(bell_basis(), r)


@pytest.mark.parametrize("r", [4, -1])
def test_an_outcome_out_of_range_is_a_telerev_error(r):
    with pytest.raises(TelerevError, match=rf"^outcome {r} outside \[0, 4\)$"):
        element_entanglement(bell_basis(), r)


# One angle is due: an array or a string passed the range check and failed
# with a bare TypeError or ValueError as the label was formatted.
@pytest.mark.parametrize("factory, value", [(ejm, [0.1, 0.2]), (xx_deformed, [0.1]),
                                            (zx_zz, np.array([0.1, 0.2])), (ejm, "0.1"),
                                            (xx_deformed, [[0.1], [0.2, 0.3]])],
                         ids=["ejm", "xx_deformed", "zx_zz", "ejm-string", "ragged"])
def test_scalar_factories_refuse_more_than_one_angle(factory, value):
    with pytest.raises(DomainError, match=re.escape(f"t must be a single number, got {value!r}")):
        factory(value)


def test_element_entanglement_refuses_a_fractional_outcome():
    with pytest.raises(DomainError, match=r"^outcome 1\.5 is not an integer$"):
        element_entanglement(bell_basis(), 1.5)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_a_measurement_stack_is_a_copy_of_its_elements(d):
    jm = bell_basis() if d == 2 else random_basis(d, np.random.default_rng(40 + d))
    stack = jm.stack()
    assert stack.shape == (d * d, d, d)
    assert np.array_equal(stack, np.array(jm.elements))
    assert all(w.flags.writeable for w in jm.elements)  # the stack is a copy
    assert not any(np.shares_memory(stack, w) for w in jm.elements)


def test_a_refused_stack_is_refused_on_every_call():
    jm = JointMeasurement(2, (np.eye(2), np.eye(3), np.eye(2), np.eye(2)), "unequal")
    for _ in range(2):
        with pytest.raises(DimensionError, match=r"shape \(3, 3\), expected \(2, 2\)"):
            jm.stack()
