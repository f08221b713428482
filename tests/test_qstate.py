import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telerev import (BipartiteState, DimensionError, concurrence, ejm_channel,
                     g_concurrence, max_entangled, schmidt_channel)
from telerev.errors import DomainError
from telerev.jointmeas import ejm, ejm_stack, element_entanglement, xx_deformed
from telerev.linalg import svd
from telerev.qstate import NORM_TOL, ejm_channel_stack
from telerev.theorems import random_basis

from helpers import random_coeff
from oracles import (PAULI_X, PAULI_Y, PAULI_Z, _bloch_point, channel_bloch,
                     channel_operator, element_bloch, reduced_bloch)


def test_max_entangled_qubits():
    st2 = max_entangled(2)
    assert np.allclose(st2.coeff, np.diag([1, 1]) / math.sqrt(2))
    assert abs(concurrence(st2) - 1.0) < 1e-12
    bp = channel_bloch(st2)
    assert bp.radius < 1e-9
    assert bp.direction is None


def test_max_entangled_qutrits():
    assert abs(g_concurrence(max_entangled(3)) - 1.0) < 1e-12


def test_max_entangled_rejects_small_dimension():
    with pytest.raises(DimensionError):
        max_entangled(1)


def test_schmidt_channel_bell_limit():
    assert abs(concurrence(schmidt_channel(math.pi / 4, "z")) - 1.0) < 1e-12


def test_schmidt_channel_partial():
    assert abs(concurrence(schmidt_channel(math.pi / 8, "z")) - math.sqrt(2) / 2) < 1e-12


def test_schmidt_channel_y_product_point():
    st_y = schmidt_channel(0.0, "y")
    assert abs(concurrence(st_y)) < 1e-12
    # |0_y 0_y> as a coefficient matrix
    v = np.array([1.0, 1j]) / math.sqrt(2)
    assert np.max(np.abs(st_y.coeff - np.outer(v, v))) < 1e-12


def test_schmidt_channel_rejects_out_of_range():
    with pytest.raises(DomainError):
        schmidt_channel(math.pi / 3, "z")
    with pytest.raises(DomainError):
        schmidt_channel(-0.1, "z")
    with pytest.raises(DomainError):
        schmidt_channel(0.1, "w")


def test_schmidt_basis_that_is_not_a_string_is_named():
    with pytest.raises(DomainError, match=r"^unknown basis None; expected 'z' or 'y'$"):
        schmidt_channel(0.3, None)


@settings(max_examples=80, deadline=None)
@given(phi=st.floats(0.0, math.pi / 4))
def test_schmidt_concurrence_is_sin_2phi(phi):
    for basis in ("z", "y"):
        assert abs(concurrence(schmidt_channel(phi, basis)) - math.sin(2 * phi)) < 1e-12


def test_ejm_channel_entanglement():
    assert abs(concurrence(ejm_channel(math.pi / 2)) - 1.0) < 1e-12
    assert channel_bloch(ejm_channel(math.pi / 2)).direction is None
    assert abs(concurrence(ejm_channel(0.0)) - 0.5) < 1e-12
    assert abs(channel_bloch(ejm_channel(0.0)).radius - math.sqrt(3) / 2) < 1e-12


def test_ejm_channel_direction_antiparallel_to_element0():
    # channel Bloch direction is -n_0 of the elegant measurement, for any s, t
    for s in (0.0, 0.4, 1.2):
        u = channel_bloch(ejm_channel(s)).direction
        for t in (0.0, 0.7):
            n0 = element_bloch(ejm(t), 0).direction
            assert abs(np.dot(u, n0) + 1.0) < 1e-10


def test_ejm_channel_stack_is_element0_of_ejm_stack():
    s = np.linspace(0.0, math.pi / 2, 101)
    chan = ejm_channel_stack(s)
    assert np.array_equal(chan, ejm_stack(s)[:, 0])
    # the channel's own entries before it shared the measurement's definition
    pm, pp = (1.0 - np.exp(-1j * s)) / math.sqrt(2), (1.0 + np.exp(-1j * s)) / math.sqrt(2)
    old = 0.5 * np.stack([np.full(101, np.exp(-1j * math.pi / 4)), pm, pp,
                          np.full(101, np.exp(-3j * math.pi / 4))], axis=1).reshape(101, 2, 2)
    assert np.array_equal(chan, old)


def test_ejm_channel_rejects_out_of_range():
    with pytest.raises(DomainError):
        ejm_channel(-0.2)
    with pytest.raises(DomainError):
        ejm_channel(math.pi / 2 + 0.1)


def test_concurrence_examples():
    assert abs(concurrence(max_entangled(2)) - 1.0) < 1e-12
    product = BipartiteState(d=2, coeff=np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert concurrence(product) == 0.0
    with pytest.raises(DimensionError):
        concurrence(max_entangled(3))


def test_g_concurrence_examples():
    weights = np.array([0.5, 0.3, 0.2])
    state = BipartiteState(d=3, coeff=np.diag(np.sqrt(weights)))
    expected = 3.0 * (0.5 * 0.3 * 0.2) ** (1.0 / 3.0)
    assert abs(g_concurrence(state) - expected) < 1e-12
    rank_deficient = BipartiteState(d=3, coeff=np.diag([math.sqrt(0.5), math.sqrt(0.5), 0.0]))
    assert g_concurrence(rank_deficient) == 0.0


def test_g_concurrence_matches_concurrence_for_qubits():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        state = BipartiteState(d=2, coeff=random_coeff(2, rng))
        assert abs(concurrence(state) - g_concurrence(state)) < 1e-10


def _svd_g_concurrence(coeff) -> float:
    """The G-concurrence as the product of the singular values, d (prod sigma)^(2/d),
    the formula g_concurrence used before the determinant form replaced it."""
    d = coeff.shape[-1]
    return d * float(np.prod(svd(coeff).sigmas)) ** (2.0 / d)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_g_concurrence_matches_the_singular_value_product(d, seed):
    rng = np.random.default_rng(seed)
    coeff = random_coeff(d, rng)
    assert abs(g_concurrence(BipartiteState(d=d, coeff=coeff)) - _svd_g_concurrence(coeff)) <= 1e-12
    jm = random_basis(d, rng)
    for r in range(d * d):
        assert abs(element_entanglement(jm, r) - _svd_g_concurrence(jm.elements[r])) <= 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_g_concurrence_is_exactly_zero_on_a_rank_deficient_diagonal(d):
    coeff = np.diag([1.0] * (d - 1) + [0.0]) / math.sqrt(d - 1)
    assert g_concurrence(BipartiteState(d=d, coeff=coeff)) == 0.0 == _svd_g_concurrence(coeff)


def test_channel_bloch_radius_complements_concurrence():
    rng = np.random.default_rng(12)
    for _ in range(300):
        state = BipartiteState(d=2, coeff=random_coeff(2, rng))
        expected = math.sqrt(max(1.0 - concurrence(state) ** 2, 0.0))
        assert abs(channel_bloch(state).radius - expected) < 1e-10


def test_reduced_bloch_maximally_mixed():
    bp = reduced_bloch(np.eye(2) / 2)
    assert bp.radius < 1e-12
    assert bp.direction is None


def test_reduced_bloch_schmidt_channel_operator():
    phi = math.pi / 8
    bp = reduced_bloch(channel_operator(schmidt_channel(phi, "z")))
    assert abs(bp.radius - math.cos(2 * phi)) < 1e-12
    assert np.allclose(bp.direction, [0.0, 0.0, 1.0], atol=1e-12)


def test_reduced_bloch_deformed_element_operator():
    t = math.pi / 8
    w0 = xx_deformed(t).elements[0]
    bp = reduced_bloch(w0.conj().T @ w0)
    assert abs(bp.radius - math.sin(2 * t)) < 1e-12
    assert np.allclose(bp.direction, [0.0, 0.0, -1.0], atol=1e-12)


def test_reduced_bloch_rejects_bad_operators():
    with pytest.raises(DomainError):
        reduced_bloch(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        reduced_bloch(np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        reduced_bloch(np.diag([1.5, -0.5]))  # not positive
    with pytest.raises(DimensionError):
        reduced_bloch(np.eye(3) / 3)


def _pauli_traces(a):
    """Re Tr(A sigma_k), the trace loop reduced_bloch ran before it read the
    components off the entries."""
    return [np.trace(a @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)]


def test_reduced_bloch_components_are_the_pauli_traces():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = m @ m.conj().T
        a /= np.trace(a).real
        got, want = reduced_bloch(a), _bloch_point(*_pauli_traces(a))
        assert got.radius == want.radius
        assert np.array_equal(got.direction, want.direction)
        # the radius was np.linalg.norm of the traces; the shared sqrt(x^2 + y^2 + z^2)
        # differs from it in the last bits only (1,220 of these 10,000 radii, <= 2 ulp)
        vec = np.array(_pauli_traces(a))
        old = float(np.linalg.norm(vec))
        assert abs(got.radius - old) <= 2 * np.spacing(old)
        assert np.max(np.abs(got.direction - vec / old)) <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("smallest, rejected", [(-3e-10, True), (-0.5e-10, False)])
def test_reduced_bloch_positivity_matches_the_smallest_eigenvalue(smallest, rejected):
    # a Hermitian 2x2 operator has eigenvalues (Tr +- r)/2, so Tr - r < -2 NORM_TOL
    # is the test eigvalsh(op)[0] < -NORM_TOL
    rng = np.random.default_rng(14)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        op = q @ np.diag([1.0 - smallest, smallest]) @ q.conj().T
        assert (np.linalg.eigvalsh(op)[0] < -NORM_TOL) == rejected
        if rejected:
            with pytest.raises(DomainError, match="not positive semidefinite"):
                reduced_bloch(op)
        else:
            assert reduced_bloch(op).radius > 1.0


def test_constructor_normalization_over_sweeps():
    # grid step pi/1000 across each family's full parameter range
    for phi in np.arange(0.0, math.pi / 4 + 1e-12, math.pi / 1000):
        for basis in ("z", "y"):
            e = schmidt_channel(float(phi), basis).coeff
            assert abs(np.linalg.norm(e) - 1.0) < 1e-10
    for s in np.arange(0.0, math.pi / 2 + 1e-12, math.pi / 1000):
        e = ejm_channel(float(s)).coeff
        assert abs(np.linalg.norm(e) - 1.0) < 1e-10


def test_state_validation():
    with pytest.raises(DomainError):
        BipartiteState(d=2, coeff=np.eye(2))  # unnormalized
    with pytest.raises(DimensionError):
        BipartiteState(d=3, coeff=np.eye(2) / math.sqrt(2))


@pytest.mark.parametrize("d", range(2, 9))
def test_state_check_refuses_with_the_messages_of_the_full_checks(d):
    # the one-norm pass lets only normalised d x d matrices through; the rest
    # take the full checks, so each refusal keeps its message
    good = random_coeff(d, np.random.default_rng(d))
    assert np.array_equal(BipartiteState(d=d, coeff=good).coeff, good)
    for entry in (np.nan, np.inf):
        bad = good.copy()
        bad[0, 0] = entry
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            BipartiteState(d=d, coeff=bad)
    with pytest.raises(DimensionError, match=r"coefficient matrix has shape \(%d, %d\)" % (d, d - 1)):
        BipartiteState(d=d, coeff=good[:, :-1] / np.linalg.norm(good[:, :-1]))
    with pytest.raises(DimensionError, match="expected a matrix, got ndim=1"):
        BipartiteState(d=d, coeff=good.ravel())
    with pytest.raises(DomainError, match=r"not normalized: Tr\(E\^dag E\) = 1\.21"):
        BipartiteState(d=d, coeff=1.1 * good)
    with pytest.raises(DimensionError, match="local dimension must be >= 2, got 1"):
        BipartiteState(d=1, coeff=np.ones((1, 1)))


def test_from_vector_round_trip():
    rng = np.random.default_rng(3)
    coeff = random_coeff(2, rng)
    state = BipartiteState.from_vector(coeff.ravel())
    assert np.array_equal(state.coeff, coeff)
    with pytest.raises(DimensionError):
        BipartiteState.from_vector(np.ones(3) / math.sqrt(3))
