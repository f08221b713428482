import math
import re

import numpy as np
import pytest

from telerev import DimensionError, polar_unitary, svd
from telerev.errors import DomainError
from telerev.jointmeas import zx_zz_stack
from telerev.linalg import fold, gram, product
from telerev.qstate import schmidt_stack

from helpers import random_coeff
from oracles import real_matmul_reference


def test_svd_identity():
    res = svd(np.eye(2))
    assert np.allclose(res.sigmas, [1.0, 1.0])
    assert not res.rank_deficient


def test_svd_permutation():
    res = svd(np.array([[0, 1], [1, 0]]))
    assert np.allclose(res.sigmas, [1.0, 1.0], atol=1e-14)


def test_svd_elegant_kraus_sigmas():
    # ideal-limit elegant-measurement Kraus operator for outcome 0
    m = np.array([[np.exp(1j * np.pi / 4), math.sqrt(2)],
                  [0.0, np.exp(3j * np.pi / 4)]]) / (2 * math.sqrt(2))
    res = svd(m)
    assert abs(res.sigmas[0] - 0.6830127018922193) < 1e-12
    assert abs(res.sigmas[1] - 0.18301270189221933) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_svd_reconstruction_and_unitarity(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        res = svd(m)
        recon = res.left @ np.diag(res.sigmas) @ res.right.conj().T
        assert np.linalg.norm(recon - m) < 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.max(np.abs(res.left.conj().T @ res.left - np.eye(d))) < 1e-10
        assert np.max(np.abs(res.right.conj().T @ res.right - np.eye(d))) < 1e-10
        assert np.all(np.diff(res.sigmas) <= 0)
        # sum of squared sigmas is the squared Frobenius norm
        assert abs(np.sum(res.sigmas ** 2) - np.linalg.norm(m) ** 2) < 1e-10 * np.linalg.norm(m) ** 2


def test_svd_degenerate_sigmas_still_reconstructs():
    u = np.array([[1, 1], [1j, -1j]]) / math.sqrt(2)
    m = u / math.sqrt(2)  # both singular values 1/sqrt(2)
    res = svd(m)
    recon = res.left @ np.diag(res.sigmas) @ res.right.conj().T
    assert np.max(np.abs(recon - m)) < 1e-12


def test_svd_clamps_tiny_sigmas():
    res = svd(np.diag([1.0, 1e-15]))
    assert res.sigmas[1] == 0.0
    assert res.rank_deficient


def test_svd_rejects_non_square():
    with pytest.raises(DimensionError):
        svd(np.ones((2, 3)))


def test_svd_rejects_non_finite():
    with pytest.raises(DomainError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_svd_and_polar_refuse_an_empty_matrix_by_name(shape):
    message = re.escape(f"expected a square matrix with d >= 1, got shape {shape}")
    for call in (svd, polar_unitary):
        with pytest.raises(DimensionError, match=message):
            call(np.zeros(shape))


def test_polar_of_unitary_is_its_adjoint():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    u = polar_unitary(q)
    assert np.max(np.abs(u - q.conj().T)) < 1e-10
    assert abs(abs(np.trace(u @ q)) - 3.0) < 1e-10


def test_polar_of_positive_diagonal_is_identity():
    u = polar_unitary(np.diag([0.8, 0.2]))
    assert np.max(np.abs(u - np.eye(2))) < 1e-12
    assert abs(abs(np.trace(u @ np.diag([0.8, 0.2]))) - 1.0) < 1e-12


def test_polar_trace_equals_nuclear_norm():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = random_coeff(2, rng)
        u = polar_unitary(m)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10
        assert abs(abs(np.trace(u @ m)) - np.sum(svd(m).sigmas)) < 1e-10


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d, k", [(2, 2), (2, 4), (3, 5), (8, 3)])
def test_polar_of_a_stack_is_the_per_matrix_polar_bit_for_bit(d, k):
    rng = np.random.default_rng(10 * d + k)
    stack = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    stack[1] = np.outer(stack[1, 0], stack[1, :, 0])  # rank one
    got = polar_unitary(stack)
    assert got.shape == stack.shape
    for m, u in zip(stack, got):
        assert np.array_equal(_bits(u), _bits(polar_unitary(m)))
    one = stack[0]
    res = svd(one)
    assert np.array_equal(_bits(polar_unitary(one)), _bits(res.right @ res.left.conj().T))


def test_polar_rejects_non_square():
    with pytest.raises(DimensionError):
        polar_unitary(np.ones((3, 2)))


def _spread(rng, *shape):
    """Complex entries over twelve decades, so that a sum taken in another
    order, or fused into an FMA, rounds differently."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


def _assert_real_matmul_bits(a, b):
    # linalg.product: at d = 2 the real-arithmetic product; at d >= 3 `@`, each matrix
    # of a stack with the bits of its own product, as the success Gram rows need
    if a.shape[-1] == 2:
        want = real_matmul_reference(a, b)
    else:
        want = np.stack([x @ y for x, y in zip(*np.broadcast_arrays(a, b))])
    got = product(a, b)
    assert got.shape == want.shape
    # product returns a strided view at d = 2, which has no uint64 view of its own
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))


def test_real_matmul_replays_the_broadcast_kraus_product_bit_for_bit():
    # kraus_stack's product E^T W_r^dag: (n, 1, 2, 2) x (n, 4, 2, 2), once
    # with the zz-scan factories and once with spread-out entries
    t, phi = np.linspace(0.0, 1.3, 300), np.linspace(0.0, math.pi / 4, 300)
    coeffs, elements = schmidt_stack(phi, "y"), zx_zz_stack(t)
    _assert_real_matmul_bits(coeffs.swapaxes(-1, -2)[..., None, :, :],
                             elements.conj().swapaxes(-1, -2))
    rng = np.random.default_rng(41)
    _assert_real_matmul_bits(_spread(rng, 300, 1, 2, 2), _spread(rng, 300, 4, 2, 2))


def test_real_matmul_replays_conjugate_transposed_views_bit_for_bit():
    # the completeness product M_r^dag M_r and the residual product R_r M_r
    kraus = _spread(np.random.default_rng(42), 256, 4, 2, 2)
    _assert_real_matmul_bits(kraus.conj().swapaxes(-1, -2), kraus)
    _assert_real_matmul_bits(kraus[..., ::-1, :], kraus.swapaxes(-1, -2))


@pytest.mark.parametrize("d", range(2, 9))
def test_real_matmul_replays_the_success_gram_stacks_bit_for_bit(d):
    # montecarlo._success_gram: A_r = R_r M_r, then A_r^dag A_r, (k, d, d)
    rng = np.random.default_rng(43 + d)
    for k in (1, d, d * d):
        r, m = _spread(rng, k, d, d), _spread(rng, k, d, d)
        _assert_real_matmul_bits(r, m)
        a = product(r, m)
        _assert_real_matmul_bits(a.conj().swapaxes(-1, -2), a)


def test_real_matmul_replays_a_batch_of_one_bit_for_bit():
    rng = np.random.default_rng(44)
    for a_shape, b_shape in [((2, 2), (2, 2)), ((1, 2, 2), (1, 2, 2)),
                             ((1, 1, 2, 2), (1, 4, 2, 2)), ((3, 3), (5, 3, 3))]:
        _assert_real_matmul_bits(_spread(rng, *a_shape), _spread(rng, *b_shape))


def _folded_product_gram(a):
    """sum_r a_r^dag a_r as the product of every outcome, folded over the outcomes."""
    return fold(np.add, product(a.conj().swapaxes(-1, -2), a), -3)


# At d = 2 gram writes the four entries of sum_r a_r^dag a_r from real arithmetic,
# the entry below the diagonal from its own sum: these are the bits of the matrix
# product folded over the outcomes, the signed zeros of real operators included.
@pytest.mark.parametrize("shape", [(300, 4), (4,), (3, 40, 4), (200, 1), (200, 3)],
                         ids=["n-4", "one-instrument", "nested", "1-outcome", "3-outcomes"])
def test_gram_has_the_bits_of_the_folded_product_at_d2(shape):
    rng = np.random.default_rng(sum(shape))
    a = _spread(rng, *shape, 2, 2)
    a[..., :1, :, :] *= rng.integers(0, 2, shape[:-1] + (1, 1, 1))  # zero outcomes
    real = np.where(rng.random(shape + (2, 2)) < 0.3, 0.0, _spread(rng, *shape, 2, 2).real) + 0j
    for stack in (a, real, -real, np.zeros(shape + (2, 2), complex)):
        got, want = gram(stack), _folded_product_gram(stack)
        assert got.shape == want.shape == shape[:-1] + (2, 2)
        assert np.array_equal(_bits(got), _bits(want))
        assert not np.signbit(np.einsum("...ii->...i", got.imag)).any()
    # on real operators the entry above, negated, has other bits than the one below:
    # its +0 imaginary parts would turn into -0
    got = gram(real)
    assert not np.array_equal(_bits(-got.imag[..., 0, 1]), _bits(got.imag[..., 1, 0]))


def test_gram_of_no_outcome_is_zero_and_of_d3_is_the_summed_product():
    assert np.array_equal(gram(np.zeros((5, 0, 2, 2), complex)), np.zeros((5, 2, 2)))
    a = _spread(np.random.default_rng(45), 6, 9, 3, 3)
    assert np.array_equal(_bits(gram(a)), _bits(_folded_product_gram(a)))
