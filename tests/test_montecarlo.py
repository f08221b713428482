import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerev import montecarlo
from telerev import (BipartiteState, McEstimate, RngSpec, build_instrument, ejm,
                     estimate_success, leakage_max, max_entangled, optimal_reversal,
                     schmidt_channel, standard_fidelity, xx_deformed,
                     bell_basis)
from telerev.errors import DimensionError, DomainError
from telerev.instrument import Instrument, ReversalPlan, kraus_stack, spectrum
from telerev.jointmeas import JointMeasurement, zx_zz_stack
from telerev.linalg import gram, polar_unitary, svd
from telerev.montecarlo import (CHUNK, MC_BUDGET_BYTES, _success, estimate_leakage,
                                estimate_performance, estimate_standard_fidelity)
from telerev.qstate import schmidt_stack
from telerev.theorems import random_basis

from helpers import random_coeff
from oracles import _haar_batch, design_states, haar_state, reversed_reference

# Statistical gates use five standard errors plus a tiny absolute floor for
# estimators whose per-sample values are constant up to rounding.
FLOOR = 1e-12


def _tol(est):
    return 5.0 * est.std_error + FLOOR


def test_haar_state_is_normalized_and_reproducible():
    gen = RngSpec(seed=42, stream=0).generator()
    v = haar_state(2, gen)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    replay = haar_state(2, RngSpec(seed=42, stream=0).generator())
    assert np.array_equal(v, replay)
    other_stream = haar_state(2, RngSpec(seed=42, stream=1).generator())
    assert not np.array_equal(v, other_stream)


@pytest.mark.parametrize("d", [2, 3])
def test_haar_moments(d):
    gen = RngSpec(seed=7, stream=d).generator()
    n = 100_000
    samples = np.array([haar_state(d, gen) for _ in range(1000)])
    # vectorized batch for the big sample; sequential draws above check the API
    batch = _haar_batch(d, n, RngSpec(seed=8, stream=d).generator())
    probs = np.abs(batch) ** 2
    for i in range(d):
        se = np.std(probs[:, i], ddof=1) / math.sqrt(n)
        assert abs(np.mean(probs[:, i]) - 1.0 / d) < 5 * se
    assert np.max(np.abs(np.linalg.norm(samples, axis=1) - 1.0)) < 1e-12


def test_haar_rotation_invariance():
    rng = np.random.default_rng(123)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    batch = _haar_batch(2, 100_000, RngSpec(seed=9).generator())
    rotated = np.abs(batch @ q.T.conj()[:, 0]) ** 2
    se = np.std(rotated, ddof=1) / math.sqrt(rotated.size)
    assert abs(np.mean(rotated) - 0.5) < 5 * se


def test_batch_matches_sequential_draws():
    gen = RngSpec(seed=55).generator()
    batch = _haar_batch(3, 4, gen)
    gen2 = RngSpec(seed=55).generator()
    seq = np.stack([haar_state(3, gen2) for _ in range(4)])
    assert np.array_equal(batch, seq)


def _elegant(t=0.0):
    inst = build_instrument(max_entangled(2), ejm(t))
    return inst, optimal_reversal(inst)


def test_estimate_performance_elegant():
    inst, plan = _elegant(0.0)
    est = estimate_performance(inst, plan, 20_000, RngSpec(seed=101))
    assert abs(est["p_succ"].mean - (1.0 - math.sqrt(3) / 2)) < _tol(est["p_succ"])
    assert abs(est["f_cond"].mean - 1.0) < 1e-9


def test_estimate_performance_ideal_is_exact():
    inst = build_instrument(max_entangled(2), bell_basis())
    plan = optimal_reversal(inst)
    est = estimate_performance(inst, plan, 5_000, RngSpec(seed=102))
    assert abs(est["p_succ"].mean - 1.0) < 1e-12
    assert abs(est["f_cond"].mean - 1.0) < 1e-12


def test_estimate_performance_partial_channel():
    inst = build_instrument(schmidt_channel(math.pi / 8, "z"), xx_deformed(math.pi / 8))
    plan = optimal_reversal(inst)
    est = estimate_performance(inst, plan, 20_000, RngSpec(seed=103))
    assert abs(est["p_succ"].mean - (1.0 - math.sqrt(2) / 2)) < _tol(est["p_succ"])


def test_per_outcome_success_is_input_independent():
    inst = build_instrument(schmidt_channel(0.25, "z"), xx_deformed(0.3))
    plan = optimal_reversal(inst)
    phi = _haar_batch(2, 2000, RngSpec(seed=104).generator())
    for m, rev, succ, deg in zip(inst.kraus, plan.reversers,
                                 plan.outcome_success, plan.degenerate):
        if deg:
            continue
        vals = np.sum(np.abs(phi @ (rev @ m).T) ** 2, axis=1)
        se = np.std(vals, ddof=1) / math.sqrt(vals.size)
        assert abs(np.mean(vals) - succ) < 5 * se + FLOOR
        assert np.ptp(vals) < 1e-10


def test_estimate_leakage_targets():
    inst, _ = _elegant(0.0)
    est = estimate_leakage(inst, 20_000, RngSpec(seed=105))
    assert abs(est.mean - (0.5 + math.sqrt(3) / 12)) < _tol(est)
    inst, _ = _elegant(math.pi / 2)
    est = estimate_leakage(inst, 20_000, RngSpec(seed=106))
    assert abs(est.mean - 0.5) < _tol(est)
    ideal = build_instrument(max_entangled(2), bell_basis())
    est = estimate_leakage(ideal, 20_000, RngSpec(seed=107))
    assert abs(est.mean - 0.5) < _tol(est)


def test_estimate_leakage_agrees_with_closed_form_generic_pair():
    inst = build_instrument(schmidt_channel(0.3, "z"), xx_deformed(0.25))
    est = estimate_leakage(inst, 50_000, RngSpec(seed=108))
    assert est.std_error > 0.0
    assert abs(est.mean - leakage_max(inst)) < _tol(est)


def test_estimate_standard_fidelity_targets():
    inst = build_instrument(max_entangled(2), xx_deformed(math.pi / 4))
    est = estimate_standard_fidelity(inst, 20_000, RngSpec(seed=109))
    assert abs(est.mean - 2.0 / 3.0) < _tol(est)
    inst, _ = _elegant(0.0)
    est = estimate_standard_fidelity(inst, 20_000, RngSpec(seed=110))
    assert abs(est.mean - 5.0 / 6.0) < _tol(est)
    ideal = build_instrument(max_entangled(2), bell_basis())
    est = estimate_standard_fidelity(ideal, 5_000, RngSpec(seed=111))
    assert abs(est.mean - 1.0) < 1e-12


def test_estimate_standard_fidelity_generic_pair():
    inst = build_instrument(schmidt_channel(0.35, "z"), xx_deformed(0.2))
    est = estimate_standard_fidelity(inst, 50_000, RngSpec(seed=112))
    assert est.std_error > 0.0
    assert abs(est.mean - standard_fidelity(inst)) < _tol(est)


def test_replay_is_bit_for_bit():
    inst, plan = _elegant(0.3)
    spec = RngSpec(seed=321, stream=7)
    first = estimate_performance(inst, plan, 5_000, spec)
    second = estimate_performance(inst, plan, 5_000, spec)
    assert first == second
    assert estimate_leakage(inst, 5_000, spec) == estimate_leakage(inst, 5_000, spec)
    f1 = estimate_standard_fidelity(inst, 5_000, spec)
    f2 = estimate_standard_fidelity(inst, 5_000, spec)
    assert (f1.mean, f1.std_error, f1.n) == (f2.mean, f2.std_error, f2.n)


@pytest.mark.parametrize("seed, stream", [(2 ** 64 + 1, 0), (-1, 0), (2 ** 64, 0),
                                          (1, 2 ** 64), (1, -1)])
def test_keys_outside_64_bits_are_rejected(seed, stream):
    # masking them would replay another key's stream (2^64 + 1 -> 1, -1 -> 2^64 - 1)
    with pytest.raises(DomainError, match=r"outside \[0, 2\^64\)"):
        RngSpec(seed, stream)


@pytest.mark.parametrize("seed, stream", [(1.5, 0), (1.0, 0), (1, 2.5), (1, "2"),
                                          (np.float64(3.0), 0)])
def test_non_integer_keys_are_rejected(seed, stream):
    # RngSpec(1.5) would otherwise draw RngSpec(1)'s Philox stream
    with pytest.raises(DomainError, match="is not an integer"):
        RngSpec(seed, stream)


def test_numpy_integer_keys_draw_the_python_integer_stream():
    got = RngSpec(np.int64(3), np.uint64(4)).generator().standard_normal(4)
    assert np.array_equal(got, RngSpec(3, 4).generator().standard_normal(4))


def test_extreme_keys_draw_distinct_streams():
    top = RngSpec(2 ** 64 - 1, 2 ** 64 - 1).generator().standard_normal(4)
    zero = RngSpec(0, 0).generator().standard_normal(4)
    assert not np.array_equal(top, zero)


def test_std_error_shrinks_like_sqrt_n():
    inst = build_instrument(max_entangled(2), xx_deformed(0.35))
    se_small = estimate_leakage(inst, 40_000, RngSpec(seed=500, stream=1)).std_error
    se_big = estimate_leakage(inst, 80_000, RngSpec(seed=500, stream=2)).std_error
    ratio = se_small / se_big
    assert math.sqrt(2) * 0.8 < ratio < math.sqrt(2) * 1.2


def test_estimates_carry_sample_count():
    inst, plan = _elegant(0.5)
    est = estimate_performance(inst, plan, 123, RngSpec(seed=1))
    assert est["p_succ"].n == 123
    assert est["f_cond"].n == 123


# Frozen copy of the unchunked estimators (one n-row draw, numpy reductions
# over the d columns), kept as the reference for the chunked kernel.  Success
# is the Gram form v^dag G v / |v|^2 of the raw normals v, with
# G = sum_r (R_r M_r)^dag (R_r M_r) written out here in Python complex scalars
# at d = 2 and through `@` at d >= 3 (as oracles._product_reference), and every
# sum taken in index order.  The overlaps read the same R_r M_r.
def _ref_states(z):
    v = z[..., 0] + 1j * z[..., 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _ref_haar_batch(d, n, rng):
    return _ref_states(rng.standard_normal((n, d, 2)))


def _ref_estimate(samples):
    n = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return (float(np.mean(samples)), se)


def _ref_product(a, b):
    """a @ b of nested lists of Python complex numbers, summed k = 0, 1, ..."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = a[i][0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _ref_reversed(rev, m):
    """R_r M_r: :func:`_ref_product` at d = 2, ``@`` at d >= 3."""
    if len(m) != 2:
        return rev @ m
    return np.array(_ref_product([[complex(v) for v in row] for row in rev],
                                 [[complex(v) for v in row] for row in m]))


def _ref_gram(inst, plan):
    g = None
    for m, rev, deg in zip(inst.kraus, plan.reversers, plan.degenerate):
        if deg:
            continue
        a = _ref_reversed(rev, m)
        if inst.d == 2:
            term = np.array(_ref_product(a.conj().T.tolist(), a.tolist()))
        else:
            term = a.conj().T @ a
        g = term if g is None else g + term
    return np.zeros((inst.d, inst.d), complex) if g is None else g


def _ref_success(g, z):
    """v^dag G v / |v|^2 per row of the raw normals z (n, d, 2), v = x + iy: the
    diagonal terms, then twice the real and the imaginary part of each i < j term, added
    one by one, over the sum of the squares |v_i|^2."""
    d = g.shape[0]
    x, y = z[..., 0], z[..., 1]
    square = [x[:, i] * x[:, i] + y[:, i] * y[:, i] for i in range(d)]
    norm, num = square[0], g[0, 0].real * square[0]
    for i in range(1, d):
        norm = norm + square[i]
        num = num + g[i, i].real * square[i]
    for i in range(d):
        for j in range(i + 1, d):
            num = num + (2.0 * g[i, j].real) * (x[:, i] * x[:, j] + y[:, i] * y[:, j])
            num = num - (2.0 * g[i, j].imag) * (x[:, i] * y[:, j] - y[:, i] * x[:, j])
    return num / norm


def _ref_performance(inst, plan, n, rng):
    z = rng.generator().standard_normal((n, inst.d, 2))
    succ, phi = _ref_success(_ref_gram(inst, plan), z), _ref_states(z)
    overlap = np.zeros(n)
    for m, rev, deg in zip(inst.kraus, plan.reversers, plan.degenerate):
        if deg:
            continue
        out = phi @ _ref_reversed(rev, m).T
        overlap += np.abs(np.sum(phi.conj() * out, axis=1)) ** 2
    f_cond = np.where(succ > 0.0, overlap / np.where(succ > 0.0, succ, 1.0), 1.0)
    return [_ref_estimate(succ), _ref_estimate(f_cond)]


def _ref_leakage(inst, n, rng):
    phi = _ref_haar_batch(inst.d, n, rng.generator())
    acc = np.zeros(n)
    for m in inst.kraus:
        guess = svd(m).right[:, 0]
        prob = np.sum(np.abs(phi @ m.T) ** 2, axis=1)
        acc += prob * np.abs(phi @ guess.conj()) ** 2
    return [_ref_estimate(acc)]


def _ref_standard_fidelity(inst, n, rng):
    phi = _ref_haar_batch(inst.d, n, rng.generator())
    acc = np.zeros(n)
    for m in inst.kraus:
        corrected = polar_unitary(m) @ m
        acc += np.abs(np.sum(phi.conj() * (phi @ corrected.T), axis=1)) ** 2
    return [_ref_estimate(acc)]


def _pairs(inst, n, rng):
    """(chunked, reference) (mean, std_error) lists of all three estimators."""
    plan = optimal_reversal(inst)
    new = [*estimate_performance(inst, plan, n, rng).values(),
           estimate_leakage(inst, n, rng), estimate_standard_fidelity(inst, n, rng)]
    ref = (_ref_performance(inst, plan, n, rng) + _ref_leakage(inst, n, rng)
           + _ref_standard_fidelity(inst, n, rng))
    assert all(e.n == n for e in new)
    return [(e.mean, e.std_error) for e in new], ref


def _qudit(d, seed):
    return build_instrument(max_entangled(d), random_basis(d, np.random.default_rng(seed)))


_QUBITS = [_elegant(0.3)[0],
           build_instrument(schmidt_channel(0.3, "z"), xx_deformed(0.25))]
_SIZES = [1, 2, 2000, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 100_000]


@pytest.mark.parametrize("n", _SIZES)
def test_chunked_estimators_are_bit_identical_for_qubits_and_qutrits(n):
    for inst in _QUBITS + [_qudit(3, 31)]:
        for seed in (5, 6):
            new, ref = _pairs(inst, n, RngSpec(seed, stream=n))
            assert new == ref


@pytest.mark.parametrize("d", [4, 8])
def test_chunked_estimators_match_reference_for_larger_d(d):
    for n in (2000, CHUNK + 1):
        new, ref = _pairs(_qudit(d, 40 + d), n, RngSpec(7, stream=d))
        assert np.max(np.abs(np.subtract(new, ref))) <= 1e-15


@pytest.mark.parametrize("d, n", [(2, 1), (2, CHUNK + 1), (3, 2 * CHUNK + 1), (8, 3 * CHUNK - 1)])
def test_chunked_draws_replay_the_one_shot_draw(d, n):
    from telerev.montecarlo import _sample, _states
    one_shot = _haar_batch(d, n, RngSpec(seed=61).generator())
    chunks = []

    def kernel(z):
        phi, m = _states(z), z.shape[0]
        chunks.append(phi.copy())
        return np.full((2, m), m)
    out = _sample(d, n, RngSpec(seed=61), kernel, 2)
    sizes = [phi.shape[0] for phi in chunks]
    assert len(chunks) == max(n // CHUNK, 1) and (n == 1 or min(sizes) > 1)
    assert np.array_equal(out, np.repeat(sizes, sizes)[None].repeat(2, axis=0))
    assert np.array_equal(np.concatenate(chunks), one_shot)
    ref = _ref_haar_batch(d, n, RngSpec(seed=61).generator())
    if d <= 3:
        assert np.array_equal(one_shot, ref)
    assert np.max(np.abs(one_shot - ref)) <= 1e-15


# Every chunk of a call is drawn into one buffer, sized by the largest chunk (the
# first can be one sample shorter), and a kernel's arrays are copied out before the
# next chunk is drawn, so a kernel may return a view of phi.  At 2 CHUNK + 1 and
# 3 CHUNK - 1 the chunks differ in size.
@pytest.mark.parametrize("d, n", [(2, CHUNK + 1), (3, 2 * CHUNK + 1), (8, 3 * CHUNK - 1)])
def test_a_kernel_may_return_a_view_of_the_shared_draw_buffer(d, n):
    from telerev.montecarlo import _estimate, _sample, _states
    out = _sample(d, n, RngSpec(seed=62), lambda z: (_states(z).real[:, 0],))
    one_shot = _haar_batch(d, n, RngSpec(seed=62).generator()).real[:, 0]
    assert np.array_equal(out[0].view(np.uint64), one_shot.view(np.uint64))
    got = _estimate(out[0])
    ref = _ref_estimate(_ref_haar_batch(d, n, RngSpec(seed=62).generator()).real[:, 0])
    if d <= 3:
        assert (got.mean, got.std_error) == ref
    assert np.max(np.abs(np.subtract((got.mean, got.std_error), ref))) <= 1e-15


# _estimate squares the deviations in place on the row it is given, in the
# operations and order of numpy's np.mean and np.std(ddof=1), so it keeps their bits
# (one all-equal row has zero variance) and consumes the row.
@pytest.mark.parametrize("n", [1, 2, 2000, CHUNK + 1, 100_000])
@pytest.mark.parametrize("kind", ["uniform", "spread", "all-equal"])
def test_estimate_in_place_is_np_mean_and_std_bit_for_bit(n, kind):
    from telerev.montecarlo import _estimate
    rng = np.random.default_rng(n)
    samples = {"uniform": rng.random(n), "spread": 0.7 + 1e-17 * rng.standard_normal(n),
               "all-equal": np.full(n, 0.25)}[kind]
    want = _ref_estimate(samples)
    got = _estimate(samples.copy())
    assert np.array_equal(np.array([got.mean, got.std_error]).view(np.uint64),
                          np.array(want).view(np.uint64))
    assert got.n == n
    if kind == "all-equal":
        assert got.std_error == 0.0


@pytest.mark.parametrize("n", [0, -5])
def test_sample_counts_below_one_are_refused(n):
    inst, plan = _elegant(0.0)
    for call in (lambda: estimate_performance(inst, plan, n, RngSpec(1)),
                 lambda: estimate_leakage(inst, n, RngSpec(1)),
                 lambda: estimate_standard_fidelity(inst, n, RngSpec(1))):
        with pytest.raises(DomainError, match=f"sample count must be >= 1, got {n}"):
            call()


def test_oversized_sample_count_is_refused_before_allocating():
    inst, plan = _elegant(0.0)
    n = MC_BUDGET_BYTES // 24 + 1
    for call in (lambda: estimate_performance(inst, plan, n, RngSpec(1)),
                 lambda: estimate_leakage(inst, n, RngSpec(1)),
                 lambda: estimate_standard_fidelity(inst, n, RngSpec(1))):
        with pytest.raises(DomainError, match=f"over the {MC_BUDGET_BYTES} B budget"):
            call()


def _zz_row(phi, t):
    """A zz-scan grid row as an instrument and its plan, from the block engine."""
    kraus, _ = kraus_stack(schmidt_stack(np.array([phi]), "y"), zx_zz_stack(np.array([t])))
    return Instrument(2, tuple(kraus[0]), f"zz[{phi}, {t}]"), spectrum(kraus).plan(0)


def _half_degenerate():
    """A maximally entangled channel measured in |00>, |11> and two Bell states:
    the two product outcomes are degenerate, the Bell outcomes recoverable."""
    b = math.sqrt(0.5)
    elements = (np.diag([1.0 + 0j, 0.0]), np.diag([0.0 + 0j, 1.0]),
                np.array([[0, b], [b, 0]], dtype=complex),
                np.array([[0, b], [-b, 0]], dtype=complex))
    inst = build_instrument(max_entangled(2), JointMeasurement(2, elements, "product+bell"))
    return inst, optimal_reversal(inst)


@pytest.mark.parametrize("n", [1, 2, 2000, CHUNK + 1])
def test_estimators_of_degenerate_instruments_are_bit_identical(n):
    # the stacked SVD and products see zero and rank-deficient operators here
    for k, inst in enumerate((_half_degenerate()[0], _zz_row(0.0, 0.52)[0])):
        new, ref = _pairs(inst, n, RngSpec(80 + k, stream=n))
        assert new == ref, inst.provenance


def _success_cases():
    cases = [(inst, optimal_reversal(inst)) for inst in _QUBITS]
    cases += [(q, optimal_reversal(q)) for q in (_qudit(3, 31), _qudit(4, 44), _qudit(8, 48))]
    cases += [_zz_row(0.0, 0.52), _zz_row(math.pi / 4, 0.52), _half_degenerate()]
    return cases


def test_success_cases_cover_every_dimension_and_degenerate_outcomes():
    cases = _success_cases()
    assert {inst.d for inst, _ in cases} == {2, 3, 4, 8}
    flags = [plan.degenerate for _, plan in cases]
    assert all(flags[-3]) and not any(flags[-2]) and list(flags[-1]) == [True, True, False, False]


@pytest.mark.parametrize("n", _SIZES)
def test_estimate_success_is_estimate_performance_p_succ_bit_for_bit(n):
    for k, (inst, plan) in enumerate(_success_cases()):
        spec = RngSpec(seed=70 + k, stream=n)
        got = estimate_success(inst, plan, n, spec)
        assert got == estimate_performance(inst, plan, n, spec)["p_succ"], inst.provenance
        assert got.n == n


def _direct_success(inst, plan, phi):
    """sum_r |R_r M_r phi|^2 per sample, the zgemm kernel the Gram form replaced."""
    succ = np.zeros(phi.shape[0])
    for m, rev, deg in zip(inst.kraus, plan.reversers, plan.degenerate):
        if not deg:
            succ += np.sum(np.abs(phi @ (rev @ m).T) ** 2, axis=1)
    return succ


def test_gram_success_matches_the_direct_sum_per_sample():
    for k, (inst, plan) in enumerate(_success_cases()):
        phi = _haar_batch(inst.d, 2000, RngSpec(seed=90 + k).generator())
        g = gram(plan.reversed(np.asarray(inst.kraus)))
        succ = _success(g, phi[..., None].view(np.float64))
        assert np.max(np.abs(succ - _direct_success(inst, plan, phi))) <= 1e-15, inst.provenance


# The success reads the raw normals v and divides v^dag G v by |v|^2, so the scale of v
# cancels; without the division, c v would scale every sample by c^2.
@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_success_does_not_depend_on_the_scale_of_the_normals(c):
    for k, (inst, plan) in enumerate(_success_cases()):
        g = gram(plan.reversed(np.asarray(inst.kraus)))
        z = RngSpec(seed=95 + k).generator().standard_normal((2000, inst.d, 2))
        assert np.max(np.abs(_success(g, c * z) - _success(g, z))) <= 1e-15, inst.provenance


def test_estimate_success_of_an_unrecoverable_instrument_is_zero():
    inst, plan = _zz_row(0.0, 0.52)
    assert estimate_success(inst, plan, 2000, RngSpec(3)) == McEstimate(0.0, 0.0, 2000)


@pytest.mark.parametrize("n", [0, -5])
def test_estimate_success_refuses_sample_counts_below_one(n):
    inst, plan = _elegant(0.0)
    with pytest.raises(DomainError, match=f"sample count must be >= 1, got {n}"):
        estimate_success(inst, plan, n, RngSpec(1))


def test_estimate_success_refuses_an_oversized_count_at_the_shared_budget():
    inst, plan = _elegant(0.0)
    n = MC_BUDGET_BYTES // 24 + 1
    with pytest.raises(DomainError, match=f"over the {MC_BUDGET_BYTES} B budget"):
        estimate_success(inst, plan, n, RngSpec(1))


def test_fractional_sample_counts_are_refused():
    inst, plan = _elegant(0.0)
    for call in (lambda: estimate_success(inst, plan, 2.5, RngSpec(1)),
                 lambda: estimate_performance(inst, plan, 2.5, RngSpec(1)),
                 lambda: estimate_leakage(inst, 2.5, RngSpec(1)),
                 lambda: estimate_standard_fidelity(inst, 2.5, RngSpec(1))):
        with pytest.raises(DomainError, match=r"^sample count 2\.5 is not an integer$"):
            call()


@pytest.mark.parametrize("n", [2000, CHUNK + 1])
def test_degenerate_outcomes_add_zero_whatever_their_reversers_hold(n):
    # a degenerate outcome's term is zeroed in the Gram sum and in the overlap
    # kernel, so NaN reversers there give the estimates of the real plan
    for k, (inst, plan) in enumerate((_half_degenerate(), _zz_row(0.0, 0.52))):
        junk = plan.reversers.copy()
        junk[plan.degenerate] = np.nan
        nan_plan, spec = ReversalPlan(plan.sigmas, junk, plan.degenerate), RngSpec(97 + k, n)
        assert plan.degenerate.any() and np.isnan(nan_plan.reversers).any()
        assert estimate_success(inst, nan_plan, n, spec) == estimate_success(inst, plan, n, spec)
        assert (estimate_performance(inst, nan_plan, n, spec)
                == estimate_performance(inst, plan, n, spec)), inst.provenance


def _random_stack(d, rows, seed):
    """A (rows, d^2, d, d) stack of random operators, a third of them with a zero row,
    so degenerate and recoverable outcomes share rows."""
    gen = np.random.default_rng(seed)
    kraus = gen.standard_normal((rows, d * d, d, d)) + 1j * gen.standard_normal((rows, d * d, d, d))
    kraus[gen.random((rows, d * d)) < 1 / 3, 0] = 0.0
    return kraus


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_success_gram_is_the_per_instrument_gram_row_for_row(d):
    # a block's Gram stack adds each row's outcomes in order, so it holds that row's own bits
    kraus = _random_stack(d, 6, 40 + d)
    plan = spectrum(kraus)
    assert plan.degenerate.any() and not plan.degenerate.all()
    stacked = np.ascontiguousarray(gram(plan.reversed(kraus)))
    assert _same_bits(stacked, np.stack([gram(plan.plan(i).reversed(kraus[i])) for i in range(6)]))
    # the outcomes are axis -3 under any leading shape
    grid = kraus.reshape(2, 3, d * d, d, d)
    assert _same_bits(np.ascontiguousarray(gram(spectrum(grid).reversed(grid))),
                      stacked.reshape(2, 3, d, d))


def test_stacked_success_gram_keeps_the_half_degenerate_instrument_bits():
    insts = [_half_degenerate()[0], _zz_row(0.0, 0.52)[0], _elegant(0.3)[0]]
    kraus = np.stack([np.asarray(inst.kraus) for inst in insts])
    stacked = np.ascontiguousarray(gram(spectrum(kraus).reversed(kraus)))
    for i, inst in enumerate(insts):
        own = np.ascontiguousarray(gram(optimal_reversal(inst).reversed(np.asarray(inst.kraus))))
        assert _same_bits(stacked[i], own), inst.provenance


def test_a_plan_of_another_shape_is_refused_by_name():
    inst, plan = _elegant(0.0)[0], optimal_reversal(_qudit(3, 31))
    message = re.escape("plan shape (9, 3, 3) != Kraus shape (4, 2, 2)")
    for call in (lambda: estimate_success(inst, plan, 10, RngSpec(1)),
                 lambda: estimate_performance(inst, plan, 10, RngSpec(1))):
        with pytest.raises(DimensionError, match=message):
            call()


@pytest.mark.parametrize("value", [True, False, np.True_])
def test_a_boolean_seed_or_stream_is_refused(value):
    # operator.index reads True as 1, so RngSpec(True) would replay seed 1
    with pytest.raises(DomainError, match=rf"^seed {re.escape(repr(value))} is not an integer$"):
        RngSpec(value)
    with pytest.raises(DomainError, match=rf"^stream {re.escape(repr(value))} is not an integer$"):
        RngSpec(1, value)


# ReversalPlan.reversed forms A_r = R_r M_r for the success Gram and the overlap kernel.
@pytest.mark.parametrize("d", [2, 3, 4])
def test_reversed_zeroes_degenerate_outcomes_whatever_their_reversers_hold(d):
    kraus = _random_stack(d, 6, 60 + d)
    plan = spectrum(kraus)
    junk = plan.reversers.copy()
    junk[plan.degenerate] = np.nan
    a = ReversalPlan(plan.sigmas, junk, plan.degenerate).reversed(kraus)
    assert plan.degenerate.any() and np.isnan(junk).any()
    assert np.all(a[plan.degenerate] == 0.0) and not np.isnan(a).any()
    assert _same_bits(a, plan.reversed(kraus))


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_reversed_is_c_contiguous_with_the_bits_of_the_matrix_product(d):
    # the bits of montecarlo._reversed before it moved into the plan
    kraus = _random_stack(d, 5, 70 + d)
    for k, p in ((kraus, spectrum(kraus)), (kraus[2], spectrum(kraus).plan(2))):
        a = p.reversed(k)
        assert a.flags.c_contiguous
        assert _same_bits(a, reversed_reference(p, k))


def test_reversed_and_residual_refuse_a_plan_of_another_shape_by_name():
    # before the residual checked its plan, numpy refused the first with a bare
    # ValueError and broadcast the second silently
    kraus = np.asarray(_elegant(0.0)[0].kraus)
    for plan, shape in ((optimal_reversal(_qudit(3, 31)), "(9, 3, 3)"),
                        (spectrum(kraus[None]), "(1, 4, 2, 2)")):
        message = re.escape(f"plan shape {shape} != Kraus shape (4, 2, 2)")
        for call in (plan.reversed, plan.residual):
            with pytest.raises(DimensionError, match=message):
                call(kraus)


def _partly_product_basis(d, rng):
    """A random orthonormal basis that mixes a random subset of the product basis
    e_a e_b^T and keeps the others: those outcomes are rank one, so degenerate."""
    n = d * d
    keep = rng.permutation(n)[:rng.integers(2, n + 1)]
    z = rng.standard_normal((keep.size,) * 2) + 1j * rng.standard_normal((keep.size,) * 2)
    q, r = np.linalg.qr(z)
    u = np.eye(n, dtype=complex)
    u[np.ix_(keep, keep)] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return JointMeasurement(d, tuple(u.T.copy().reshape(n, d, d)), "partly product")


def _design_instrument(d, seed, kind):
    """A random instrument at d: a random channel, or one with a zero column (rank
    deficient), measured in a random basis or a partly product one."""
    rng = np.random.default_rng(seed)
    coeff = random_coeff(d, rng)
    if kind == "rank-deficient channel":
        coeff[:, 0] = 0.0
        coeff /= np.linalg.norm(coeff)
    jm = _partly_product_basis(d, rng) if kind == "partly product basis" else random_basis(d, rng)
    return build_instrument(BipartiteState(d=d, coeff=coeff), jm)


def _design_average(estimate, inst, d):
    """``estimate``'s weighted sum over oracles.design_states, fed to its own kernel in
    place of a Haar draw."""
    z, w = design_states(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_sample", lambda d, n, rng, kernel, k=1: np.array(kernel(z.copy())))
        mp.setattr(montecarlo, "_estimate", lambda samples: w @ samples)
        return estimate(inst, len(w), RngSpec(0))


# Every kernel value is a polynomial of degree at most (2, 2) in the state and its
# conjugate, so its weighted sum over oracles.design_states is its Haar average exactly.
# Measured over 3,000 random instruments at d in [2, 8] (full-rank, rank-deficient
# channels and partly product bases): |sum_i w_i success_i - P_succ| <= 1.4e-16, and
# |f_cond - 1| <= 5.6e-16 kappa, kappa the largest sigma_max / sigma_min of a
# recoverable outcome (1.3e-15 unscaled; rounding in the weights' sum alone gives 2.2e-16).
DESIGN_SUCCESS_TOL = 6e-16
DESIGN_F_COND_TOL = 2.2e-15


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "rank-deficient channel", "partly product basis"]))
@example(d=2, seed=0, kind="partly product basis")
@example(d=8, seed=0, kind="rank-deficient channel")
def test_the_design_average_of_the_success_kernel_is_p_succ(d, seed, kind):
    inst = _design_instrument(d, seed, kind)
    plan, kraus = optimal_reversal(inst), inst.kraus
    z, w = design_states(d)
    p = w @ _success(gram(plan.reversed(kraus)), z.copy())
    assert abs(p - plan.p_succ) <= DESIGN_SUCCESS_TOL
    # estimate_performance's own kernels and f_cond ratio, the design in place of a draw
    est = _design_average(lambda inst, n, rng: estimate_performance(inst, plan, n, rng), inst, d)
    s, degenerate = plan.sigmas, plan.degenerate
    kappa = np.max(np.where(degenerate, 1.0, s[:, 0] / np.where(degenerate, 1.0, s[:, -1])))
    assert est["p_succ"] == p
    assert abs(est["f_cond"] - 1.0) <= DESIGN_F_COND_TOL * kappa


@pytest.mark.parametrize("d", range(2, 9))
def test_the_design_weights_have_the_haar_second_moment(d):
    # sum_i w_i psi_i psi_i^dag (x) psi_i psi_i^dag = (I + SWAP)/(d(d+1)), read in the
    # operator's (a c),(b e) layout; the first moment I/d and sum w = 1 follow
    z, w = design_states(d)
    psi = z[..., 0] + 1j * z[..., 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    moment = np.einsum("m,ma,mc,mb,me->acbe", w, psi, psi, psi.conj(), psi.conj())
    eye = np.eye(d * d).reshape(d, d, d, d)
    want = (eye + eye.transpose(1, 0, 2, 3)) / (d * (d + 1))
    assert len(w) == d + 2 * d * (d - 1)
    assert np.max(np.abs(moment - want)) <= 1e-16


# The overlap kernel of estimate_standard_fidelity (the polar-corrected operators) and
# the leakage kernel, fed the design, give the plan's F_standard and L_max.  Measured
# over 6,300 instruments (300 seeds x d in [2, 8] x the three kinds): at most 8.9e-16
# and 7.8e-16.  A dropped transpose in the overlap operators cannot fail this or any
# Haar-expectation test, as the Haar measure is invariant under complex conjugation;
# the local-unitary twist on the ROADMAP catches it.
DESIGN_F_STANDARD_TOL = 3.5e-15
DESIGN_LEAKAGE_TOL = 3e-15


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "rank-deficient channel", "partly product basis"]))
@example(d=2, seed=0, kind="partly product basis")
@example(d=8, seed=0, kind="rank-deficient channel")
def test_the_design_averages_of_the_overlap_and_leakage_kernels_are_the_plan_metrics(d, seed, kind):
    inst = _design_instrument(d, seed, kind)
    plan = optimal_reversal(inst)
    f = _design_average(estimate_standard_fidelity, inst, d)
    assert abs(f - plan.f_standard) <= DESIGN_F_STANDARD_TOL
    assert abs(_design_average(estimate_leakage, inst, d) - plan.leakage) <= DESIGN_LEAKAGE_TOL


@pytest.mark.parametrize("d", [2, 3, 8])
def test_the_design_average_catches_a_conjugated_polar_correction(d, monkeypatch):
    # the mutant U* M_r in place of U M_r: over the 6,300 instruments above it missed
    # F_standard by 0.0035 to 0.53
    inst = _design_instrument(d, d, "random")
    monkeypatch.setattr(montecarlo, "polar_unitary", lambda m: polar_unitary(m).conj())
    f = _design_average(estimate_standard_fidelity, inst, d)
    assert abs(f - optimal_reversal(inst).f_standard) > 1e3 * DESIGN_F_STANDARD_TOL
