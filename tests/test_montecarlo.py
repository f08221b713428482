import math

import numpy as np
import pytest

from telerev import (RngSpec, build_instrument, ejm, estimate_leakage,
                     estimate_performance, estimate_standard_fidelity,
                     haar_state, leakage_max, max_entangled, optimal_reversal,
                     schmidt_channel, standard_fidelity, xx_deformed,
                     bell_basis)
from telerev.errors import DomainError

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
    from telerev.montecarlo import _haar_batch
    batch = _haar_batch(d, n, RngSpec(seed=8, stream=d).generator())
    probs = np.abs(batch) ** 2
    for i in range(d):
        se = np.std(probs[:, i], ddof=1) / math.sqrt(n)
        assert abs(np.mean(probs[:, i]) - 1.0 / d) < 5 * se
    assert np.max(np.abs(np.linalg.norm(samples, axis=1) - 1.0)) < 1e-12


def test_haar_rotation_invariance():
    rng = np.random.default_rng(123)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    from telerev.montecarlo import _haar_batch
    batch = _haar_batch(2, 100_000, RngSpec(seed=9).generator())
    rotated = np.abs(batch @ q.T.conj()[:, 0]) ** 2
    se = np.std(rotated, ddof=1) / math.sqrt(rotated.size)
    assert abs(np.mean(rotated) - 0.5) < 5 * se


def test_batch_matches_sequential_draws():
    from telerev.montecarlo import _haar_batch
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
    from telerev.montecarlo import _haar_batch
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
