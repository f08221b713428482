"""The d = 2 forms of the two residual gates against their references in
``oracles``.

``instrument._completeness`` (max |sum_r M_r^dag M_r - I|, the sum from
``linalg.gram``) and ``ReversalPlan.residual`` (max |R_r M_r - sigma_min I|,
the product from ``linalg.product``) are gates that the manifest reports, not
output cells: ``kraus_stack`` refuses an instrument whose completeness residual
exceeds the ``unit`` entry of ``errors.TOLERANCES`` (the CLI exits 2), and a run
whose reversal residual exceeds its ``reversal_gate`` entry writes ``residual_ok``
false (exit 1).  At d = 2 both are elementwise real arithmetic, which must
agree with the matrix-product references within 1e-15 (relative above 1) on
the zz-scan surface, on random stacks over many decades of scale and on
degenerate outcomes, and must still fail every faulty input: perturbed
reversers, an incomplete stack and NaN entries.  The completeness gate must
keep the bits of its earlier closed form, and the closed-form reversers those
of their earlier adj(M)-copy form.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import telerev.scenarios as scenarios
from telerev.cli import main
from telerev.errors import TOLERANCES, DomainError
from telerev.instrument import (ReversalPlan, _completeness, completeness_residual, kraus_stack,
                                spectrum)
from telerev.jointmeas import xx_deformed_stack, zx_zz_stack
from telerev.qstate import schmidt_stack
from telerev.scenarios import SCENARIOS

from oracles import (completeness_reference, qubit_completeness_reference, residual_reference,
                     reversers_reference)

TOL = 1e-15
SURFACE = ["--scenario", "zz-scan", "--grid", "0:1.3:51", "--grid2", "0:0.7853981633974483:51"]


def _close(got, want):
    """``got`` within TOL of ``want`` (relative where |want| > 1), NaN exactly
    where ``want`` is NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    err = np.abs(np.where(np.isnan(want), 0.0, got - want))
    assert np.all(err <= TOL * np.maximum(1.0, np.abs(np.nan_to_num(want)))), np.max(err)


def _surface():
    """Primary parameter t, channel angle phi and Kraus stack of the 51 x 51
    zz-scan surface, t outer: phi = 0 is rank-deficient, (0, pi/4) is Bell."""
    t, phi = np.linspace(0.0, 1.3, 51), np.linspace(0.0, math.pi / 4, 51)
    t, phi = np.repeat(t, phi.size), np.tile(phi, t.size)
    kraus, completeness = kraus_stack(schmidt_stack(phi, "y"), zx_zz_stack(t))
    return t, phi, kraus, completeness


def _random_kraus(shape, rng, decades=6):
    """Complex 2 x 2 operators of the given leading shape, each scaled by
    10^u with u uniform in [-decades, decades]."""
    m = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
    return m * 10.0 ** rng.uniform(-decades, decades, shape + (1, 1))


def _perturbed(plan, rows, entry, delta):
    """``plan`` with reverser entry ``entry`` of the first recoverable outcome
    of each of ``rows`` moved by ``delta``."""
    reversers = plan.reversers.copy()
    for row in rows:
        r = int(np.flatnonzero(~plan.degenerate[row])[0])
        reversers[(row, r) + entry] += delta
    return ReversalPlan(plan.sigmas, reversers, plan.degenerate)


def test_closed_forms_match_the_references_on_the_zz_surface():
    t, phi, kraus, completeness = _surface()
    plan = spectrum(kraus)
    bell = (t == 0.0) & (phi == math.pi / 4)
    assert bell.sum() == 1 and not plan.degenerate[bell].any()
    assert plan.degenerate[phi == 0.0].all() and (phi == 0.0).sum() == 51
    _close(completeness, completeness_reference(kraus))
    _close(plan.residual(kraus), residual_reference(plan, kraus))
    assert np.max(completeness) <= TOLERANCES["unit"]
    assert np.max(plan.residual(kraus)) <= TOLERANCES["reversal_gate"]


@pytest.mark.parametrize("shape", [(4,), (500, 4), (3, 40, 4), (200, 1), (200, 3), (200, 5)],
                         ids=["one-instrument", "n-4", "nested", "1-outcome", "3-outcomes",
                              "5-outcomes"])
def test_closed_forms_match_the_references_on_random_stacks(shape):
    rng = np.random.default_rng(sum(shape))
    kraus = _random_kraus(shape, rng)
    _close(_completeness(kraus), completeness_reference(kraus))
    plan = spectrum(kraus)
    _close(plan.residual(kraus), residual_reference(plan, kraus))
    # reversers that are no inverses at all: every product term counts
    other = ReversalPlan(plan.sigmas, _random_kraus(shape, rng), plan.degenerate)
    _close(other.residual(kraus), residual_reference(other, kraus))


def test_an_empty_kraus_list_is_incomplete_not_a_crash():
    empty = np.zeros((0, 2, 2), complex)
    assert completeness_residual(empty, 2) == float(completeness_reference(empty)) == 1.0


@pytest.mark.parametrize("decades", [0, 3, 12])
def test_closed_forms_match_the_references_at_every_scale(decades):
    rng = np.random.default_rng(40 + decades)
    kraus = _random_kraus((300, 4), rng, decades)
    # complete stacks: M_r = U_r / 2 for unitaries U_r, rescaled per outcome
    complete = np.linalg.qr(kraus)[0] / 2
    _close(_completeness(complete), completeness_reference(complete))
    assert np.max(_completeness(complete)) <= TOLERANCES["unit"]
    for stack in (kraus, complete * 10.0 ** rng.uniform(-decades, decades, (300, 4, 1, 1))):
        plan = spectrum(stack)
        _close(_completeness(stack), completeness_reference(stack))
        _close(plan.residual(stack), residual_reference(plan, stack))


def _mixed_rank():
    """400 x 4 random outcomes, each full rank, rank one or zero, and the
    pick (0, 1 or 2) that made each one."""
    rng = np.random.default_rng(50)
    kraus = _random_kraus((400, 4), rng, 2)
    u, v = _random_kraus((400, 4), rng, 0)[..., 0], _random_kraus((400, 4), rng, 0)[..., 0]
    rank_one = u[..., :, None] * v[..., None, :].conj()
    pick = rng.integers(0, 3, (400, 4))  # 0: full rank, 1: rank one, 2: zero
    kraus = np.where((pick == 1)[..., None, None], rank_one, kraus)
    return np.where((pick == 2)[..., None, None], 0.0, kraus), pick


def _same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# The completeness gate reads linalg.gram, the one sum of M_r^dag M_r; at d = 2 it
# keeps the bits of its earlier closed form, summed over the outcomes in order.
def test_completeness_keeps_the_bits_of_its_earlier_closed_form():
    _, _, surface, completeness = _surface()
    nan = surface.copy()
    nan[11, 1, 0, 1] = np.nan
    rng = np.random.default_rng(61)
    complete = np.linalg.qr(_random_kraus((300, 4), rng, 0))[0] / 2
    stacks = [surface, nan, _mixed_rank()[0], np.zeros((5, 4, 2, 2), complex), complete,
              complete * 10.0 ** rng.uniform(-12, 12, (300, 4, 1, 1))]
    stacks += [_random_kraus((300, 4), rng, decades) for decades in (0, 6, 12)]
    stacks.append(_random_kraus((300, 16), rng))  # numpy would add 16 outcomes pairwise
    assert _same_bits(completeness, qubit_completeness_reference(surface))
    for kraus in stacks:
        assert _same_bits(_completeness(kraus), qubit_completeness_reference(kraus))


def test_degenerate_outcomes_are_left_out_alike():
    kraus, pick = _mixed_rank()
    plan = spectrum(kraus)
    assert np.array_equal(plan.degenerate, pick > 0)
    _close(plan.residual(kraus), residual_reference(plan, kraus))
    _close(_completeness(kraus), completeness_reference(kraus))
    assert np.all(plan.residual(kraus)[(pick > 0).all(axis=-1)] == 0.0)
    # a degenerate outcome's reverser is never read, whatever it holds
    junk = np.where(plan.degenerate[..., None, None], np.nan, plan.reversers)
    junk_plan = ReversalPlan(plan.sigmas, junk, plan.degenerate)
    assert np.array_equal(junk_plan.residual(kraus), plan.residual(kraus))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("delta", [1e-6, 1e-6j])
def test_perturbed_reversers_fail_the_gate(entry, delta):
    _, _, kraus, _ = _surface()
    plan = spectrum(kraus)
    rows = [100, 1300, 2600]
    bad = _perturbed(plan, rows, entry, delta)
    got = bad.residual(kraus)
    _close(got, residual_reference(bad, kraus))
    assert np.all(got[rows] > TOLERANCES["reversal_gate"])
    others = np.setdiff1d(np.arange(len(kraus)), rows)
    assert np.array_equal(got[others], plan.residual(kraus)[others])


def _xx_scan():
    """Kraus stack of a 21 x 21 xx-scan grid, whose reversers hold exact +0 and -0."""
    t = np.linspace(0.0, math.pi / 4, 21)
    t, phi = np.repeat(t, t.size), np.tile(t, t.size)
    return kraus_stack(schmidt_stack(phi, "z"), xx_deformed_stack(t))[0]


@pytest.mark.parametrize("name", ["zz-surface", "xx-scan", "random", "degenerate"])
def test_reversers_are_the_adjugate_form_bit_for_bit(name):
    # Monte Carlo cells replay only from bit-identical reversers; signed zeros
    # count, so the negated adj(M) entries must be negated before the product
    rng = np.random.default_rng(60)
    kraus = {"zz-surface": lambda: _surface()[2], "xx-scan": _xx_scan,
             "random": lambda: _random_kraus((500, 4), rng),
             "degenerate": lambda: _mixed_rank()[0]}[name]()
    plan = spectrum(kraus)
    got, want = np.ascontiguousarray(plan.reversers), reversers_reference(kraus, plan)
    if name == "xx-scan":
        zeros = want.view(np.float64)[want.view(np.float64) == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_perturbed_reversers_fail_the_run(tmp_path, monkeypatch, capsys):
    def perturbed_spectrum(kraus):
        return _perturbed(spectrum(kraus), [5], (1, 0), 1e-6)
    monkeypatch.setattr(scenarios, "spectrum", perturbed_spectrum)
    assert main(SURFACE + ["--out", str(tmp_path)]) == 1
    assert "internal residual checks failed" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_an_incomplete_stack_is_refused(entry):
    _, _, kraus, _ = _surface()
    bad = kraus.copy()
    bad[(7, 2) + entry] += 1e-6
    _close(_completeness(bad), completeness_reference(bad))
    assert _completeness(bad)[7] > TOLERANCES["unit"]
    coeffs = np.broadcast_to(np.eye(2, dtype=complex), (len(kraus), 2, 2))
    # E = I, so M_r = W_r^dag: the stack itself, as measurement elements
    assert np.array_equal(kraus_stack(coeffs, kraus.conj().swapaxes(-1, -2))[0], kraus)
    with pytest.raises(DomainError, match="instrument is not complete"):
        kraus_stack(coeffs, bad.conj().swapaxes(-1, -2))


def test_nan_entries_never_pass():
    _, _, kraus, _ = _surface()
    plan = spectrum(kraus)
    bad = kraus.copy()
    bad[11, 1, 0, 1] = np.nan
    _close(_completeness(bad), completeness_reference(bad))
    assert np.isnan(_completeness(bad)[11])
    row = 11 + 51  # a row with no degenerate outcome
    assert not plan.degenerate[row].any()
    nan_plan = _perturbed(plan, [row], (0, 0), np.nan)
    got = nan_plan.residual(kraus)
    _close(got, residual_reference(nan_plan, kraus))
    assert np.isnan(got[row]) and not got[row] <= TOLERANCES["reversal_gate"]


def test_nan_entries_fail_the_run(tmp_path, monkeypatch, capsys):
    entry = SCENARIOS["zz-scan"]

    def nan_measurement(t):
        elements = entry.measurement(t)
        if t.size > 2:  # the grid corners validate_scenario checks stay finite
            elements[3, 2, 1, 0] = np.nan
        return elements
    monkeypatch.setitem(SCENARIOS, "zz-scan", replace(entry, measurement=nan_measurement))
    assert main(SURFACE + ["--out", str(tmp_path / "kraus")]) == 2
    assert "instrument is not complete: residual nan" in capsys.readouterr().err

    def nan_spectrum(kraus):
        plan = spectrum(kraus)
        return _perturbed(plan, [int(np.flatnonzero(~plan.degenerate.any(axis=-1))[0])],
                          (1, 1), np.nan)
    monkeypatch.setitem(SCENARIOS, "zz-scan", entry)
    monkeypatch.setattr(scenarios, "spectrum", nan_spectrum)
    assert main(SURFACE + ["--out", str(tmp_path / "plan")]) == 1
    assert "reversal nan" in capsys.readouterr().err
