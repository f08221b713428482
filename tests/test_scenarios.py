"""The scenario table and the stacked Theorem 1 behind its closed-form column.

The four hand-derived success laws below are the special cases of Theorem 1
for each channel and measurement family.  They serve as reference oracles for
the one stacked law that fills the ``P_succ_closed`` column.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from telerev import montecarlo, scenarios
from telerev.errors import DomainError
from telerev.instrument import Instrument, kraus_stack, spectrum
from telerev.montecarlo import MC_BUDGET_BYTES, RngSpec, estimate_success
from telerev.scenarios import (SCENARIOS, GridSpec, Scenario, _qubit_columns,
                               validate_scenario)

GOLDEN_DIR = Path(__file__).parent / "goldens"

PI4, PI2 = math.pi / 4, math.pi / 2
ORACLE_TOL = 1e-12


def _p_xx(phi, t):
    weaker = np.minimum(np.sin(2 * phi), np.cos(2 * t))
    return 1.0 - np.sqrt(np.maximum(1.0 - weaker * weaker, 0.0))


def _p_ejm(t):
    return 1.0 - math.sqrt(3) / 2 * np.cos(t)


def _p_ejm_aligned(s, t):
    # 1 - (1/4)[sqrt((1-X)^2 - (E_c E_M)^2) + sqrt((3+X)^2 - 9(E_c E_M)^2)]
    # with X = sqrt((1-E_M^2)(1-E_c^2)), rewritten through the Bloch radii
    # ub, vb so both radicals are cancellation-free on the s = t diagonal.
    ub = math.sqrt(3) / 2 * np.cos(s)
    vb = math.sqrt(3) / 2 * np.cos(t)
    a = np.abs(ub - vb)
    b = 3.0 * np.sqrt((ub + vb / 3.0) ** 2 + 8.0 / 9.0 * vb * vb * (1.0 - ub * ub))
    return 1.0 - 0.25 * (a + b)


def _p_zz(phi, t):
    big_r = np.sqrt(math.pi ** 2 + 16.0 * t * t) / 4.0
    return 1.0 - np.maximum(np.cos(2 * phi), np.abs(np.cos(2 * big_r)))


# scenario, grids, oracle of the columns (param2 is the channel angle)
ORACLE_CASES = [
    ("xx-scan", GridSpec(0.0, PI4, 51), GridSpec(0.0, PI4, 51),
     lambda c: _p_xx(c["param2"], c["param1"])),
    ("xx-scan", GridSpec(0.0, PI4, 51), None, lambda c: _p_xx(PI4, c["param1"])),
    ("ejm-scan", GridSpec(0.0, PI2, 51), None, lambda c: _p_ejm(c["param1"])),
    ("tradeoff-scan", GridSpec(0.0, PI2, 51), None, lambda c: _p_ejm(c["param1"])),
    ("ejm-aligned-scan", GridSpec(0.0, PI2, 21), GridSpec(0.0, PI2, 21),
     lambda c: _p_ejm_aligned(c["param2"], c["param1"])),
    ("zz-scan", GridSpec(0.0, 1.3, 51), GridSpec(0.0, PI4, 51),
     lambda c: _p_zz(c["param2"], c["param1"])),
    ("zz-scan", GridSpec(0.0, 1.3, 51), None, lambda c: _p_zz(PI4, c["param1"])),
]


@pytest.mark.parametrize("name, grid, grid2, oracle", ORACLE_CASES,
                         ids=[f"{c[0]}-{'2d' if c[2] else '1d'}" for c in ORACLE_CASES])
def test_stacked_theorem_1_matches_the_hand_derived_laws(name, grid, grid2, oracle):
    cols, _, _ = _qubit_columns(Scenario(name, grid, grid2))
    closed = cols["P_succ_closed"]
    assert np.max(np.abs(closed - oracle(cols))) <= ORACLE_TOL
    assert np.max(np.abs(closed - cols["P_succ_svd"])) <= ORACLE_TOL
    if grid2 is not None and name != "ejm-aligned-scan":
        # the Bell corner (t = 0, phi = pi/4) and the product-channel column
        bell = (cols["param1"] == 0.0) & (cols["param2"] == PI4)
        assert abs(closed[bell][0] - 1.0) <= ORACLE_TOL
        assert np.all(closed[cols["param2"] == 0.0] == 0.0)


def test_aligned_scan_without_second_grid_is_the_diagonal():
    grid = GridSpec(0.0, PI2, 201)
    cols, _, reversal_max = _qubit_columns(Scenario("ejm-aligned-scan", grid))
    t = grid.values()
    assert "param2" not in cols
    assert np.array_equal(cols["param1"], t)
    assert reversal_max <= 1e-9
    assert np.max(np.abs(cols["P_succ_closed"] - _p_ejm_aligned(t, t))) <= ORACLE_TOL
    assert np.max(np.abs(cols["P_succ_svd"] - _p_ejm_aligned(t, t))) <= ORACLE_TOL
    # the same rows as the diagonal of the s x t surface
    surface, _, _ = _qubit_columns(Scenario("ejm-aligned-scan", GridSpec(0.0, PI2, 9),
                                            GridSpec(0.0, PI2, 9)))
    diagonal, _, _ = _qubit_columns(Scenario("ejm-aligned-scan", GridSpec(0.0, PI2, 9)))
    on_diagonal = surface["param1"] == surface["param2"]
    for col in ("E_c", "E_M", "P_succ_closed", "P_succ_svd", "L_max", "F_standard"):
        assert np.array_equal(surface[col][on_diagonal], diagonal[col]), col


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_grids_pass_validation(name):
    spec = SCENARIOS[name]
    validate_scenario(Scenario(name, spec.grid, spec.grid2))


@pytest.mark.parametrize("name", sorted(n for n, s in SCENARIOS.items() if s.measurement))
def test_factories_reject_a_grid_end_outside_their_domain(name):
    # ejm-aligned-scan sets its channel angle s = t without a second grid
    with pytest.raises(DomainError, match=rf"^{name}: (t|s)=-0\.5 outside \[0\.0, "):
        validate_scenario(Scenario(name, GridSpec(-0.5, 0.5, 3)))


def _golden_scenario(name: str) -> Scenario:
    """The golden run of ``name``, rebuilt from its CLI arguments."""
    runs = json.loads((GOLDEN_DIR / "invocations.json").read_text())
    argv = next(r["argv"] for r in runs if r["name"] == name)
    opts = dict(zip(argv[::2], argv[1::2]))
    start, stop, steps = opts["--grid"].split(":")
    return Scenario(name, GridSpec(float(start), float(stop), int(steps)),
                    mc_samples=int(opts["--samples"]), rng=RngSpec(int(opts["--seed"])))


def _mc_cells(path: Path) -> list[tuple[str, str]]:
    with path.open(newline="") as f:
        return [(row["P_succ_mc"], row["P_succ_mc_stderr"]) for row in csv.DictReader(f)]


@pytest.mark.parametrize("name", ["ejm-scan", "xx-scan"])
def test_scenario_monte_carlo_runs_without_the_full_estimator(name, tmp_path, monkeypatch):
    # Only P_succ is written, so the overlap and f_cond work must not run.
    def refuse(*args, **kwargs):
        raise AssertionError("scenario Monte Carlo called estimate_performance")
    monkeypatch.setattr(montecarlo, "estimate_performance", refuse)
    monkeypatch.setattr(scenarios, "estimate_performance", refuse, raising=False)
    sc = _golden_scenario(name)
    assert sc.mc_samples == 2000
    result = scenarios.run(sc, tmp_path)
    assert result.residual_ok
    got, want = _mc_cells(result.data_path), _mc_cells(GOLDEN_DIR / f"{name}.csv")
    assert len(got) == sc.grid.steps and got == want


def test_monte_carlo_goldens_replay_on_an_avx2_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU; Haswell is the one AVX2-only hosts
    # get.  The qubit chain uses no BLAS, so the Monte Carlo goldens replay
    # byte for byte on it (a no-op where OpenBLAS is not DYNAMIC_ARCH).
    runs = json.loads((GOLDEN_DIR / "invocations.json").read_text())
    argvs = {r["name"]: r["argv"] for r in runs if r["name"] in ("xx-scan", "ejm-scan")}
    script = ("import sys; from telerev.cli import main; "
              "sys.exit(max(main(argv + ['--out', sys.argv[1]]) for argv in %r))"
              % list(argvs.values()))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for name in argvs:
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (GOLDEN_DIR / f"{name}.csv").read_bytes(), name


@pytest.mark.parametrize("samples", [0, -5])
def test_nonpositive_samples_refused_before_any_row(samples, tmp_path, monkeypatch):
    # refused by validation, so no row is evaluated and no file written
    def refuse(*args, **kwargs):
        raise AssertionError("a row was evaluated")
    monkeypatch.setattr(scenarios, "_qubit_block", refuse)
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 3), mc_samples=samples)
    with pytest.raises(DomainError, match=rf"^--samples must be >= 1, got {samples}$"):
        scenarios.run(sc, tmp_path / "out")
    with pytest.raises(DomainError, match="--samples must be >= 1"):
        validate_scenario(sc)
    assert not (tmp_path / "out").exists()


def _refuse_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a row was evaluated")
    monkeypatch.setattr(scenarios, "_qubit_block", refuse)


def test_oversized_samples_refused_before_any_row(tmp_path, monkeypatch):
    _refuse_rows(monkeypatch)
    n = MC_BUDGET_BYTES // 24 + 1
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 3), mc_samples=n)
    with pytest.raises(DomainError, match=rf"^{n} samples need {24 * n} B, over the "):
        scenarios.run(sc, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_stream_base_offsets_every_monte_carlo_row(tmp_path):
    # row k draws from stream base + k, so the base recorded in the manifest
    # is the one the cells were drawn with
    grid, seed = GridSpec(0.0, 1.0, 3), 99
    cells = {}
    for base in (0, 5):
        sc = Scenario("ejm-scan", grid, mc_samples=500, rng=RngSpec(seed, base))
        result = scenarios.run(sc, tmp_path / str(base))
        cells[base] = _mc_cells(result.data_path)
        assert json.loads(result.manifest_path.read_text())["stream_base"] == base
    entry, t = SCENARIOS["ejm-scan"], grid.values()
    kraus, _ = kraus_stack(entry.channel(t), entry.measurement(t))
    spec = spectrum(kraus)
    for k in range(t.size):
        est = estimate_success(Instrument(2, tuple(kraus[k]), "row"), spec.plan(k), 500,
                               RngSpec(seed, 5 + k))
        assert cells[5][k] == (format(est.mean, ".15g"), format(est.std_error, ".15g"))
    assert cells[0] != cells[5]


def test_stream_base_past_the_last_key_refused_before_any_row(tmp_path, monkeypatch):
    grid = GridSpec(0.0, 1.0, 3)
    validate_scenario(Scenario("ejm-scan", grid, mc_samples=10, rng=RngSpec(1, 2 ** 64 - 3)))
    _refuse_rows(monkeypatch)
    sc = Scenario("ejm-scan", grid, mc_samples=10, rng=RngSpec(1, 2 ** 64 - 2))
    with pytest.raises(DomainError, match=r"stream 18446744073709551616 outside \[0, 2\^64\)"):
        scenarios.run(sc, tmp_path / "out")
    assert not (tmp_path / "out").exists()
