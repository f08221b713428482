"""The scenario table and the stacked Theorem 1 behind its closed-form column.

The four hand-derived success laws below are the special cases of Theorem 1
for each channel and measurement family.  They serve as reference oracles for
the one stacked law that fills the ``P_succ_closed`` column.
"""

import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerev import cli, montecarlo, scenarios
from telerev.errors import DomainError
from telerev.instrument import Instrument, kraus_stack, spectrum
from telerev.montecarlo import CHUNK, MC_BUDGET_BYTES, RngSpec, estimate_success
from telerev.scenarios import (BLOCK_ROWS, COLUMNS, SCENARIOS, GridSpec, Scenario, _cells,
                               _qubit_columns, validate_scenario)

from helpers import GOLDEN_ARGV
from oracles import _rows, cells_reference, thm1_success_stack

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
    cols, _ = _qubit_columns(Scenario(name, grid, grid2))
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
    cols, record = _qubit_columns(Scenario("ejm-aligned-scan", grid))
    t = grid.values()
    assert "param2" not in cols
    assert np.array_equal(cols["param1"], t)
    assert record.reversal_max <= 1e-9
    assert np.max(np.abs(cols["P_succ_closed"] - _p_ejm_aligned(t, t))) <= ORACLE_TOL
    assert np.max(np.abs(cols["P_succ_svd"] - _p_ejm_aligned(t, t))) <= ORACLE_TOL
    # the same rows as the diagonal of the s x t surface
    surface, _ = _qubit_columns(Scenario("ejm-aligned-scan", GridSpec(0.0, PI2, 9),
                                            GridSpec(0.0, PI2, 9)))
    diagonal, _ = _qubit_columns(Scenario("ejm-aligned-scan", GridSpec(0.0, PI2, 9)))
    on_diagonal = surface["param1"] == surface["param2"]
    for col in ("E_c", "E_M", "P_succ_closed", "P_succ_svd", "L_max", "F_standard"):
        assert np.array_equal(surface[col][on_diagonal], diagonal[col]), col


# Unequal axes, so that pairing a row with the other axis's index reads the wrong
# factory value or runs off its axis; the last 2-D case and the 1-D one span two blocks.
PER_ROW_CASES = [
    ("ejm-aligned-scan", GridSpec(0.0, PI2, 16), GridSpec(0.0, PI2, 17)),
    ("xx-scan", GridSpec(0.0, PI4, 9), GridSpec(0.0, PI4, 11)),
    ("zz-scan", GridSpec(0.0, 1.3, 13), GridSpec(0.0, PI4, 7)),
    ("zz-scan", GridSpec(0.0, 1.3, 41), GridSpec(0.0, PI4, 29)),
    ("xx-scan", GridSpec(0.0, PI4, BLOCK_ROWS + 3), None),
    ("ejm-scan", GridSpec(0.0, PI2, 23), None),
    ("ejm-aligned-scan", GridSpec(0.0, PI2, 31), None),
]


@pytest.mark.parametrize("name, grid, grid2", PER_ROW_CASES, ids=[
    f"{c[0]}-{c[1].steps}x{c[2].steps}" if c[2] else f"{c[0]}-{c[1].steps}" for c in PER_ROW_CASES])
def test_per_axis_columns_are_the_per_row_stacks_bit_for_bit(name, grid, grid2):
    # the reference: factories, Kraus stack, spectrum and Theorem 1 on full-length
    # rows, each row's channel and measurement made for that row
    cols, record = _qubit_columns(Scenario(name, grid, grid2))
    entry = SCENARIOS[name]
    params, t, x = _rows(entry, grid.values(), None if grid2 is None else grid2.values())
    coeffs, elements = entry.channel(x), entry.measurement(t)
    kraus, completeness = kraus_stack(coeffs, elements)
    spec = spectrum(kraus)
    e_c, e_m, closed = thm1_success_stack(coeffs, elements)
    want = dict(params, E_c=e_c, E_M=e_m[:, 0], F_standard=spec.f_standard, F_mr=np.ones(t.size),
                P_succ_closed=closed, P_succ_svd=spec.p_succ, L_max=spec.leakage,
                tradeoff_lhs=spec.tradeoff)
    assert sorted(cols) == sorted(want)
    for column, values in want.items():
        got = np.ascontiguousarray(cols[column], dtype=np.float64)
        assert np.array_equal(got.view(np.uint64),
                              np.ascontiguousarray(values).view(np.uint64)), column
    assert record.completeness_max == float(np.max(completeness))
    assert record.reversal_max == float(np.max(spec.residual(kraus)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_grids_pass_validation(name):
    spec = SCENARIOS[name]
    validate_scenario(Scenario(name, spec.grid, spec.grid2))


@pytest.mark.parametrize("name", sorted(n for n, s in SCENARIOS.items() if s.measurement))
def test_factories_reject_a_grid_end_outside_their_domain(name):
    # ejm-aligned-scan sets its channel angle s = t without a second grid
    with pytest.raises(DomainError, match=rf"^{name}: (t|s)\[0\]=-0\.5 outside \[0\.0, "):
        validate_scenario(Scenario(name, GridSpec(-0.5, 0.5, 3)))


@pytest.mark.parametrize("block", [12, 35])
def test_each_factory_stack_is_checked_once_whatever_the_block_size(block, tmp_path, monkeypatch):
    # the factories check what they make; a block checks none of its gathered rows,
    # so the 35-row zz-scan in 3 blocks of 12 checks what 1 block of 35 does
    from telerev import jointmeas, qstate
    checked, shapes = qstate._normalised, []
    def count(coeffs):
        shapes.append(coeffs.shape)
        return checked(coeffs)
    for module in (qstate, jointmeas, scenarios):
        monkeypatch.setattr(module, "_normalised", count, raising=module is not scenarios)
    monkeypatch.setattr(scenarios, "BLOCK_ROWS", block)
    sc = Scenario("zz-scan", GridSpec(0.0, 1.3, 7), GridSpec(0.0, PI4, 5))
    assert scenarios.run(sc, tmp_path).rows == 35
    # validation runs each factory on its axis ends, then the run on its whole axis
    assert shapes == [(2, 2, 2), (2, 4, 2, 2), (5, 2, 2), (7, 4, 2, 2)]


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
    sc, _, _ = cli.resolve(GOLDEN_ARGV[name])
    assert sc.mc_samples == 2000
    result = scenarios.run(sc, tmp_path)
    assert result.residual_ok
    got, want = _mc_cells(result.data_path), _mc_cells(GOLDEN_DIR / f"{name}.csv")
    assert len(got) == sc.grid.steps and got == want


def _replay_monte_carlo_goldens(tmp_path, **env):
    """Run the xx-scan and ejm-scan golden runs in a subprocess with ``env`` set, and
    compare their CSVs with the goldens byte for byte."""
    argvs = {name: GOLDEN_ARGV[name] for name in ("xx-scan", "ejm-scan")}
    script = ("import sys; from telerev.cli import main; "
              "sys.exit(max(main(argv + ['--out', sys.argv[1]]) for argv in %r))"
              % list(argvs.values()))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for name in argvs:
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (GOLDEN_DIR / f"{name}.csv").read_bytes(), name


def test_monte_carlo_goldens_replay_on_an_avx2_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU; Haswell is the one AVX2-only hosts
    # get.  The qubit chain uses no BLAS, so the Monte Carlo goldens replay
    # byte for byte on it (a no-op where OpenBLAS is not DYNAMIC_ARCH).
    _replay_monte_carlo_goldens(tmp_path, OPENBLAS_CORETYPE="Haswell")


def test_monte_carlo_goldens_replay_on_numpy_baseline_loops(tmp_path):
    # With its AVX2 and AVX-512 targets off, numpy runs its baseline SIMD loops, whose
    # complex multiply and complex abs round differently (no FMA).  The qubit chain,
    # the Theorem 1 invariants and the success kernel use none of them, only real
    # multiply, add, subtract, divide and sqrt, so the goldens replay byte for byte.
    _replay_monte_carlo_goldens(
        tmp_path, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


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


def test_fractional_samples_refused_before_any_row(tmp_path, monkeypatch):
    _refuse_rows(monkeypatch)
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 3), mc_samples=2.5)
    with pytest.raises(DomainError, match=r"^--samples 2\.5 is not an integer$"):
        scenarios.run(sc, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", [True, np.True_])
def test_boolean_samples_refused_before_any_row(samples, tmp_path, monkeypatch):
    # operator.index reads True as 1; the row phase would then fail in np.zeros
    _refuse_rows(monkeypatch)
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 3), mc_samples=samples)
    with pytest.raises(DomainError, match=rf"^--samples {re.escape(repr(samples))} is not an "):
        scenarios.run(sc, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_fractional_grid_steps_are_refused():
    with pytest.raises(DomainError, match=r"^grid steps 2\.5 is not an integer$"):
        GridSpec(0.0, 1.0, 2.5)
    assert GridSpec(0.0, 1.0, np.int64(3)).values().tolist() == [0.0, 0.5, 1.0]


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


def _per_row_cells(name: str, grid: GridSpec, n: int, rng: RngSpec):
    """The MC cells of each row from its own estimate_success call, on stream base + k."""
    entry, t = SCENARIOS[name], grid.values()
    angle = np.full(t.size, entry.angle)
    kraus, _ = kraus_stack(entry.channel(angle), entry.measurement(t))
    spec = spectrum(kraus)
    return [tuple(format(v, ".15g") for v in (e.mean, e.std_error)) for e in (
        estimate_success(Instrument(2, kraus[k], "row"), spec.plan(k), n,
                         RngSpec(rng.seed, rng.stream + k)) for k in range(t.size))]


def _force_workers(monkeypatch, workers: int):
    monkeypatch.setattr(montecarlo, "_mc_workers", lambda n, rows: min(workers, rows))


@pytest.mark.parametrize("name", ["ejm-scan", "xx-scan"])
def test_threaded_monte_carlo_rows_are_the_serial_rows(name, tmp_path, monkeypatch):
    # Rows are shared between threads, but each row keeps its own stream and slot.
    sc = Scenario(name, GridSpec(0.0, 0.7, 5), mc_samples=2 * CHUNK + 1, rng=RngSpec(8, 3))
    data = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        result = scenarios.run(sc, tmp_path / str(workers))
        assert json.loads(result.manifest_path.read_text())["mc_threads"] == workers
        data[workers] = result.data_path.read_bytes()
    assert data[1] == data[2]
    assert _mc_cells(tmp_path / "2" / f"{name}.csv") == _per_row_cells(
        name, sc.grid, sc.mc_samples, sc.rng)


def test_more_threads_than_cpus_switching_often_keep_every_row(tmp_path, monkeypatch):
    # A row taken twice or skipped would show as a cell out of place or a missing one.
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 9), mc_samples=64, rng=RngSpec(5))
    serial = scenarios.run(sc, tmp_path / "serial").data_path.read_bytes()
    _force_workers(monkeypatch, 2 * os.cpu_count() + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = scenarios.run(sc, tmp_path / "threaded").data_path.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_an_error_on_a_helper_row_comes_out_of_run_and_the_cli(tmp_path, monkeypatch, capsys):
    argv = ["--scenario", "ejm-scan", "--samples", "64", "--out", str(tmp_path)]
    assert cli.main(argv + ["--grid", "0:1:3"]) == 0

    def failing(g, n, rng):  # every row runs on a pool thread
        raise DomainError("helper row failed")

    monkeypatch.setattr(montecarlo, "_success_estimate", failing)
    _force_workers(monkeypatch, 2)
    threads = threading.active_count()
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 5), mc_samples=64)
    with pytest.raises(DomainError, match="^helper row failed$"):
        scenarios.run(sc, tmp_path)
    assert threading.active_count() == threads
    assert cli.main(argv + ["--grid", "0:1:5"]) == 2
    assert capsys.readouterr().err == "error: helper row failed\n"
    assert threading.active_count() == threads
    # the failed runs wrote nothing: the first run's data and manifest still agree
    manifest = json.loads((tmp_path / "ejm-scan_manifest.json").read_text())
    assert manifest["rows"] == len(_mc_cells(tmp_path / "ejm-scan.csv")) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ejm-scan.csv",
                                                           "ejm-scan_manifest.json"]


# Batches hold at most CHUNK samples: 300 rows of 64 samples make 3 batches (128, 128
# and 44 rows), rows of CHUNK // 2 + 1 samples a batch each.  Batches that finish out of
# order would show as cells out of place.
@pytest.mark.parametrize("rows, n", [(300, 64), (30, CHUNK // 2 + 1)],
                         ids=["several-rows-a-batch", "one-row-a-batch"])
def test_pool_batches_switching_often_write_the_serial_bytes(rows, n, tmp_path, monkeypatch):
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, rows), mc_samples=n, rng=RngSpec(6, 2))
    _force_workers(monkeypatch, 1)
    serial = scenarios.run(sc, tmp_path / "serial").data_path.read_bytes()
    _force_workers(monkeypatch, 2 * os.cpu_count() + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = scenarios.run(sc, tmp_path / "threaded").data_path.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_a_failed_first_row_cancels_the_batches_not_yet_started(tmp_path, monkeypatch):
    # one row a batch; every other row outlasts the failed one
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 100), mc_samples=CHUNK // 2 + 1,
                  rng=RngSpec(2, 7))
    real, error, drawn = montecarlo._success_estimate, DomainError("first row failed"), []

    def failing(g, n, rng):
        drawn.append(rng.stream)
        if rng.stream == sc.rng.stream:
            raise error
        time.sleep(0.01)
        return real(g, n, rng)

    monkeypatch.setattr(montecarlo, "_success_estimate", failing)
    _force_workers(monkeypatch, 2)
    threads = threading.active_count()
    with pytest.raises(DomainError) as raised:
        scenarios.run(sc, tmp_path)
    assert raised.value is error
    assert sc.rng.stream in drawn and len(drawn) < sc.grid.steps
    assert threading.active_count() == threads
    assert not list(tmp_path.iterdir())


# The third case runs in three blocks of 4 rows: one Monte Carlo stage still draws them.
@pytest.mark.parametrize("name, grid, grid2, n, block", [
    ("xx-scan", GridSpec(0.0, PI4, BLOCK_ROWS + 1), None, 16, BLOCK_ROWS),
    ("zz-scan", GridSpec(0.0, 1.3, 6), GridSpec(0.0, PI4, 5), 64, BLOCK_ROWS),
    ("ejm-scan", GridSpec(0.0, 1.0, 11), None, 16, 4)],
    ids=["xx-scan", "zz-scan", "ejm-scan-three-blocks"])
def test_block_monte_carlo_cells_are_per_row_estimate_success_bit_for_bit(name, grid, grid2, n,
                                                                          block, monkeypatch):
    # one Gram stack per block, one worker count and one pool per run; each row still
    # draws from stream base + k
    counts, pools = [], []
    real_workers, real_pool = montecarlo._mc_workers, concurrent.futures.ThreadPoolExecutor

    def workers(n, rows):
        counts.append(rows)
        return real_workers(n, rows)

    class Pool(real_pool):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(scenarios, "BLOCK_ROWS", block)
    monkeypatch.setattr(montecarlo, "_mc_workers", workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    sc = Scenario(name, grid, grid2, mc_samples=n, rng=RngSpec(31, 4))
    cols = _qubit_columns(sc)[0]
    entry = SCENARIOS[name]
    _, t, x = _rows(entry, grid.values(), None if grid2 is None else grid2.values())
    assert counts == [t.size] and len(pools) == 1
    kraus, _ = kraus_stack(entry.channel(x), entry.measurement(t))
    spec = spectrum(kraus)
    est = [estimate_success(Instrument(2, kraus[k], "row"), spec.plan(k), n, RngSpec(31, 4 + k))
           for k in range(t.size)]
    for column, field in (("P_succ_mc", "mean"), ("P_succ_mc_stderr", "std_error")):
        want = np.array([getattr(e, field) for e in est])
        assert np.array_equal(cols[column].view(np.uint64), want.view(np.uint64)), column
    if name == "zz-scan":  # the phi = 0 channel leaves every outcome unrecoverable
        assert np.count_nonzero(x == 0.0) == grid.steps
        assert spec.degenerate[x == 0.0].all() and not np.any(cols["P_succ_mc"][x == 0.0])


# The worker-count rule alone: no thread is started and no array allocated.
@pytest.mark.parametrize("n, rows, cpus, workers", [
    (MC_BUDGET_BYTES // 48 + 1, 10, 8, 1),            # two rows would overrun the budget
    (MC_BUDGET_BYTES // 48, 10, 8, 2),                # exactly two rows fit
    (10 ** 5, 1, 8, 1),                               # a one-row block
    (2048, 3, 8, 3),                                  # min(cpus, rows)
    (10 ** 5, 100, 8, 8),
    (10 ** 5, 100, 2, 2),
    (10 ** 5, 100, 1, 1),
])
def test_monte_carlo_worker_count_rule(n, rows, cpus, workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert montecarlo._mc_workers(n, rows) == workers


@pytest.mark.parametrize("count, workers", [(4, 4), (None, 1)])
def test_worker_count_without_an_affinity_call_uses_the_cpu_count(count, workers,
                                                                 monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert montecarlo._mc_workers(10 ** 5, 100) == workers


# Cells that one text form must not hide: both signed zeros, NaNs of either
# sign and with a payload, infinities, subnormals, and both sides of the
# switch of "%.15g" to exponent form (below 1e-4 and from 1e15 up).
SPECIAL_CELLS = [0.0, -0.0, math.nan, -math.nan,
                 float(np.array(0x7FF8000000000001).view(np.float64)),
                 math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                 1e-5, 9.99999999999999e-05, 1e-4, 999999999999999.0, 1e15, 1e16, 0.1, 1 / 3]


def _value_keyed_cells(cols, n: int):
    """A dedupe keyed on float values, which merges 0.0 with -0.0."""
    text = []
    for c in COLUMNS:
        if c not in cols:
            text.append(["NA"] * n)
            continue
        keys, inverse = np.unique(np.asarray(cols[c], dtype=np.float64), return_inverse=True)
        text.append([[format(v, ".15g") for v in keys.tolist()][i] for i in inverse])
    return list(zip(*text))


@st.composite
def _cell_columns(draw):
    """Some of the columns, each drawn from a pool of at most four values so
    that cells repeat; the rest are NA."""
    n = draw(st.integers(0, 12))
    value = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats(allow_subnormal=True))
    cols = {}
    for c in COLUMNS:
        if draw(st.booleans()):
            pool = draw(st.lists(value, min_size=1, max_size=4))
            cols[c] = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                               dtype=np.float64)
    return cols, n


@settings(max_examples=300, deadline=None)
@given(_cell_columns())
@example(({"param1": np.array(SPECIAL_CELLS * 2), "E_c": np.array(SPECIAL_CELLS[::-1] * 2)},
          2 * len(SPECIAL_CELLS)))
@example(({"P_succ_svd": np.array([0.0, -0.0, -0.0, 0.0])}, 4))
def test_cells_match_one_format_call_per_cell(case):
    cols, n = case
    assert _cells(cols, n) == cells_reference(cols, n)


def test_cells_keep_signed_zeros_and_strided_columns_apart():
    # the value-keyed dedupe prints one zero for both; a strided column (a
    # view, as E_M is of its stack) is read like a contiguous one
    cols = {"param1": np.array(SPECIAL_CELLS * 3), "E_M": np.array(SPECIAL_CELLS * 6)[::2]}
    n = 3 * len(SPECIAL_CELLS)
    want = cells_reference(cols, n)
    assert _cells(cols, n) == want
    assert _value_keyed_cells(cols, n) != want
    assert {row[0] for row in want} >= {"0", "-0", "nan", "inf", "-inf", "4.94065645841247e-324",
                                        "1e-05", "0.0001", "1e+15", "999999999999999"}
