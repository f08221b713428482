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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerev import montecarlo, scenarios
from telerev.errors import DomainError
from telerev.instrument import Instrument, kraus_stack, spectrum
from telerev.montecarlo import MC_BUDGET_BYTES, RngSpec, estimate_success
from telerev.scenarios import (COLUMNS, SCENARIOS, GridSpec, Scenario, _cells,
                               _qubit_columns, validate_scenario)

from oracles import cells_reference

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


def test_fractional_samples_refused_before_any_row(tmp_path, monkeypatch):
    _refuse_rows(monkeypatch)
    sc = Scenario("ejm-scan", GridSpec(0.0, 1.0, 3), mc_samples=2.5)
    with pytest.raises(DomainError, match=r"^--samples 2\.5 is not an integer$"):
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
