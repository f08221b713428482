"""Parameter-sweep scenarios emitting the figure data as CSV/JSON artifacts.

Every scenario writes one data file with a fixed column schema (unused cells
hold the literal ``NA``) plus a JSON run manifest.  Grid points are evaluated
in grid order, in blocks of rows sharing one stacked SVD, with a dedicated
Monte Carlo stream per row, so output files are deterministic for a fixed
seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from .instrument import Instrument, kraus_stack, spectrum
from .jointmeas import ZX_ZZ_LIMIT, ejm_stack, xx_deformed_stack, zx_zz_stack
from .montecarlo import RngSpec, estimate_performance
from .qstate import (concurrences, ejm_channel_stack, max_entangled_stack,
                     schmidt_stack)
from .theorems import solve_tr

COLUMNS = [
    "param1", "param2", "E_c", "E_M", "F_standard", "F_mr",
    "P_succ_closed", "P_succ_svd", "P_succ_mc", "P_succ_mc_stderr",
    "L_max", "tradeoff_lhs", "thm2_lower", "thm2_upper",
]

SCENARIO_NAMES = ("xx-scan", "ejm-scan", "ejm-aligned-scan", "zz-scan",
                  "tradeoff-scan", "thm2-bounds")

DEFAULT_SEED = 20240101

COMPLETENESS_GATE = 1e-10
REVERSAL_GATE = 1e-9

# Grid rows per stacked SVD.  Blocks keep the speed of one whole-grid batch
# (about 20x the row-by-row loop) while holding peak memory flat: a single
# 2601-row batch raised the peak RSS of a zz-scan run by 13%.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linear grid with at least two steps."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError(
                f"grid bounds must be finite, got [{self.start!r}, {self.stop!r}]")
        if self.steps < 2:
            raise DomainError(f"grid needs at least 2 steps, got {self.steps}")
        if self.stop < self.start:
            raise DomainError(f"grid stop {self.stop!r} below start {self.start!r}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: GridSpec
    grid2: GridSpec | None = None
    mc_samples: int | None = None
    rng: RngSpec = RngSpec(DEFAULT_SEED)


@dataclass
class RunResult:
    data_path: Path
    manifest_path: Path
    rows: int
    completeness_max: float
    reversal_max: float
    residual_ok: bool


# Default grids (used by the CLI when flags are absent).
DEFAULT_GRIDS: dict[str, tuple[GridSpec, GridSpec | None]] = {
    "xx-scan": (GridSpec(0.0, math.pi / 4, 51), None),
    "ejm-scan": (GridSpec(0.0, math.pi / 2, 51), None),
    "ejm-aligned-scan": (GridSpec(0.0, math.pi / 2, 21),
                         GridSpec(0.0, math.pi / 2, 21)),
    "zz-scan": (GridSpec(0.0, 1.3, 51), None),
    "tradeoff-scan": (GridSpec(0.0, math.pi / 2, 51), None),
    "thm2-bounds": (GridSpec(0.0, 1.0, 51), GridSpec(3.0, 4.0, 2)),
}


# Closed-form P_succ laws, evaluated elementwise over a block of rows.
def _p_closed_xx(phi, t):
    weaker = np.minimum(np.sin(2 * phi), np.cos(2 * t))
    return 1.0 - np.sqrt(np.maximum(1.0 - weaker * weaker, 0.0))


def _p_closed_ejm(t):
    return 1.0 - math.sqrt(3) / 2 * np.cos(t)


def _p_closed_ejm_aligned(s, t):
    # 1 - (1/4)[sqrt((1-X)^2 - (E_c E_M)^2) + sqrt((3+X)^2 - 9(E_c E_M)^2)]
    # with X = sqrt((1-E_M^2)(1-E_c^2)), rewritten through the Bloch radii
    # ub, vb so both radicals are cancellation-free on the s = t diagonal.
    ub = math.sqrt(3) / 2 * np.cos(s)
    vb = math.sqrt(3) / 2 * np.cos(t)
    a = np.abs(ub - vb)
    b = 3.0 * np.sqrt((ub + vb / 3.0) ** 2 + 8.0 / 9.0 * vb * vb * (1.0 - ub * ub))
    return 1.0 - 0.25 * (a + b)


def _p_closed_zz(phi, t):
    big_r = np.sqrt(math.pi ** 2 + 16.0 * t * t) / 4.0
    return 1.0 - np.maximum(np.cos(2 * phi), np.abs(np.cos(2 * big_r)))


def validate_scenario(sc: Scenario) -> None:
    """Range-check the grids against the scenario's parameter domains."""
    if sc.name not in SCENARIO_NAMES:
        raise DomainError(f"unknown scenario {sc.name!r}")
    tol = 1e-12

    def _within(g: GridSpec, lo: float, hi: float, what: str,
                exclusive_hi: bool = False) -> None:
        bad_hi = g.stop >= hi if exclusive_hi else g.stop > hi + tol
        if g.start < lo - tol or bad_hi:
            end = ")" if exclusive_hi else "]"
            raise DomainError(
                f"{sc.name}: {what} grid [{g.start!r}, {g.stop!r}] outside "
                f"[{lo!r}, {hi!r}{end}")

    if sc.name == "xx-scan":
        _within(sc.grid, 0.0, math.pi / 4, "t")
        if sc.grid2 is not None:
            _within(sc.grid2, 0.0, math.pi / 4, "phi")
    elif sc.name in ("ejm-scan", "tradeoff-scan"):
        _within(sc.grid, 0.0, math.pi / 2, "t")
        if sc.grid2 is not None:
            raise DomainError(f"{sc.name} takes no second grid")
    elif sc.name == "ejm-aligned-scan":
        _within(sc.grid, 0.0, math.pi / 2, "t")
        if sc.grid2 is not None:
            _within(sc.grid2, 0.0, math.pi / 2, "s")
    elif sc.name == "zz-scan":
        _within(sc.grid, 0.0, ZX_ZZ_LIMIT, "t", exclusive_hi=True)
        if sc.grid2 is not None:
            _within(sc.grid2, 0.0, math.pi / 4, "phi")
    elif sc.name == "thm2-bounds":
        _within(sc.grid, 0.0, 1.0, "e")
        if sc.grid2 is not None:
            for v in sc.grid2.values():
                if abs(v - round(v)) > 1e-9 or not 2 <= round(v) <= 8:
                    raise DomainError(
                        f"thm2-bounds: dimension grid value {float(v)!r} is not an "
                        f"integer in [2, 8]")


# Channel stack, measurement stack and closed-form P_succ of a block of rows
# with primary parameter t and channel angle x.
_FAMILIES = {
    "xx-scan": lambda t, x: (schmidt_stack(x, "z"), xx_deformed_stack(t), _p_closed_xx(x, t)),
    "zz-scan": lambda t, x: (schmidt_stack(x, "y"), zx_zz_stack(t), _p_closed_zz(x, t)),
    "ejm-aligned-scan": lambda t, x: (ejm_channel_stack(x), ejm_stack(t),
                                      _p_closed_ejm_aligned(x, t)),
    "ejm-scan": lambda t, x: (max_entangled_stack(2, t.size), ejm_stack(t), _p_closed_ejm(t)),
}
_FAMILIES["tradeoff-scan"] = _FAMILIES["ejm-scan"]


def _qubit_block(sc: Scenario, lo: int, t: np.ndarray, x: np.ndarray) -> dict:
    """Columns of the grid rows lo, lo+1, ... from one stacked SVD, plus each
    row's residuals; Monte Carlo row k draws from its own stream k, using that
    row's reversers from the block."""
    coeffs, elements, closed = _FAMILIES[sc.name](t, x)
    kraus, completeness = kraus_stack(coeffs, elements)
    spec = spectrum(kraus)
    cols = {"E_c": concurrences(coeffs), "E_M": concurrences(elements[:, 0]),
            "F_standard": spec.f_standard, "P_succ_closed": closed,
            "P_succ_svd": spec.p_succ, "L_max": spec.leakage,
            "tradeoff_lhs": spec.tradeoff, "completeness": completeness,
            "reversal": spec.reversal}
    if sc.mc_samples:
        est = [estimate_performance(Instrument(2, tuple(kraus[i]), f"{sc.name}[{lo + i}]"),
                                    spec.plan(i), sc.mc_samples,
                                    RngSpec(sc.rng.seed, lo + i))["p_succ"]
               for i in range(len(kraus))]
        cols["P_succ_mc"] = [e.mean for e in est]
        cols["P_succ_mc_stderr"] = [e.std_error for e in est]
    return cols


def _qubit_columns(sc: Scenario):
    """Columns of a qubit scenario, BLOCK_ROWS grid rows (param1 outer) at a time."""
    t = sc.grid.values()
    second = sc.grid2.values() if sc.grid2 is not None else (
        t if sc.name == "ejm-aligned-scan" else None)
    if second is None:
        cols, angle = {"param1": t}, np.full(t.size, math.pi / 4)
    else:
        angle = np.tile(second, t.size)
        cols = {"param1": np.repeat(t, second.size), "param2": angle}
    blocks = [_qubit_block(sc, lo, cols["param1"][lo:lo + BLOCK_ROWS],
                           angle[lo:lo + BLOCK_ROWS]) for lo in range(0, angle.size, BLOCK_ROWS)]
    cols.update((k, np.concatenate([b[k] for b in blocks])) for k in blocks[0])
    cols["F_mr"] = np.ones(angle.size)
    return cols, float(np.max(cols.pop("completeness"))), float(np.max(cols.pop("reversal")))


def _thm2_columns(sc: Scenario):
    dims = [3, 4] if sc.grid2 is None else [int(round(v)) for v in sc.grid2.values()]
    e = np.repeat(sc.grid.values(), len(dims))
    d = np.tile(np.array(dims, dtype=np.float64), sc.grid.steps)
    lower = [dim * solve_tr(int(dim), ev) for ev, dim in zip(e.tolist(), d.tolist())]
    return {"param1": e, "param2": d, "E_c": np.ones(e.size), "E_M": e,
            "thm2_lower": lower, "thm2_upper": e}, 0.0, 0.0


def _cells(cols, n: int):
    """Row-major text cells; a column the scenario does not fill is NA."""
    text = [[format(v, ".15g") for v in np.asarray(cols[c], dtype=np.float64).tolist()]
            if c in cols else ["NA"] * n for c in COLUMNS]
    return list(zip(*text))


def run(sc: Scenario, out_dir, fmt: str = "csv") -> RunResult:
    """Evaluate a scenario and write its data file plus run manifest."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown output format {fmt!r}")
    validate_scenario(sc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    columns = _thm2_columns if sc.name == "thm2-bounds" else _qubit_columns
    cols, comp_max, rev_max = columns(sc)
    n_rows = len(cols["param1"])
    t1 = time.perf_counter()
    cells = _cells(cols, n_rows)
    if fmt == "csv":
        data_path = out / f"{sc.name}.csv"
        text = "\n".join([",".join(COLUMNS)] + [",".join(r) for r in cells]) + "\n"
    else:
        data_path = out / f"{sc.name}.json"
        text = json.dumps({"columns": COLUMNS, "rows": cells}, indent=2) + "\n"
    t2 = time.perf_counter()
    data_path.write_text(text)
    t3 = time.perf_counter()

    residual_ok = comp_max <= COMPLETENESS_GATE and rev_max <= REVERSAL_GATE
    manifest = {
        "scenario": sc.name,
        "grid": {"start": sc.grid.start, "stop": sc.grid.stop, "steps": sc.grid.steps},
        "grid2": None if sc.grid2 is None else {
            "start": sc.grid2.start, "stop": sc.grid2.stop, "steps": sc.grid2.steps},
        "samples": sc.mc_samples,
        "seed": sc.rng.seed,
        "stream_base": sc.rng.stream,
        "generator": "philox4x64",
        "format": fmt,
        "version": __version__,
        "rows": n_rows,
        "columns": COLUMNS,
        "wall_time_s": t1 - t0,
        "phase_times_s": {"rows": t1 - t0, "format": t2 - t1, "write": t3 - t2},
        "residuals": {"completeness_max": comp_max, "reversal_max": rev_max},
        "residual_ok": residual_ok,
        "data_file": data_path.name,
    }
    manifest_path = out / f"{sc.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return RunResult(data_path=data_path, manifest_path=manifest_path,
                     rows=n_rows, completeness_max=comp_max,
                     reversal_max=rev_max, residual_ok=residual_ok)
