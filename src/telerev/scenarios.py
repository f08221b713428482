"""Parameter-sweep scenarios emitting the figure data as CSV/JSON artifacts.

Every scenario writes one data file with a fixed column schema (unused cells
hold the literal ``NA``) plus a JSON run manifest.  A qubit scan is two axes
and a row index: the measurement factory runs once on the primary grid, the
channel factory once on the channel axis (the second grid, the fixed angle
of a 1-D scan, or the grid itself on the s = t diagonal), and each side's
Theorem 1 invariants are made once per axis value.  Grid points are then
evaluated in grid order, in blocks of rows that gather their channel and
measurement by index and share one stacked spectrum (a closed form at
d = 2).  With Monte Carlo, one stage after the blocks draws every row on one
thread pool (montecarlo._success_rows), row k from its own stream, so output
files are deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import DomainError, check_integer
from .instrument import kraus_stack, spectrum
from .jointmeas import ejm_stack, xx_deformed_stack, zx_zz_stack
from .linalg import gram
from .montecarlo import RngSpec, _success_rows, check_budget
from .qstate import _check_range, ejm_channel_stack, max_entangled_stack, schmidt_stack
from .theorems import _thm1_mixed, _thm1_side, solve_tr

COLUMNS = [
    "param1", "param2", "E_c", "E_M", "F_standard", "F_mr",
    "P_succ_closed", "P_succ_svd", "P_succ_mc", "P_succ_mc_stderr",
    "L_max", "tradeoff_lhs", "thm2_lower", "thm2_upper",
]

DEFAULT_SEED = 20240101

REVERSAL_GATE = 1e-9

# Grid rows per block, evaluated as one stack.  A block pays a fixed cost in
# numpy calls, and its transient arrays grow with its rows: 1024 rows take most
# of the speed for 2% more peak RSS (the surface-zz table in README.md, *Block engine*).
BLOCK_ROWS = 1024

# Grid rows per run.  A run holds its columns and their text whole.  The
# costliest output, a 2-D scan with Monte Carlo cells written as JSON, peaked
# at 215 MiB RSS at 80,000 rows (ejm-aligned-scan with --samples 16; zz-scan
# 198 MiB), about 2.4 KiB per row against 1.2 KiB for a 1-D CSV scan (53 MiB
# for 20,000 ejm-scan rows), so the limit keeps any run below MC_BUDGET_BYTES
# (256 MiB).
MAX_ROWS = 80_000


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
        check_integer(self.steps, "grid steps", 2)
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


@dataclass(frozen=True)
class ScenarioSpec:
    """What makes a scenario distinct.  The factories map arrays of channel
    angles and of primary parameters t to coefficient stacks and own their
    domains.  Without a second grid every channel angle is ``angle``, or t if
    None (the s = t diagonal); an entry without factories defaults to ``grid2``."""

    grid: GridSpec
    grid2: GridSpec | None = None
    takes_grid2: bool = True
    angle: float | None = math.pi / 4
    channel: Callable[[np.ndarray], np.ndarray] | None = None
    measurement: Callable[[np.ndarray], np.ndarray] | None = None


_EJM = ScenarioSpec(GridSpec(0.0, math.pi / 2, 51), takes_grid2=False,
                    channel=lambda x: max_entangled_stack(2, x.size), measurement=ejm_stack)
SCENARIOS: dict[str, ScenarioSpec] = {
    "xx-scan": ScenarioSpec(GridSpec(0.0, math.pi / 4, 51),
                            channel=lambda x: schmidt_stack(x, "z"),
                            measurement=xx_deformed_stack),
    "ejm-scan": _EJM,
    "ejm-aligned-scan": ScenarioSpec(GridSpec(0.0, math.pi / 2, 21),
                                     GridSpec(0.0, math.pi / 2, 21), angle=None,
                                     channel=ejm_channel_stack, measurement=ejm_stack),
    "zz-scan": ScenarioSpec(GridSpec(0.0, 1.3, 51), channel=lambda x: schmidt_stack(x, "y"),
                            measurement=zx_zz_stack),
    "tradeoff-scan": _EJM,
    "thm2-bounds": ScenarioSpec(GridSpec(0.0, 1.0, 51), GridSpec(3.0, 4.0, 2)),
}
DEFAULT_GRIDS = {name: (entry.grid, entry.grid2) for name, entry in SCENARIOS.items()}


def _axes(entry: ScenarioSpec, t: np.ndarray, second: np.ndarray | None):
    """Parameter columns of every row, in grid order with t outer; the channel-angle
    axis; and each row's index of its t and of its channel angle.  The channel axis is
    the second grid, else the fixed ``angle`` of a 1-D scan or, on the s = t diagonal,
    t itself."""
    if second is not None:
        n = second.size
        it, ix = np.repeat(np.arange(t.size), n), np.tile(np.arange(n), t.size)
        return {"param1": t[it], "param2": second[ix]}, second, it, ix
    rows = np.arange(t.size)
    x, ix = (t, rows) if entry.angle is None else (np.full(1, entry.angle), np.zeros_like(rows))
    return {"param1": t}, x, rows, ix


def validate_scenario(sc: Scenario) -> None:
    """Check the scenario name, sample count and grids, before anything the size of a grid
    is allocated: the row count against MAX_ROWS and, with Monte Carlo, the sample budget
    and the last row's stream; the qubit factories check their domains on the ends of
    their axes; thm2-bounds checks e and the dimensions."""
    entry = SCENARIOS.get(sc.name)
    if entry is None:
        raise DomainError(f"unknown scenario {sc.name!r}")
    if sc.mc_samples is not None:
        check_integer(sc.mc_samples, "--samples", 1)
    if sc.grid2 is not None and not entry.takes_grid2:
        raise DomainError(f"{sc.name} takes no second grid")
    if sc.mc_samples and entry.measurement is None:
        raise DomainError(f"{sc.name} takes no Monte Carlo samples: it has no instrument")
    rows = sc.grid.steps * (1 if sc.grid2 is None else sc.grid2.steps)
    if rows > MAX_ROWS:
        raise DomainError(f"{sc.name}: {rows} grid rows, over the {MAX_ROWS}-row limit")
    if sc.mc_samples:
        check_budget(sc.mc_samples)
        RngSpec(sc.rng.seed, sc.rng.stream + rows - 1)  # row k draws from stream base + k
    ends = [None if g is None else np.array([g.start, g.stop]) for g in (sc.grid, sc.grid2)]
    try:
        if entry.measurement is not None:
            entry.channel(_axes(entry, *ends)[1])
            entry.measurement(ends[0])
        else:
            _check_range(ends[0], 0.0, 1.0, "e")
            for v in [] if sc.grid2 is None else sc.grid2.values():
                d = min(max(round(v), 2), 8)  # v must lie within the range tolerance of d
                try:
                    _check_range(v, d, d, "d")
                except DomainError:
                    raise DomainError(f"dimension grid value {float(v)!r} is not an integer "
                                      "in [2, 8]") from None
    except DomainError as exc:
        raise DomainError(f"{sc.name}: {exc}") from exc


def _qubit_block(sides, it: np.ndarray, ix: np.ndarray, mc: bool) -> dict:
    """Columns of a block of grid rows, row k pairing measurement it[k] with channel
    ix[k] of ``sides``, each factory's stack on its axis with that side's Theorem 1
    invariants: one stacked spectrum and one stacked Theorem 1, plus each row's
    residuals and, with ``mc``, its success Gram matrix ("gram"), which the Monte Carlo
    stage reads.  The factories checked their stacks, so the rows are not checked again."""
    (coeffs, channel), (elements, element) = sides
    kraus, completeness = kraus_stack(coeffs.take(ix, axis=0), elements.take(it, axis=0))
    spec = spectrum(kraus)
    closed = _thm1_mixed(channel.take(ix, axis=1), element.take(it, axis=1))
    cols = {"E_c": channel[0, :, 0].take(ix), "E_M": element[0, :, 0].take(it),
            "F_standard": spec.f_standard, "P_succ_closed": closed,
            "P_succ_svd": spec.p_succ, "L_max": spec.leakage,
            "tradeoff_lhs": spec.tradeoff, "completeness": completeness,
            "reversal": spec.residual(kraus)}
    if mc:
        cols["gram"] = gram(spec.reversed(kraus))
    return cols


def _qubit_columns(sc: Scenario):
    """Columns of a qubit scenario, BLOCK_ROWS grid rows (param1 outer) at a time.  The
    measurement factory runs once on the primary grid and the channel factory once on
    the channel axis, and each side's Theorem 1 invariants once per axis value.  With
    Monte Carlo, one timed montecarlo._success_rows call then draws every row."""
    entry = SCENARIOS[sc.name]
    t, second = sc.grid.values(), None if sc.grid2 is None else sc.grid2.values()
    cols, x, it, ix = _axes(entry, t, second)
    coeffs, elements = entry.channel(x), entry.measurement(t)
    # the channel's invariants repeated for each outcome, so that the closed form
    # reads no broadcast axis (see linalg.product)
    channel = np.repeat(_thm1_side(coeffs, coeffs)[..., None], elements.shape[1], axis=-1)
    sides = (coeffs, channel), (elements, _thm1_side(elements, elements.swapaxes(-1, -2)))
    n = sc.mc_samples
    blocks = [_qubit_block(sides, it[lo:lo + BLOCK_ROWS], ix[lo:lo + BLOCK_ROWS], bool(n))
              for lo in range(0, it.size, BLOCK_ROWS)]
    cols.update((k, np.concatenate([b[k] for b in blocks])) for k in blocks[0])
    if n:
        t0 = time.perf_counter()
        est, cols["mc_threads"] = _success_rows(cols.pop("gram"), n, sc.rng)
        cols["mc_s"] = time.perf_counter() - t0
        cols["P_succ_mc"], cols["P_succ_mc_stderr"] = np.array(
            [(e.mean, e.std_error) for e in est]).T
    cols["F_mr"] = np.ones(it.size)
    return cols, float(np.max(cols.pop("completeness"))), float(np.max(cols.pop("reversal")))


def _thm2_columns(sc: Scenario):
    cols, dims, _, ix = _axes(SCENARIOS[sc.name], sc.grid.values(), np.round(sc.grid2.values()))
    e, d = _check_range(cols["param1"], 0.0, 1.0, "e"), dims[ix]  # clipped onto [0, 1]
    cols.update(E_c=np.ones(e.size), E_M=e, thm2_lower=d * solve_tr(d, e), thm2_upper=e)
    return cols, 0.0, 0.0


def _cells(cols, n: int):
    """Row-major text cells; a column the scenario does not fill is NA."""
    text = [_column_text(cols[c]) if c in cols else ["NA"] * n for c in COLUMNS]
    return list(zip(*text))


def _column_text(values) -> list[str]:
    """``format(v, ".15g")`` of every value, made once per distinct float64
    bit pattern, all in one ``%`` call, and shared by the cells that hold it:
    keyed on bits, -0.0 still prints -0 and a NaN merges with nothing but its
    own bits."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = ("%.15g\n" * keys.size % tuple(keys.view(np.float64).tolist())).split("\n")
    return np.array(text, dtype=object)[inverse].tolist()


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, so ``path`` holds
    either its previous content or all of ``text``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only if the write or rename failed


def run(sc: Scenario, out_dir, fmt: str = "csv") -> RunResult:
    """Evaluate a scenario and write its data file plus run manifest."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown output format {fmt!r}")
    entry = SCENARIOS.get(sc.name)
    if entry is not None and sc.grid2 is None and entry.measurement is None:
        sc = replace(sc, grid2=entry.grid2)  # thm2-bounds runs its default dimensions
    validate_scenario(sc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    columns = _qubit_columns if entry.measurement is not None else _thm2_columns
    cols, comp_max, rev_max = columns(sc)
    n_rows = len(cols["param1"])
    mc_s, mc_threads = cols.pop("mc_s", 0.0), cols.pop("mc_threads", None)
    t1 = time.perf_counter()
    cells = _cells(cols, n_rows)
    data_path = out / f"{sc.name}.{fmt}"
    text = ("\n".join([",".join(COLUMNS)] + [",".join(r) for r in cells]) if fmt == "csv"
            else json.dumps({"columns": COLUMNS, "rows": cells}, indent=2)) + "\n"
    t2 = time.perf_counter()
    # A crash from here on must not leave new data beside the previous run's
    # manifest: drop that manifest first and write the new one last.
    manifest_path = out / f"{sc.name}_manifest.json"
    manifest_path.unlink(missing_ok=True)
    _write_atomic(data_path, text)
    t3 = time.perf_counter()

    residual_ok = rev_max <= REVERSAL_GATE  # kraus_stack refused any incomplete instrument
    manifest = {
        "scenario": sc.name,
        "grid": asdict(sc.grid),
        "grid2": None if sc.grid2 is None else asdict(sc.grid2),
        "samples": sc.mc_samples,
        "seed": sc.rng.seed,
        "stream_base": sc.rng.stream,
        "generator": "philox4x64",
        "format": fmt,
        "version": __version__,
        "rows": n_rows,
        "columns": COLUMNS,
        "wall_time_s": t1 - t0,
        "phase_times_s": {"rows": t1 - t0, "mc": mc_s, "format": t2 - t1, "write": t3 - t2},
        "mc_threads": mc_threads,
        "residuals": {"completeness_max": comp_max, "reversal_max": rev_max},
        "residual_ok": residual_ok,
        "data_file": data_path.name,
    }
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return RunResult(data_path=data_path, manifest_path=manifest_path,
                     rows=n_rows, completeness_max=comp_max,
                     reversal_max=rev_max, residual_ok=residual_ok)
