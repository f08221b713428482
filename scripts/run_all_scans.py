#!/usr/bin/env python3
"""Run every pinned CLI run of tests/goldens/runs.json, or check or rewrite its goldens.

The table holds each run's name, output subdirectory and full argv, seed included:
seven runs of figure data (every scenario, and xx-scan once more as a 2-D surface),
four that CI checks too (zz-scan and a 37 x 53 ejm-aligned-scan written as JSON,
thm2-bounds over d = 2..8, a 101 x 101 ejm-aligned-scan of 16 samples a row), and
six small runs marked "golden", one a scenario, whose CSVs are committed beside it.
Each run goes through the CLI entry point, and the CLI's own option merge
(``telerev.cli.resolve``) names the files it writes.  From the repository root:

    python3 scripts/run_all_scans.py [out]                  # every run, into out/<dir>
    python3 scripts/run_all_scans.py --goldens check [dir]  # report golden drift only
    python3 scripts/run_all_scans.py --goldens write [dir]  # rewrite the golden CSVs

By default each run's exit line gives its end-to-end wall time, and the line below
it the phase times from its manifest (rows, Monte Carlo included, mc, format and
write), then its worst completeness and reversal residuals beside the manifest
tolerance each must stay within (unit and reversal_gate), or "not checked" where
the manifest holds null (thm2-bounds builds no instrument).  tests/goldens/desk.sha256
digests each desk data file that writes the same bytes on every SIMD dispatch:

    cd out && sha256sum -c ../tests/goldens/desk.sha256

The eleven desk runs took 2.2-2.6 s of wall time over three runs (their exit lines
summed, on a shared 2-vCPU x86-64 host with numpy 2.4.6, whose speed varies by about
a third from day to day), almost all of it in the three Monte Carlo scans; the six
golden runs took 22-23 ms.

``--goldens`` runs only the golden rows, into a temporary directory.  ``check``
prints, per golden file and column, how many cells' text changed against the CSV
committed in ``dir`` (default tests/goldens) and the largest absolute change; it
exits 0 unless a CLI run fails.  ``write`` copies the new CSVs over the committed
ones: run it after an intentional change to the scenario engine, and review the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import tempfile
import time
from pathlib import Path

from telerev.cli import main, resolve

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"

# The columns the golden tests compare bit for bit (tests/helpers.py).
MC_COLUMNS = ("P_succ_mc", "P_succ_mc_stderr")


def _runs() -> list[dict]:
    return json.loads((GOLDEN_DIR / "runs.json").read_text())


def run_all(out_dir: str) -> int:
    """Every run of the table into ``out_dir``/<dir>; the worst exit code."""
    worst = 0
    for row in _runs():
        argv = row["argv"] + ["--out", str(Path(out_dir, row["dir"]))]
        t0 = time.perf_counter()
        code = main(argv)
        print(f"{row['name']}: exit {code}, {time.perf_counter() - t0:.3f} s")
        if code != 2:  # exit 2 may leave no manifest, or an old one
            scenario, out, _ = resolve(argv)
            record = json.loads(Path(out, f"{scenario.name}_manifest.json").read_text())
            phases, tols, res = record["phase_times_s"], record["tolerances"], record["residuals"]
            print("  phases: " + ", ".join(f"{k} {phases[k]:.3f} s"
                                           for k in ("rows", "mc", "format", "write"))
                  + "; " + ", ".join(f"{k} not checked" if res[k] is None
                                     else f"{k} {res[k]:.2e} ({tol} {tols[tol]:g})"
                                     for k, tol in (("completeness_max", "unit"),
                                                    ("reversal_max", "reversal_gate"))))
        worst = max(worst, code)
    return worst


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _column_changes(new: list[dict], old: list[dict], column: str) -> str:
    """The count of cells of one column whose text changed, and the largest
    absolute change among them."""
    worst, changed, na = 0.0, 0, 0
    for a, b in zip(new, old):
        x, y = a[column], b[column]
        changed += x != y
        if "NA" in (x, y):
            na += x != y
        else:
            worst = max(worst, abs(float(x) - float(y)))
    kind = "MC, bit-exact" if column in MC_COLUMNS else "analytic"
    line = (f"  {column:<18} {kind:<13} {changed:>3} of {len(new)} cells changed, "
            f"max |change| {worst:.3g}")
    return line + (f", {na} NA cells differ" if na else "")


def _report(new_path: Path, old_path: Path) -> None:
    new, old = _rows(new_path), _rows(old_path)
    columns = list(new[0]) if new else []
    print(f"{new_path.name}: {len(new)} rows against {len(old)} committed")
    if not old or columns != list(old[0]) or len(new) != len(old):
        print("  header or row count differs: no cell comparison")
        return
    for column in columns:
        if any(a[column] != "NA" or b[column] != "NA" for a, b in zip(new, old)):
            print(_column_changes(new, old, column))


def goldens(mode: str, golden_dir: Path) -> None:
    """Run the golden rows into a temporary directory, then report each CSV's drift
    against ``golden_dir`` (``check``) or copy it there (``write``)."""
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for row in (row for row in _runs() if row.get("golden")):
            argv = row["argv"] + ["--out", str(Path(tmp, row["dir"]))]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{row['name']}: CLI returned {code}")
            scenario, out, fmt = resolve(argv)
            written.append(Path(out, f"{scenario.name}.{fmt}"))
        for path in written:
            if mode == "check":
                _report(path, golden_dir / path.name)
            else:
                golden_dir.mkdir(parents=True, exist_ok=True)
                shutil.copy(path, golden_dir / path.name)
                print(f"wrote {golden_dir / path.name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--goldens", choices=("check", "write"),
                        help="run only the golden rows and report (check) or rewrite (write) "
                             "their committed CSVs")
    parser.add_argument("dir", nargs="?", type=Path,
                        help="output directory (default out), or with --goldens the "
                             "golden directory (default tests/goldens)")
    args = parser.parse_args()
    if args.goldens:
        goldens(args.goldens, args.dir or GOLDEN_DIR)
    else:
        raise SystemExit(run_all(args.dir or "out"))
