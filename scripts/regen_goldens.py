#!/usr/bin/env python3
"""Regenerate the golden CSVs under tests/goldens/, or report how far a
regeneration would move them.

Each run in tests/goldens/invocations.json, the table the golden tests read,
goes through the real CLI entry point with its pinned seed and grid; the
resulting CSVs plus that table are the regression reference.  Run from the
repository root after any intentional change to the scenario engine, and
review the diff before committing:

    python3 scripts/regen_goldens.py [dir]          # rewrite the goldens
    python3 scripts/regen_goldens.py --check [dir]  # report only, write nothing

``--check`` regenerates into a temporary directory and prints, for each file
and column, the number of cells whose text changed against the committed
golden and the largest absolute change.  It exits
0 whatever the changes are; only a failing CLI run makes it exit non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

from telerev.cli import main

INVOCATIONS = Path(__file__).resolve().parent.parent / "tests" / "goldens" / "invocations.json"

# The columns the golden tests compare bit for bit (tests/helpers.py).
MC_COLUMNS = ("P_succ_mc", "P_succ_mc_stderr")


def _runs() -> list[dict]:
    """The golden runs, each a name and its CLI arguments, as the tests read them."""
    return json.loads(INVOCATIONS.read_text())


def _run_all(runs: list[dict], out: str) -> None:
    for run in runs:
        code = main(run["argv"] + ["--out", out])
        if code != 0:
            raise SystemExit(f"{run['name']}: CLI returned {code}")


def regenerate(golden_dir: Path) -> None:
    runs = _runs()
    golden_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _run_all(runs, tmp)
        for run in runs:
            name = run["name"]
            shutil.copy(Path(tmp) / f"{name}.csv", golden_dir / f"{name}.csv")
            print(f"wrote {golden_dir / (name + '.csv')}")
    (golden_dir / "invocations.json").write_text(json.dumps(runs, indent=2) + "\n")
    print(f"wrote {golden_dir / 'invocations.json'}")


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
    line = f"  {column:<18} {kind:<13} {changed:>3} of {len(new)} cells changed, max |change| {worst:.3g}"
    return line + (f", {na} NA cells differ" if na else "")


def check(golden_dir: Path) -> None:
    runs = _runs()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            _run_all(runs, tmp)
        for name in (run["name"] for run in runs):
            new, old = _rows(Path(tmp) / f"{name}.csv"), _rows(golden_dir / f"{name}.csv")
            columns = list(new[0]) if new else []
            print(f"{name}.csv: {len(new)} rows against {len(old)} committed")
            if not old or columns != list(old[0]) or len(new) != len(old):
                print("  header or row count differs: no cell comparison")
                continue
            for column in columns:
                if any(a[column] != "NA" or b[column] != "NA" for a, b in zip(new, old)):
                    print(_column_changes(new, old, column))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and report the changes")
    parser.add_argument("dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "tests" / "goldens")
    args = parser.parse_args()
    check(args.dir) if args.check else regenerate(args.dir)
