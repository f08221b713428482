#!/usr/bin/env python3
"""Run every desk-scale scan in tests/goldens/desk.json and drop the data under ./out.

The table holds each run's name, output subdirectory and full argv, seed
included: seven runs of figure data (every scenario, and xx-scan once more as a
2-D surface under surface/), then four runs that CI checks too (zz-scan and a
37 x 53 ejm-aligned-scan written as JSON, thm2-bounds over d = 2..8, and a
101 x 101 ejm-aligned-scan of 16 samples a row).  tests/goldens/desk.sha256
holds the digest of each data file that writes the same bytes on every SIMD
dispatch; check a run against it with

    cd out && sha256sum -c ../tests/goldens/desk.sha256

All eleven runs take about 1.7 s of wall time (their exit lines summed to
1.66-1.74 s over ten runs, the seven scenario rows 0.99-1.10 s, on a shared
2-vCPU x86-64 host, numpy 2.4.6, whose speed varies by about a third from day
to day), almost all of it in the three Monte Carlo scans, whose rows share the
CPUs; pass an output directory to override ./out.
The CSVs feed any external plotter; see the column schema in the README.
Each run's exit line also gives its end-to-end wall time (CLI call, rows,
formatting and writing), and the line below it the phase times from its
manifest: rows (Monte Carlo included), mc, format and write, then its worst
completeness and reversal residuals, each beside the manifest tolerance it must
stay within (unit and reversal_gate), or "not checked" where the manifest holds
null: thm2-bounds evaluates Theorem 2's formula and builds no instrument.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from telerev.cli import main

DESK = Path(__file__).resolve().parent.parent / "tests" / "goldens" / "desk.json"


def run_all(out_dir: str) -> int:
    worst = 0
    for row in json.loads(DESK.read_text()):
        target = Path(out_dir, row["dir"])
        t0 = time.perf_counter()
        code = main(row["argv"] + ["--out", str(target)])
        print(f"{row['name']}: exit {code}, {time.perf_counter() - t0:.3f} s")
        manifest = target / f"{row['argv'][1]}_manifest.json"
        if code != 2 and manifest.exists():  # exit 2 may leave no manifest, or an old one
            record = json.loads(manifest.read_text())
            phases, tols, res = record["phase_times_s"], record["tolerances"], record["residuals"]
            print("  phases: " + ", ".join(f"{k} {phases[k]:.3f} s"
                                           for k in ("rows", "mc", "format", "write"))
                  + "; " + ", ".join(f"{k} not checked" if res[k] is None
                                     else f"{k} {res[k]:.2e} ({tol} {tols[tol]:g})"
                                     for k, tol in (("completeness_max", "unit"),
                                                    ("reversal_max", "reversal_gate"))))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(run_all(sys.argv[1] if len(sys.argv) > 1 else "out"))
