#!/usr/bin/env python3
"""Run every scenario at desk scale and drop the figure data under ./out.

All seven runs take about 3.1 s of wall time (3.10-3.13 s for the whole
script over three runs on a shared 2-vCPU x86-64 host, numpy 2.4.6, whose
speed varies by about a third from day to day), almost all of it in the two
10^5-sample Monte Carlo scans; pass an output directory to override ./out.
The CSVs feed any external plotter; see the column schema in the README.
Each scenario's exit line also gives its end-to-end wall time (CLI call,
rows, formatting and writing), and the line below it the phase times from its
manifest: rows (Monte Carlo included), mc, format and write.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from telerev.cli import main

PI4 = repr(math.pi / 4)
PI2 = repr(math.pi / 2)

# (subdirectory, argv); the 2D variant of xx-scan goes into its own folder so
# it does not overwrite the 1D fidelity curve.
RUNS = [
    ("", ["--scenario", "xx-scan", "--grid", f"0:{PI4}:101", "--samples", "100000"]),
    ("surface", ["--scenario", "xx-scan", "--grid", f"0:{PI4}:51",
                 "--grid2", f"0:{PI4}:51"]),
    ("", ["--scenario", "ejm-scan", "--grid", f"0:{PI2}:101", "--samples", "100000"]),
    ("", ["--scenario", "ejm-aligned-scan", "--grid", f"0:{PI2}:51",
          "--grid2", f"0:{PI2}:51"]),
    ("", ["--scenario", "zz-scan", "--grid", "0:1.35:51", "--grid2", f"0:{PI4}:51"]),
    ("", ["--scenario", "tradeoff-scan", "--grid", f"0:{PI2}:101"]),
    ("", ["--scenario", "thm2-bounds", "--grid", "0:1:101", "--grid2", "3:4:2"]),
]


def run_all(out_dir: str) -> int:
    worst = 0
    for subdir, argv in RUNS:
        target = f"{out_dir}/{subdir}" if subdir else out_dir
        t0 = time.perf_counter()
        code = main(argv + ["--seed", "20240101", "--out", target])
        print(f"scenario {argv[1]}: exit {code}, {time.perf_counter() - t0:.3f} s")
        manifest = Path(target) / f"{argv[1]}_manifest.json"
        if code != 2 and manifest.exists():  # exit 2 may leave no manifest, or an old one
            phases = json.loads(manifest.read_text())["phase_times_s"]
            print("  phases: " + ", ".join(f"{k} {phases[k]:.3f} s"
                                           for k in ("rows", "mc", "format", "write")))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(run_all(sys.argv[1] if len(sys.argv) > 1 else "out"))
