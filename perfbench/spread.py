"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

Each workload of BENCHMARK.json runs ``--runs`` times, one seed after the
other, with the declared ``run_seconds``.  For every end-to-end metric the
script prints the median and the quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them, against the metric's bound.
It exits non-zero if any run fails or any spread but ``setup_s``'s exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--trace", action="store_true",
                   help="also make one traced run per workload")
    p.add_argument("--out", help="write every value and the summary as JSON")
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    status = 0
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        entry = report["workloads"][name] = {"seeds": [], "values": values}
        for k in range(args.runs):
            seed = args.first_seed + k
            result, env = _run(spec, name, seed, 0)
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: run failed or incorrect", file=sys.stderr)
                status = 1
                continue
            entry["seeds"].append(seed)
            entry["env"] = env
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
        entry["summary"] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["summary"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "bound": m["bound"]}
            flag = "ok" if spread <= m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            if spread > m["bound"] and m["name"] != "setup_s":
                status = 1
            print(f"{name:15s} {m['name']:12s} median {med:12.6g} {m['unit']:7s} "
                  f"spread {spread:7.4f} (bound {m['bound']}) {flag}", flush=True)
        if args.trace:
            result, _ = _run(spec, name, args.first_seed, 1)
            entry["trace"] = None if result is None else {
                k: v["value"] for k, v in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


def _run(spec, name, seed, trace):
    cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(l[5:]) for l in lines if l.startswith("env: ")), None)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, env
    return json.loads(lines[-1]), env


if __name__ == "__main__":
    raise SystemExit(main())
