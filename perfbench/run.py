"""Layered benchmark of telerev.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surface-zz --seed 20240101 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One process, one client, sequential passes (a closed loop), BLAS pinned to one
thread.  Pass times are speed-corrected for the host's load (see speed.py).  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` interleaves untraced and traced passes and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed

DEFAULT_SEED = 20240101
HOLDOUT_SEED = 7919   # a later speed-up claim must also hold on this seed
MIN_PASSES = 3        # per timed series, however short --seconds is
SETUP_RUNS = 9
SETUP_CODE = ("import telerev as tv; "
              "tv.build_instrument(tv.max_entangled(2), tv.bell_basis())")
WORKLOAD_NAMES = ("surface-zz", "mc-curve", "qudit-sandwich")

ROOT = Path.cwd()
SRC = ROOT / "src"


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _blas_threads(np):
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def fingerprint(np, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "git": _git_revision(),
            "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def measure_setup():
    """(raw, corrected) seconds for a fresh process to import telerev and
    build an instrument, corrected by reference runs just before and after.

    Start-up is mostly import work whose speed the reference tracks poorly
    from one set-up to the next (corrected figures spread 31%, raw 22%), but
    well over minutes: as the host slowed, the raw medians of ten-run sets
    rose 27-53% while the corrected ones stayed within 0.165-0.206 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    refs = [speed.reference() for _ in range(3)]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    wall = time.perf_counter() - t0
    refs += [speed.reference() for _ in range(3)]
    return wall, speed.correct(wall, refs)


class Tally:
    """Correctness over every pass: records attempted and records failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.self_check = None

    def add(self, output):
        records = self.workload.parse(output)
        attempted, failed = self.workload.check(records)
        self.attempted += attempted
        self.failed += failed
        if self.self_check is None and failed == 0:
            # the first clean pass, with one value broken, must fail exactly once
            self.self_check = self.workload.check(self.workload.corrupt(records))[1] == 1


def end_to_end(workload, tally, seconds):
    """End-to-end metrics over the passes of the window.

    The SETUP_RUNS set-up measurements are spread over the window, so that
    they see the same changes in host speed as the passes."""
    walls, setup = [], []
    start = time.perf_counter()
    while (len(walls) < MIN_PASSES or len(setup) < SETUP_RUNS
           or time.perf_counter() < start + seconds):
        with speed.Sampler() as sampler:
            output = workload.run()
        walls.append((sampler.wall, sampler.corrected))
        tally.add(output)
        while (len(setup) < SETUP_RUNS
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS):
            setup.append(measure_setup())
    wall = statistics.median(c for _, c in walls)
    rows = tally.attempted / len(walls)
    print(f"passes: {len(walls)} of {rows:g} {workload.unit}, set-ups: {len(setup)}; "
          f"uncorrected medians: wall {statistics.median(w for w, _ in walls):.6g} s, "
          f"setup {statistics.median(w for w, _ in setup):.6g} s")
    return {"wall_s": (wall, "s"),
            "rows_per_s": (rows / wall, f"{workload.unit}/s"),
            "setup_s": (statistics.median(c for _, c in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}


def traced(workload, tally, seconds, seed, out_dir):
    """Per-layer metrics from traced passes, each after an untraced one."""
    resolved = layers.resolve_layers()
    tracer = layers.Tracer(resolved)
    plain, traced_walls, traced_raw = [], [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
        with speed.Sampler() as sampler:
            output = workload.run()
        plain.append(sampler.corrected)
        tally.add(output)
        with tracer, speed.Sampler(on_sample=tracer.pause) as sampler:
            output = workload.run()
        traced_walls.append(sampler.corrected)
        traced_raw.append(sampler.wall)
        tally.add(output)

    from telerev import instrument
    cases = []
    for channel, jm in workload.probe_cases():
        inst = instrument.build_instrument(channel, jm)
        cases.append((channel, jm, inst, instrument.optimal_reversal(inst)))

    metrics, probed, order = {}, [], []
    for group in list(tracer.stats) + [g for g in layers.LAYERS if g not in tracer.stats]:
        rec = tracer.stats.get(group)
        if rec is None:
            metrics.update(layers.probe(resolved, group, cases, seed, out_dir))
            probed.append(group)
        else:
            metrics.update(layers.group_metrics(group, rec, len(traced_walls)))
        order.append(group)
    # linalg per-call figures come from the kernel probe: wrapper and raw
    # numpy timed on the same matrices, without tracer overhead
    metrics.update(layers.kernel_probe(cases))
    attributed = sum(rec.self_s for rec in tracer.stats.values())
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain), "ratio")
    metrics["trace.unattributed_share"] = (1.0 - attributed / sum(traced_raw), "ratio")
    print(f"layer call order: {' -> '.join(order)}")
    print(f"probed (not called by this workload's passes): {', '.join(probed) or 'none'}")
    print(f"passes: {len(plain)} untraced, {len(traced_walls)} traced")
    return metrics


def run_one(args):
    if not (SRC / "telerev" / "__init__.py").is_file():
        _fail(f"no telerev sources under {SRC}; run from the root of a checkout")
    declared = _declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import telerev
    if Path(telerev.__file__).resolve().parent != (SRC / "telerev").resolve():
        _fail(f"imported telerev from {telerev.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    print("env: " + json.dumps(fingerprint(np, args), sort_keys=True))
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        workload.warmup()
        tally = Tally(workload)
        if not args.trace:
            metrics = end_to_end(workload, tally, args.seconds)
        else:
            try:
                metrics = traced(workload, tally, args.seconds, args.seed, out_dir)
            except layers.LayerMissing as exc:
                _fail(str(exc))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            out_dir.parent.rmdir()

    correct = tally.failed == 0 and tally.self_check is True
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  check_fail_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} {workload.unit})")
    print(f"{args.workload}  self-check (a corrupted value is counted as a failure): "
          f"{ {True: 'ok', False: 'FAILED', None: 'not run, no pass was clean'}[tally.self_check]}")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        _fail(f"BENCHMARK.json declares metrics this run did not produce: {missing}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name][0], "unit": unit}
                                  for name, unit in declared.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; prints their metrics and a summary."""
    status, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if proc.returncode not in (0, 1) or result is None:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
