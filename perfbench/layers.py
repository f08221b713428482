"""Per-layer tracing of telerev from outside the library.

The tracer replaces each public function named in ``LAYERS`` by a timing
wrapper, in every ``telerev`` module namespace that binds it, so calls that
one module makes into another are seen wherever the caller imported the name
from.  Each group of functions is one span kind; a call into a group from
inside the same group folds into the outer span, so a metrics call that
computes another metric counts once.  A span's self time is its duration
minus the time of the spans it caused.

``src/`` is never modified: the wrappers live only in this process and are
removed after each traced pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# span group -> (module, public functions).  Renaming or removing any of these
# functions makes the traced run fail, so a refactor cannot drop a layer
# silently; it has to update this table.
LAYERS = {
    "scenarios.run": ("scenarios", ("run",)),
    "qstate.factory": ("qstate", ("max_entangled", "schmidt_channel", "ejm_channel")),
    "qstate.concurrence": ("qstate", ("concurrence", "g_concurrence")),
    "jointmeas.factory": ("jointmeas", ("bell_basis", "xx_deformed", "ejm", "zx_zz")),
    "jointmeas.entanglement": ("jointmeas", ("element_entanglement",)),
    "linalg.svd": ("linalg", ("svd",)),
    "instrument.build": ("instrument", ("build_instrument",)),
    "instrument.reversal": ("instrument", ("optimal_reversal",)),
    "instrument.metrics": ("instrument", ("success_probability", "leakage_max",
                                          "standard_fidelity", "tradeoff_lhs",
                                          "performance_report")),
    "instrument.residuals": ("instrument", ("completeness_residual", "reversal_residual")),
    "theorems.random_basis": ("theorems", ("random_basis",)),
    "theorems.thm2_bounds": ("theorems", ("thm2_bounds",)),
    "montecarlo.estimate": ("montecarlo", ("estimate_performance", "estimate_leakage",
                                           "estimate_standard_fidelity")),
}


# A group the passes never call is timed over this many probe calls, so that
# p90 has at least ten calls beyond it; see ``probe``.
PROBE_CALLS = 100
PROBE_SAMPLES = 2000  # Haar samples per probe estimate, the golden-file n
KERNEL_PROBE_CALLS = 2000


def _estimate_digest(args, result, kept):
    """Samples drawn, and bytes of normals drawn for them (n * d * 16)."""
    est = next(iter(result.values())) if isinstance(result, dict) else result
    return est.n, est.n * args[0].d * 16


def _run_digest(args, result, kept):
    """Row-loop seconds from the manifest, and bytes of data file plus manifest.

    The manifest's clock also ran while speed samples were taken; ``kept`` is
    the share of the call that was not paused for them.
    """
    manifest = Path(result.manifest_path)
    wall = json.loads(manifest.read_text())["wall_time_s"] * kept
    return wall, manifest.stat().st_size + Path(result.data_path).stat().st_size


# Groups whose calls are also digested, after the span has ended.  The
# scenario files are read at once because the next pass overwrites them.
DIGEST = {"montecarlo.estimate": _estimate_digest, "scenarios.run": _run_digest}


class LayerMissing(RuntimeError):
    """A public function listed in LAYERS no longer exists."""


def resolve_layers():
    """Import every layer module and return {group: [(name, function)]}."""
    found = {}
    for group, (module, names) in LAYERS.items():
        mod = importlib.import_module(f"telerev.{module}")
        fns = []
        for name in names:
            fn = getattr(mod, name, None)
            if not callable(fn):
                raise LayerMissing(f"telerev.{module}.{name} (layer {group}) is missing; "
                                   f"update perfbench/layers.py LAYERS")
            fns.append((name, fn))
        found[group] = fns
    return found


class GroupStats:
    __slots__ = ("durations", "self_s", "digests")

    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0
        self.digests: list[tuple] = []


class Tracer:
    """Installs timing wrappers while active; keeps spans' statistics."""

    def __init__(self, layers):
        self.stats: dict[str, GroupStats] = {}  # in first-call order
        self._stack: list[list] = []
        self._paused = [0.0]
        self._patches: list[tuple] = []
        self._wrappers = {fn: self._wrap(group, fn)
                          for group, fns in layers.items() for _, fn in fns}

    def _wrap(self, group, fn):
        stack = self._stack
        stats = self.stats
        paused = self._paused
        digest = DIGEST.get(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            rec = stats.get(group)
            if rec is None:
                rec = stats[group] = GroupStats()
            frame = [group, 0.0]
            stack.append(frame)
            p0 = paused[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                raw = clock() - t0
                dt = raw - (paused[0] - p0)
                stack.pop()
                rec.durations.append(dt)
                rec.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if digest is not None:
                rec.digests.append(digest(args, result, dt / raw))
            return result

        return wrapper

    def pause(self, seconds):
        """Leave ``seconds`` spent outside the program (speed samples) out of
        every open span."""
        self._paused[0] += seconds

    def __enter__(self):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "telerev" or name.startswith("telerev.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        self._stack.clear()
        return False


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 \
        else values[0]


def group_metrics(group, rec, rounds):
    """Metrics of one span group; ``rounds`` is the passes (or probe rounds) it covers."""
    if group == "scenarios.run":
        rows = [wall for wall, _ in rec.digests]
        out = {"scenarios.rows_s": (statistics.median(rows), "s"),
               "scenarios.emit_s": (statistics.median(
                   d - wall for d, wall in zip(rec.durations, rows)), "s"),
               "scenarios.bytes_written": (statistics.median(
                   size for _, size in rec.digests), "bytes")}
    else:
        ms = group == "montecarlo.estimate"
        scale, unit, suffix = (1e3, "ms", "_ms") if ms else (1e6, "us", "_us")
        durs = [d * scale for d in rec.durations]
        out = {group + suffix: (statistics.median(durs), unit),
               group + "_p90": (_p90(durs), unit)}
        if ms:
            out["montecarlo.samples_per_s"] = (
                sum(n for n, _ in rec.digests) / sum(rec.durations), "1/s")
            out["montecarlo.bytes_drawn"] = (
                statistics.fmean(b for _, b in rec.digests), "bytes")
    out[group + ".calls"] = (len(rec.durations) / rounds, "count")
    out[group + ".self_s"] = (rec.self_s / rounds, "s")
    return out


def probe(layers, group, cases, seed, out_dir):
    """Time PROBE_CALLS calls of a group the workload's passes never made.

    The calls use the workload's own channels, measurements and instruments
    (``cases``: (channel, measurement, instrument, plan) tuples), so the
    figure says what this layer would cost on these inputs.
    """
    import numpy as np
    from telerev import (instrument, jointmeas, linalg, montecarlo, qstate,
                         scenarios, theorems)
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))

    def call(k):
        ch, jm, inst, plan = cases[k % len(cases)]
        d = inst.d
        if group == "qstate.factory":
            return qstate.max_entangled(d)
        if group == "qstate.concurrence":
            return qstate.concurrence(ch) if d == 2 else qstate.g_concurrence(ch)
        if group == "jointmeas.factory":
            return jointmeas.bell_basis()
        if group == "jointmeas.entanglement":
            return jointmeas.element_entanglement(jm, k % (d * d))
        if group == "linalg.svd":
            return linalg.svd(inst.kraus[k % (d * d)])
        if group == "instrument.build":
            return instrument.build_instrument(ch, jm)
        if group == "instrument.reversal":
            return instrument.optimal_reversal(inst)
        if group == "instrument.metrics":
            return instrument.performance_report(inst, plan)
        if group == "instrument.residuals":
            return instrument.reversal_residual(inst, plan)
        if group == "theorems.random_basis":
            return theorems.random_basis(d, rng)
        if group == "theorems.thm2_bounds":
            return theorems.thm2_bounds(d, entanglements[k % len(cases)])
        if group == "montecarlo.estimate":
            return montecarlo.estimate_performance(
                inst, plan, PROBE_SAMPLES, montecarlo.RngSpec(seed, k))
        if group == "scenarios.run":
            grid, grid2 = scenarios.DEFAULT_GRIDS["thm2-bounds"]
            return scenarios.run(scenarios.Scenario("thm2-bounds", grid, grid2),
                                 out_dir)
        raise LayerMissing(f"no probe for layer {group}")

    entanglements = [[jointmeas.element_entanglement(jm, r) for r in range(len(jm.elements))]
                     for _, jm, _, _ in cases]
    tracer = Tracer(layers)
    with tracer:
        for k in range(PROBE_CALLS):
            call(k)
    return group_metrics(group, tracer.stats[group], 1)


def kernel_probe(cases):
    """Per-call time of ``linalg.svd`` and of raw ``np.linalg.svd`` on the
    workload's own Kraus operators, interleaved so both see the same load."""
    import numpy as np
    from telerev.linalg import svd
    mats = [m for _, _, inst, _ in cases for m in inst.kraus]
    wrapped, raw = [], []
    clock = time.perf_counter
    for k in range(KERNEL_PROBE_CALLS):
        m = mats[k % len(mats)]
        t0 = clock()
        svd(m)
        t1 = clock()
        np.linalg.svd(m)
        t2 = clock()
        wrapped.append((t1 - t0) * 1e6)
        raw.append((t2 - t1) * 1e6)
    return {"linalg.svd_us": (statistics.median(wrapped), "us"),
            "linalg.svd_p90": (_p90(wrapped), "us"),
            "linalg.np_svd_us": (statistics.median(raw), "us"),
            "linalg.np_svd_p90": (_p90(raw), "us"),
            "linalg.kraus_per_row": (statistics.fmean(len(inst.kraus)
                                                      for _, _, inst, _ in cases), "count")}
