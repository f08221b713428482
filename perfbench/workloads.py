"""The benchmark's three workloads, each with its correctness check.

A workload runs one *pass* (timed), then ``parse`` turns the pass's output
into records and ``check`` counts the records that fail (untimed).
``corrupt`` returns the records with one value broken, so every run can show
that its check catches a bad value.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
from telerev import cli, instrument, jointmeas, montecarlo, qstate, theorems

MAX_ENTANGLED_PHI = math.pi / 4
SVD_TOL = 1e-9        # closed form vs SVD oracle, as the acceptance gates pin it
MC_SIGMAS = 5.0       # Monte Carlo gate, in standard errors
MC_FLOOR = 1e-12      # rows whose estimator has zero variance (every EJM row
                      # here) would otherwise be judged on float rounding
BOUND_TOL = 1e-9      # Theorem 2 sandwich and reversal residual


def _cli_pass(argv, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", str(out_dir)])


def _read_csv(out_dir, name):
    with open(Path(out_dir) / f"{name}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class SurfaceZZ:
    """zz-scan over a 51 x 51 grid through ``cli.main``: CSV output, no MC.

    The phi = pi/4, t = 0 corner is the Bell basis (sigma_1 = sigma_2) and the
    phi = 0 column is rank-deficient, the hard cases for any batched or
    closed-form 2 x 2 spectrum.
    """

    name = "surface-zz"
    unit = "rows"
    T_STOP = 1.3  # below the zz-scan limit sqrt(3) pi / 4
    STEPS = 51

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.argv = ["--scenario", "zz-scan", "--grid", f"0:{self.T_STOP!r}:{self.STEPS}",
                     "--grid2", f"0:{MAX_ENTANGLED_PHI!r}:{self.STEPS}",
                     "--format", "csv", "--seed", str(seed)]

    def warmup(self):
        _cli_pass(["--scenario", "zz-scan", "--grid", "0:1:3", "--grid2", "0:0.5:3"],
                  self.out_dir)

    def run(self):
        return _cli_pass(self.argv, self.out_dir)

    def parse(self, code):
        if code != 0:
            return code, []
        return code, [(float(r["P_succ_closed"]), float(r["P_succ_svd"]))
                      for r in _read_csv(self.out_dir, "zz-scan")]

    def check(self, records):
        code, rows = records
        expected = self.STEPS * self.STEPS
        if code != 0 or len(rows) != expected:
            return expected, expected
        return expected, sum(not abs(closed - svd) <= SVD_TOL for closed, svd in rows)

    def corrupt(self, records):
        code, rows = records
        closed, svd = rows[0]
        return code, [(closed, svd + 10 * SVD_TOL)] + rows[1:]

    def probe_cases(self):
        ts = np.linspace(0.0, self.T_STOP, self.STEPS)[::5]
        phis = np.linspace(0.0, MAX_ENTANGLED_PHI, self.STEPS)[::5]
        return [(qstate.schmidt_channel(float(phi), "y"), jointmeas.zx_zz(float(t)))
                for t in ts for phi in phis]


class McCurve:
    """ejm-scan (1D) through ``cli.main`` with 1e5 Haar samples per row.

    Monte Carlo is nearly all of the time, so this is where MC memory and
    streaming show, and where a faster analytic engine should not.
    """

    name = "mc-curve"
    unit = "rows"
    STEPS = 21
    SAMPLES = 100_000

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.argv = ["--scenario", "ejm-scan", "--grid", f"0:{math.pi / 2!r}:{self.STEPS}",
                     "--samples", str(self.SAMPLES), "--seed", str(seed)]

    def warmup(self):
        _cli_pass(["--scenario", "ejm-scan", "--grid", "0:1:2", "--samples", "1000"],
                  self.out_dir)

    def run(self):
        return _cli_pass(self.argv, self.out_dir)

    def parse(self, code):
        if code != 0:
            return code, []
        return code, [(float(r["P_succ_closed"]), float(r["P_succ_mc"]),
                       float(r["P_succ_mc_stderr"]))
                      for r in _read_csv(self.out_dir, "ejm-scan")]

    def check(self, records):
        code, rows = records
        if code != 0 or len(rows) != self.STEPS:
            return self.STEPS, self.STEPS
        return self.STEPS, sum(not abs(mc - closed) <= MC_SIGMAS * se + MC_FLOOR
                               for closed, mc, se in rows)

    def corrupt(self, records):
        code, rows = records
        closed, mc, se = rows[0]
        return code, [(closed, mc + 10 * (MC_SIGMAS * se + MC_FLOOR), se)] + rows[1:]

    def probe_cases(self):
        return [(qstate.max_entangled(2), jointmeas.ejm(float(t)))
                for t in np.linspace(0.0, math.pi / 2, self.STEPS)]


class QuditSandwich:
    """Library path over seeded Haar-random bases for d in {3, 4, 8}.

    d^2 outcomes of d x d matrices and no file output: it bypasses any
    qubit-only fast path and is the only workload that runs ``theorems``.
    """

    name = "qudit-sandwich"
    unit = "bases"
    DIMS = (3, 4, 8)
    BASES_PER_DIM = 16

    def __init__(self, seed, out_dir):
        self.seed = seed

    def _bases(self, d, count):
        rng = montecarlo.RngSpec(self.seed, d).generator()
        return [theorems.random_basis(d, rng) for _ in range(count)]

    def _one(self, d, jm):
        channel = qstate.max_entangled(d)
        inst = instrument.build_instrument(channel, jm)
        plan = instrument.optimal_reversal(inst)
        report = instrument.performance_report(inst, plan)
        es = [jointmeas.element_entanglement(jm, r) for r in range(d * d)]
        bounds = theorems.thm2_bounds(d, es)
        return (bounds.lower, report.p_succ_max, bounds.upper,
                instrument.reversal_residual(inst, plan))

    def warmup(self):
        for d in self.DIMS:
            self._one(d, self._bases(d, 1)[0])

    def run(self):
        return [self._one(d, jm) for d in self.DIMS
                for jm in self._bases(d, self.BASES_PER_DIM)]

    def parse(self, results):
        return results

    def check(self, records):
        return len(records), sum(
            not (lower - BOUND_TOL <= p <= upper + BOUND_TOL and residual <= BOUND_TOL)
            for lower, p, upper, residual in records)

    def corrupt(self, records):
        lower, p, upper, residual = records[0]
        return [(lower, upper + 10 * BOUND_TOL, upper, residual)] + records[1:]

    def probe_cases(self):
        return [(qstate.max_entangled(d), jm) for d in self.DIMS for jm in self._bases(d, 2)]


WORKLOADS = {w.name: w for w in (SurfaceZZ, McCurve, QuditSandwich)}
