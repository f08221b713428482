"""Command-line scenario runner.

Flags may be pre-set in a ``key=value`` config file (``--config``); command
line values override the file, which overrides the ``TELEREV_SEED``
environment variable, which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import DomainError
from .montecarlo import RngSpec
from .scenarios import DEFAULT_GRIDS, DEFAULT_SEED, SCENARIOS, GridSpec, Scenario, run

_CONFIG_KEYS = ("scenario", "grid", "grid2", "samples", "seed", "out", "format")


def _parsed(name: str, text, parse):
    """``parse(text)``, its ValueError refused as a DomainError naming ``name`` and ``text``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise DomainError(f"{name} {text!r}: {exc}") from exc


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid {text!r} is not START:STOP:STEPS")
    return GridSpec(*_parsed("grid", text, lambda _: (*map(float, parts[:2]), int(parts[2]))))


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = value
    return cfg


@functools.cache  # one per process: scripts call main many times
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="telerev",
        description="Sweep teleportation scenarios and write CSV/JSON figure data.")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--grid", metavar="START:STOP:STEPS",
                   help="primary parameter grid")
    p.add_argument("--grid2", metavar="START:STOP:STEPS",
                   help="secondary parameter grid (2D scenarios)")
    p.add_argument("--samples", type=int,
                   help="Monte Carlo samples per grid point (omit to skip MC columns)")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--config", help="key=value file pre-setting any flag")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every option from one dict: the defaults, then the config file, then the flags
        given = _read_config(args.config) if args.config else {}
        given.update((k, v) for k, v in vars(args).items() if v is not None)
        opts = {"seed": os.environ.get("TELEREV_SEED", DEFAULT_SEED), "out": "out",
                "format": "csv", **given}
        name = opts.get("scenario")
        if name is None:
            raise DomainError("no scenario given (use --scenario or a config file)")
        if name not in SCENARIOS:
            raise DomainError(f"unknown scenario {name!r}")
        seed = _parsed("seed" if "seed" in given else "TELEREV_SEED", opts["seed"], int)
        samples = None if opts.get("samples") is None else _parsed("samples", opts["samples"], int)
        grid, grid2 = (_parse_grid(opts[key]) if key in opts else default
                       for key, default in zip(("grid", "grid2"), DEFAULT_GRIDS[name]))
        scenario = Scenario(name=name, grid=grid, grid2=grid2,
                            mc_samples=samples, rng=RngSpec(seed))
        result = run(scenario, opts["out"], fmt=opts["format"])
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not result.residual_ok:
        print(f"error: internal residual checks failed "
              f"(completeness {result.completeness_max:.3e}, "
              f"reversal {result.reversal_max:.3e})", file=sys.stderr)
        return 1
    print(f"{result.data_path} ({result.rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
