import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerev.cli import main
from telerev.errors import DomainError
from telerev.montecarlo import MC_BUDGET_BYTES
from telerev.scenarios import (COLUMNS, MAX_ROWS, SCENARIOS, GridSpec, Scenario, run,
                               validate_scenario)
from telerev.theorems import solve_tr

from helpers import DESK_TABLE, desk_run

GOLDEN_DIR = Path(__file__).parent / "goldens"

HEADER = ("param1,param2,E_c,E_M,F_standard,F_mr,P_succ_closed,P_succ_svd,"
          "P_succ_mc,P_succ_mc_stderr,L_max,tradeoff_lhs,thm2_lower,thm2_upper")


def _rows(csv_path: Path):
    lines = csv_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_header_is_pinned(tmp_path):
    assert main(["--scenario", "ejm-scan", "--grid", "0:1.5:3",
                 "--out", str(tmp_path)]) == 0
    first = (tmp_path / "ejm-scan.csv").read_text().split("\n")[0]
    assert first == HEADER
    assert ",".join(COLUMNS) == HEADER


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["--scenario", "nope"])
    assert err.value.code == 2


def test_missing_scenario_is_usage_error(tmp_path):
    assert main(["--out", str(tmp_path)]) == 2


def test_unknown_scenario_from_a_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scenario = nope\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: unknown scenario 'nope'\n"
    assert not (tmp_path / "out").exists()


def test_a_config_line_without_a_value_is_refused_with_its_line(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("ejm-scan\n")
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: expected key=value\n"


def test_validate_scenario_refuses_an_unknown_name():
    with pytest.raises(DomainError, match="^unknown scenario 'nope'$"):
        validate_scenario(Scenario("nope", GridSpec(0.0, 1.0, 3)))


def test_an_unknown_output_format_is_refused_before_the_directory_is_made(tmp_path):
    with pytest.raises(DomainError, match="^unknown output format 'xml'$"):
        run(Scenario("ejm-scan", GridSpec(0.0, 1.0, 3)), tmp_path / "out", fmt="xml")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["abc", "0:1", "1:0:5", "0:1:1", "0:9:5"])
def test_bad_grids_are_usage_errors(grid, tmp_path):
    assert main(["--scenario", "xx-scan", "--grid", grid, "--out", str(tmp_path)]) == 2


def test_a_grid_bound_that_is_not_a_number_is_named(tmp_path, capsys):
    assert main(["--scenario", "xx-scan", "--grid", "0:x:3", "--out", str(tmp_path)]) == 2
    assert (capsys.readouterr().err
            == "error: grid '0:x:3': could not convert string to float: 'x'\n")


@pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "-inf:1:3", "0:inf:3"])
def test_non_finite_grids_are_usage_errors(grid, tmp_path, capsys):
    assert main(["--scenario", "xx-scan", f"--grid={grid}", "--out", str(tmp_path)]) == 2
    assert "grid bounds must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [str(2 ** 64 + 1), "-1", str(2 ** 64)])
def test_out_of_range_seeds_are_usage_errors(seed, tmp_path, capsys):
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3", "--seed", seed,
                 "--out", str(tmp_path)]) == 2
    assert f"seed {seed} outside [0, 2^64)" in capsys.readouterr().err


def test_a_samples_value_that_is_not_an_integer_is_named(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scenario = ejm-scan\nsamples = 1e5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err
            == "error: samples '1e5': invalid literal for int() with base 10: '1e5'\n")
    assert not (tmp_path / "out").exists()


def test_a_seed_from_the_environment_that_is_not_an_integer_is_named(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setenv("TELEREV_SEED", "abc")
    assert main(["--scenario", "ejm-scan", "--out", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err
            == "error: TELEREV_SEED 'abc': invalid literal for int() with base 10: 'abc'\n")
    assert not (tmp_path / "out").exists()
    # a seed given in the config file is named as its key, before samples is read
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scenario = ejm-scan\nseed = 1.5\nsamples = x\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err
            == "error: seed '1.5': invalid literal for int() with base 10: '1.5'\n")


def test_a_valid_seed_flag_overrides_a_bad_environment_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("TELEREV_SEED", "abc")
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "ejm-scan_manifest.json").read_text())["seed"] == 5


def test_largest_seed_is_accepted(tmp_path):
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3", "--samples", "10",
                 "--seed", str(2 ** 64 - 1), "--out", str(tmp_path)]) == 0


def test_thm2_dimension_message_prints_plain_numbers(tmp_path, capsys):
    assert main(["--scenario", "thm2-bounds", "--grid2", "3:4:3",
                 "--out", str(tmp_path)]) == 2
    assert ("thm2-bounds: dimension grid value 3.5 is not an integer in [2, 8]"
            in capsys.readouterr().err)


# The grids are checked with the library's one range tolerance, 1e-12: an e end or a
# dimension 1e-13 past its domain or its integer is clipped onto it, 1e-10 past is refused.
@pytest.mark.parametrize("flag, inside, outside, message", [
    ("--grid", "0:1.0000000000001:2", "0:1.0000000001:2",
     "thm2-bounds: e[1]=1.0000000001 outside [0.0, 1.0]"),
    ("--grid2", "3:4.0000000000001:2", "3:4.0000000001:2",
     "thm2-bounds: dimension grid value 4.0000000001 is not an integer in [2, 8]"),
], ids=["e", "d"])
def test_a_grid_end_is_clipped_within_the_range_tolerance_and_refused_past_it(
        flag, inside, outside, message, tmp_path, capsys):
    assert main(["--scenario", "thm2-bounds", flag, outside, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["--scenario", "thm2-bounds", flag, inside, "--out", str(tmp_path)]) == 0
    last = _rows(tmp_path / "thm2-bounds.csv")[-1]
    assert (last["param2"], last["E_M"], last["thm2_lower"], last["thm2_upper"]) == (
        "4", "1", "1", "1")


# The CLI and the library share one domain for e: near each end, a grid ending at e
# runs exactly when solve_tr takes e.  An e near 0 starts the grid, as a stop below
# the start is refused as a grid.
@settings(max_examples=60, deadline=None)
@given(e=st.one_of(st.floats(-1e-9, 1e-9), st.floats(1.0 - 1e-9, 1.0 + 1e-9)))
@example(e=1.0 + 5e-10)
def test_the_cli_and_the_library_accept_the_same_e(e):
    try:
        solve_tr(3, e)
        takes = True
    except DomainError:
        takes = False
    grid = f"{e!r}:1:2" if e < 0.5 else f"0:{e!r}:2"
    with tempfile.TemporaryDirectory() as out:
        assert (main(["--scenario", "thm2-bounds", f"--grid={grid}", "--out", out]) == 0) is takes


def test_zz_grid_upper_end_is_exclusive(tmp_path):
    limit = math.sqrt(3) * math.pi / 4
    assert main(["--scenario", "zz-scan", "--grid", f"0:{limit!r}:5",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--scenario", "xx-scan", "--grid", "0:0.9:3"],
     "xx-scan: t[1]=0.9 outside [0.0, 0.7853981633974483]"),
    (["--scenario", "zz-scan", "--grid", "0:1.3:3", "--grid2", "0:1:3"],
     "zz-scan: phi[1]=1.0 outside [0.0, 0.7853981633974483]"),
    (["--scenario", "zz-scan", "--grid", "0:1.4:3"],
     "zz-scan: t[1]=1.4 outside [0.0, 1.3603495231756633)"),
    (["--scenario", "ejm-aligned-scan", "--grid2=-1:1:3"],
     "ejm-aligned-scan: s[0]=-1.0 outside [0.0, 1.5707963267948966]"),
    (["--scenario", "thm2-bounds", "--grid", "0:1.5:3"],
     "thm2-bounds: e[1]=1.5 outside [0.0, 1.0]"),
], ids=["xx-t", "zz-phi", "zz-t", "aligned-s", "thm2-e"])
def test_out_of_domain_grid_names_scenario_and_parameter(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_thm2_bounds_rejects_samples(tmp_path, capsys):
    assert main(["--scenario", "thm2-bounds", "--samples", "1000",
                 "--out", str(tmp_path)]) == 2
    assert "thm2-bounds takes no Monte Carlo samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_manifest_records_the_default_dimension_grid(tmp_path):
    result = run(Scenario("thm2-bounds", GridSpec(0.0, 1.0, 3)), tmp_path)
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["grid2"] == {"start": 3.0, "stop": 4.0, "steps": 2}
    assert [row["param2"] for row in _rows(result.data_path)] == ["3", "4"] * 3


@pytest.mark.parametrize("failing", ["text", "replace"])
def test_failed_manifest_write_leaves_no_stale_manifest(failing, tmp_path, monkeypatch):
    argv = ["--scenario", "ejm-scan", "--out", str(tmp_path)]
    assert main(argv + ["--grid", "0:1:3"]) == 0
    real_replace = os.replace

    def fail(*args, **kwargs):
        raise OSError("disk full")

    def replace(src, dst):
        (fail if str(dst).endswith("_manifest.json") else real_replace)(src, dst)

    if failing == "text":  # a CSV run builds no JSON text but the manifest
        monkeypatch.setattr(json, "dumps", fail)
    else:
        monkeypatch.setattr(os, "replace", replace)
    assert main(argv + ["--grid", "0:1:5"]) == 2
    monkeypatch.undo()
    # the new data file stands alone: no manifest of the earlier run, no temporary file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ejm-scan.csv"]
    assert len(_rows(tmp_path / "ejm-scan.csv")) == 5


def test_second_grid_rejected_for_1d_scenarios(tmp_path):
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3",
                 "--grid2", "0:1:3", "--out", str(tmp_path)]) == 2


def test_nonpositive_samples_rejected(tmp_path):
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3", "--samples", "0",
                 "--out", str(tmp_path)]) == 2


def test_oversized_samples_rejected_before_allocating(tmp_path, capsys):
    # 10^15 samples would need 24 PB of per-sample arrays; the refusal comes
    # before any of them is allocated, so the test needs no memory.
    for n in (MC_BUDGET_BYTES // 24 + 1, 10 ** 15):
        assert main(["--scenario", "ejm-scan", "--grid", "0:1:3", "--samples", str(n),
                     "--out", str(tmp_path)]) == 2
        assert f"{n} samples need {24 * n} B, over the" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, rows", [
    (["--scenario", "ejm-scan", "--grid", "0:1:1000000000000"], 10 ** 12),
    (["--scenario", "xx-scan", "--grid", f"0:0.7:{MAX_ROWS + 1}"], MAX_ROWS + 1),
    (["--scenario", "zz-scan", "--grid", "0:1:1000000", "--grid2", "0:0.5:1000000"], 10 ** 12),
    (["--scenario", "thm2-bounds", "--grid", "0:1:3", "--grid2", "3:4:1000000000"], 3 * 10 ** 9),
    # thm2-bounds counts its default dimension grid {3, 4}
    (["--scenario", "thm2-bounds", "--grid", f"0:1:{MAX_ROWS // 2 + 1}"], MAX_ROWS + 2),
])
def test_oversized_grids_rejected_before_allocating(argv, rows, tmp_path, capsys, monkeypatch):
    # no grid is ever expanded: a call to GridSpec.values would escape main
    def refuse(self):
        raise AssertionError("grid values allocated")
    monkeypatch.setattr(GridSpec, "values", refuse)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"{rows} grid rows, over the {MAX_ROWS}-row limit" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_row_limit_is_inclusive():
    grid2 = GridSpec(0.0, 0.5, MAX_ROWS // 400)
    validate_scenario(Scenario("zz-scan", GridSpec(0.0, 1.0, 400), grid2))
    with pytest.raises(DomainError, match="over the"):
        validate_scenario(Scenario("zz-scan", GridSpec(0.0, 1.0, 401), grid2))


def test_scan_writes_data_and_manifest(tmp_path):
    assert main(["--scenario", "xx-scan", "--grid", "0:0.7:8", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "xx-scan.csv")
    assert len(rows) == 8
    manifest = json.loads((tmp_path / "xx-scan_manifest.json").read_text())
    assert manifest["scenario"] == "xx-scan"
    assert manifest["seed"] == 7
    assert manifest["rows"] == 8
    assert manifest["residual_ok"] is True
    assert manifest["residuals"]["completeness_max"] < 1e-10
    assert manifest["residuals"]["reversal_max"] < 1e-9
    assert manifest["wall_time_s"] >= 0.0
    phases = manifest["phase_times_s"]
    assert sorted(phases) == ["format", "mc", "rows", "write"]
    assert all(v >= 0.0 for v in phases.values())
    assert phases["rows"] == manifest["wall_time_s"]
    assert phases["mc"] == 0.0
    assert manifest["mc_threads"] is None


def test_xx_scan_columns_match_closed_forms(tmp_path):
    assert main(["--scenario", "xx-scan", "--grid", "0:0.7853981633974483:9",
                 "--out", str(tmp_path)]) == 0
    for row in _rows(tmp_path / "xx-scan.csv"):
        t = float(row["param1"])
        assert row["param2"] == "NA"
        assert abs(float(row["E_M"]) - math.cos(2 * t)) < 1e-9
        assert abs(float(row["E_c"]) - 1.0) < 1e-9
        assert abs(float(row["F_standard"]) - (2 + math.cos(2 * t)) / 3) < 1e-9
        assert float(row["F_mr"]) == 1.0
        assert abs(float(row["P_succ_closed"]) - float(row["P_succ_svd"])) < 1e-9
        assert row["P_succ_mc"] == "NA" and row["P_succ_mc_stderr"] == "NA"
        assert row["thm2_lower"] == "NA"


def test_ejm_scan_mr_columns(tmp_path):
    assert main(["--scenario", "ejm-scan", "--grid", "0:1.5707963267948966:9",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "ejm-scan.csv")
    assert abs(float(rows[0]["F_standard"]) - 5.0 / 6.0) < 1e-9
    assert abs(float(rows[-1]["F_standard"]) - 1.0) < 1e-9
    for row in rows:
        t = float(row["param1"])
        assert float(row["F_mr"]) == 1.0
        assert abs(float(row["P_succ_closed"]) - (1 - math.sqrt(3) / 2 * math.cos(t))) < 1e-12
        assert abs(float(row["tradeoff_lhs"]) - 4.0) < 1e-9


def test_thm2_scan_emits_ordered_bounds(tmp_path):
    assert main(["--scenario", "thm2-bounds", "--grid", "0:1:6",
                 "--grid2", "3:4:2", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "thm2-bounds.csv")
    assert len(rows) == 12
    assert {row["param2"] for row in rows} == {"3", "4"}
    for row in rows:
        assert float(row["thm2_lower"]) <= float(row["thm2_upper"]) + 1e-12
        assert row["P_succ_closed"] == "NA"


def test_json_format(tmp_path):
    assert main(["--scenario", "tradeoff-scan", "--grid", "0:1.2:4",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "tradeoff-scan.json").read_text())
    assert payload["columns"] == COLUMNS
    assert len(payload["rows"]) == 4
    assert all(len(r) == len(COLUMNS) for r in payload["rows"])


def test_csv_and_json_hold_the_same_cells(tmp_path):
    # a 2-D zz-scan, so that its cells repeat along both grids
    argv = ["--scenario", "zz-scan", "--grid", "0:1.3:6", "--grid2", f"0:{math.pi / 4!r}:5"]
    assert main(argv + ["--out", str(tmp_path / "csv")]) == 0
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "json")]) == 0
    lines = (tmp_path / "csv" / "zz-scan.csv").read_text().splitlines()
    payload = json.loads((tmp_path / "json" / "zz-scan.json").read_text())
    assert payload["columns"] == lines[0].split(",") == COLUMNS
    assert payload["rows"] == [line.split(",") for line in lines[1:]]
    assert len(payload["rows"]) == 30


def test_mc_runs_are_deterministic(tmp_path):
    argv = ["--scenario", "xx-scan", "--grid", "0:0.6:4", "--samples", "400",
            "--seed", "99"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "xx-scan.csv").read_bytes() == \
        (tmp_path / "b" / "xx-scan.csv").read_bytes()


def test_mc_cells_present_with_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["--scenario", "ejm-scan", "--grid", "0:1.0:3", "--samples", "300",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "ejm-scan_manifest.json").read_text())
    phases = manifest["phase_times_s"]
    assert 0.0 < phases["mc"] <= phases["rows"]
    assert manifest["mc_threads"] == 2  # 3 rows of 300 samples on two CPUs
    for row in _rows(tmp_path / "ejm-scan.csv"):
        p_mc = float(row["P_succ_mc"])
        assert abs(p_mc - float(row["P_succ_svd"])) < 0.05
        assert float(row["P_succ_mc_stderr"]) >= 0.0


def test_manifest_records_the_monte_carlo_threads(tmp_path, monkeypatch):
    # rows of a full chunk share the CPUs this process may run on, one thread per row
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    argv = ["--scenario", "ejm-scan", "--samples", "8192", "--out", str(tmp_path)]
    for grid, threads in (("0:1:2", 2), ("0:1:5", 4)):
        assert main(argv + ["--grid", grid]) == 0
        manifest = json.loads((tmp_path / "ejm-scan_manifest.json").read_text())
        assert manifest["mc_threads"] == threads


def test_config_file_presets_flags(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "# comment line\n"
        "scenario = ejm-scan\n"
        "grid = 0:1.5:4\n"
        "seed = 11\n"
        f"out = {tmp_path / 'from_config'}\n")
    assert main(["--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "from_config" / "ejm-scan_manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["grid"]["steps"] == 4


def test_cli_overrides_config(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scenario = ejm-scan\ngrid = 0:1.5:4\nseed = 11\n")
    assert main(["--config", str(cfg), "--seed", "22", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "ejm-scan_manifest.json").read_text())
    assert manifest["seed"] == 22


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scenari = oops\n")
    assert main(["--config", str(cfg)]) == 2


def test_env_seed_used_as_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TELEREV_SEED", "31415")
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "ejm-scan_manifest.json").read_text())
    assert manifest["seed"] == 31415
    # explicit flag wins over the environment
    assert main(["--scenario", "ejm-scan", "--grid", "0:1:3", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "ejm-scan_manifest.json").read_text())
    assert manifest["seed"] == 1


# A config-file value and a flag value of each of the seven config keys, none of them
# the default, nor TELEREV_SEED's 33; "out" is relative to the test's directory.
PRECEDENCE = {"scenario": ("zz-scan", "xx-scan"), "grid": ("0:0.5:3", "0:0.25:4"),
              "grid2": ("0:0.5:2", "0:0.25:3"), "samples": ("5", "7"), "seed": ("11", "22"),
              "out": ("from-config", "from-flag"), "format": ("json", "csv")}


def _options_seen(out: Path) -> dict:
    """The seven options of the one run written under ``out``, as its files record them."""
    (path,) = out.glob("*_manifest.json")
    m = json.loads(path.read_text())
    assert (out / m["data_file"]).exists()

    def grid(g):
        return f"{g['start']:g}:{g['stop']:g}:{g['steps']}"
    return {"scenario": m["scenario"], "grid": grid(m["grid"]), "grid2": grid(m["grid2"]),
            "samples": str(m["samples"]), "seed": str(m["seed"]), "out": out.name,
            "format": m["data_file"].rsplit(".", 1)[1]}


@pytest.mark.parametrize("flag", [None, *PRECEDENCE])
def test_a_flag_beats_the_config_file_which_beats_the_defaults(flag, tmp_path, monkeypatch):
    # with no flag, every value comes from the file, the seed over TELEREV_SEED too
    monkeypatch.setenv("TELEREV_SEED", "33")
    monkeypatch.chdir(tmp_path)
    Path("scan.cfg").write_text("".join(f"{k} = {v}\n" for k, (v, _) in PRECEDENCE.items()))
    want, argv = {k: v for k, (v, _) in PRECEDENCE.items()}, ["--config", "scan.cfg"]
    if flag is not None:
        want[flag] = PRECEDENCE[flag][1]
        argv += [f"--{flag}", want[flag]]
    assert main(argv) == 0
    assert _options_seen(tmp_path / want["out"]) == want
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([want["out"], "scan.cfg"])


def test_golden_invocations_cover_all_scenarios():
    manifest = json.loads((GOLDEN_DIR / "invocations.json").read_text())
    from telerev.scenarios import SCENARIOS as SCENARIO_NAMES
    assert sorted(entry["name"] for entry in manifest) == sorted(SCENARIO_NAMES)


def test_desk_table_runs_parse_validate_and_its_digests_name_their_outputs():
    rows = json.loads(DESK_TABLE.read_text())
    assert len({row["name"] for row in rows}) == len(rows)
    scenarios, written = set(), []
    for row in rows:
        # run_all_scans.py reads the scenario name at argv[1]; a missing seed would read
        # TELEREV_SEED and change the Monte Carlo cells
        assert row["argv"][0] == "--scenario" and "--seed" in row["argv"], row["name"]
        scenario, fmt = desk_run(row["argv"])
        validate_scenario(scenario)
        scenarios.add(scenario.name)
        written.append(str(Path(row["dir"], f"{scenario.name}.{fmt}")))
    assert len(set(written)) == len(written)  # no run overwrites another's data file
    assert scenarios == set(SCENARIOS)
    lines = (GOLDEN_DIR / "desk.sha256").read_text().splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    digested = [line[66:] for line in lines]
    assert len(set(digested)) == len(digested)
    assert set(digested) <= set(written)


def test_a_second_call_in_one_process_writes_what_a_fresh_process_writes(tmp_path):
    # one parser serves every call in a process: flags the first call gave
    # (a second grid, JSON) must not reach a call that omits them
    assert main(["--scenario", "zz-scan", "--grid", "0:1:4", "--grid2", "0:0.5:3",
                 "--format", "json", "--out", str(tmp_path / "first")]) == 0
    second = ["--scenario", "zz-scan", "--grid", "0:1:5"]
    assert main(second + ["--out", str(tmp_path / "again")]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "telerev.cli", *second,
                           "--out", str(tmp_path / "fresh")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert sorted(p.name for p in again.iterdir()) == ["zz-scan.csv", "zz-scan_manifest.json"]
    assert (again / "zz-scan.csv").read_bytes() == (fresh / "zz-scan.csv").read_bytes()
    manifests = [json.loads((d / "zz-scan_manifest.json").read_text()) for d in (again, fresh)]
    for m in manifests:
        for key in ("wall_time_s", "phase_times_s"):
            m.pop(key)
    assert manifests[0] == manifests[1]
