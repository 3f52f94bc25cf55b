import collections
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carleman_lab import cli, solver
from carleman_lab.cli import (
    OPERATION_ROUTES,
    ResultTable,
    SUBCOMMANDS,
    config_hash,
    emit_csv,
    format_scalar,
    run,
    validate_config,
)


ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "scripts" / "configs"


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_format_scalar_shortest_roundtrip():
    assert format_scalar(1.0 / 3.0) == "0.3333333333333333"
    assert format_scalar(1.0) == "1.0"
    assert format_scalar(7) == "7"
    assert format_scalar(True) == "1"
    assert float(format_scalar(0.1 + 0.2)) == 0.1 + 0.2


def test_emit_csv_header_only_for_empty_rows(tmp_path):
    table = ResultTable(["a", "b"], [], {"config_hash": "x", "version": "0", "wall_time_s": 0.0})
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    text = path.read_text()
    assert text == "a,b,config_hash,version,wall_time_s\n"


def test_emit_csv_lf_and_quoting(tmp_path):
    table = ResultTable(["name", "value"], [["with,comma", 1.5]], {"config_hash": "h", "version": "1", "wall_time_s": 0.25})
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert b'"with,comma"' in raw
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "with,comma"
    assert rows[1][1] == "1.5"


def test_result_table_must_be_rectangular():
    with pytest.raises(Exception):
        ResultTable(["a", "b"], [[1.0]], {})


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# ---------------------------------------------------------------------------
# config validation and exit codes
# ---------------------------------------------------------------------------


def test_unknown_keys_rejected():
    cfg = json.loads((CONFIG_DIR / "geometry.json").read_text())
    cfg["bogus_key"] = 1
    errors = validate_config(cfg, "geometry")
    assert errors and "bogus_key" in errors[0]


def _config_errors(tmp_path, capsys, name, subcommand, edit) -> list:
    """stderr lines of a run of bundled config ``name`` after ``edit(cfg)``, which must exit 2 writing nothing."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    edit(cfg)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(path), subcommand, out_dir=str(out)) == 2
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


def test_nested_type_error_names_its_path(tmp_path, capsys):
    errors = _config_errors(tmp_path, capsys, "qv_check.json", "qv-check", lambda c: c["grid"].update(dx="0.02"))
    assert errors == ["config error: grid/dx: '0.02' is not of type 'number'"]


@pytest.mark.parametrize("value", [True, "0.2", {"name": "standing_wave", "oops": 1}], ids=["bool", "string", "bad-spec"])
def test_coefficient_matching_no_branch_is_a_usage_error(tmp_path, capsys, value):
    errors = _config_errors(tmp_path, capsys, "qv_check.json", "qv-check", lambda c: c["coeffs"].update(b1=value))
    assert len(errors) == 1 and errors[0].startswith("config error: coeffs/b1: "), errors
    assert "valid under 0 of the 3 oneOf schemas" in errors[0]


def test_validator_keeps_draft_2020_12_number_semantics():
    cfg = json.loads((CONFIG_DIR / "identity_check.json").read_text())
    assert validate_config(dict(cfg, n=1.0, seed=3.0), "identity-check") == []
    assert validate_config(dict(cfg, n=True), "identity-check") == ["n: True is not one of [1, 2]"]
    assert validate_config(dict(cfg, seed=False), "identity-check") == ["seed: False is not of type 'integer'"]
    assert validate_config(dict(cfg, seed=2.5), "identity-check") == ["seed: 2.5 is not of type 'integer'"]


def test_validator_refuses_a_keyword_it_does_not_implement():
    with pytest.raises(KeyError, match="maximum"):
        list(cli._errors(1, {"maximum": 0}))


def test_malformed_config_exits_2_writes_nothing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "geometry", "alpha": 0.5, "c1": 1.0, "oops": true}')
    out = tmp_path / "out"
    code = run(str(bad), "geometry", out_dir=str(out))
    assert code == 2
    assert not out.exists()


def test_unparsable_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad), "geometry", out_dir=str(tmp_path / "o")) == 2


def test_missing_config_exits_2(tmp_path):
    assert run(str(tmp_path / "none.json"), "geometry", out_dir=str(tmp_path / "o")) == 2


def test_failed_assertion_exits_1_and_names_it(tmp_path):
    cfg = tmp_path / "fail.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "assumption-check",
                "rho": {"name": "char_linear"},
                "varrho": 1.0,
                "preset": "A2.3",
                "c0": 0.5,
                "t": 0.0,
                "x": [0.0],
            }
        )
    )
    out = tmp_path / "out"
    code = run(str(cfg), "assumption-check", out_dir=str(out))
    assert code == 1
    log = (out / "assumption-check.log").read_text()
    assert "FAIL assumption_holds" in log


def test_expected_failure_can_be_reported_without_asserting(tmp_path):
    cfg = tmp_path / "report.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "assumption-check",
                "rho": {"name": "char_linear"},
                "varrho": 1.0,
                "preset": "A2.3",
                "c0": 0.5,
                "t": 0.0,
                "x": [0.0],
                "expect_pass": False,
            }
        )
    )
    assert run(str(cfg), "assumption-check", out_dir=str(tmp_path / "out2")) == 0


def test_geometry_csv_contains_c3(tmp_path):
    out = tmp_path / "out"
    code = run(str(CONFIG_DIR / "geometry.json"), "geometry", out_dir=str(out))
    assert code == 0
    with open(out / "geometry.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["c3"] == "4097.0"


def test_identity_check_default_suite_200_rows_all_pass(tmp_path):
    out = tmp_path / "out"
    code = run(str(CONFIG_DIR / "identity_check.json"), "identity-check", out_dir=str(out))
    assert code == 0
    with open(out / "identity-check.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert all(r["pass"] == "1" for r in rows)


@pytest.mark.parametrize("subcommand, cases", [("identity-check", 30), ("conjugation-check", 15)])
def test_two_dimensional_randomized_checks_run(tmp_path, subcommand, cases):
    cfg = tmp_path / "two_d.json"
    cfg.write_text(json.dumps({"experiment": subcommand, "cases": cases, "seed": 0, "n": 2}))
    out = tmp_path / "out"
    assert run(str(cfg), subcommand, out_dir=str(out)) == 0
    with open(out / f"{subcommand}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cases
    assert all(r["pass"] == "1" and "x2" in r for r in rows)


def test_identity_check_assembles_each_case_once(tmp_path, monkeypatch):
    from carleman_lab import identities

    calls = []
    original = identities.assemble

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "assemble", counting)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"experiment": "identity-check", "cases": 5, "seed": 0}))
    assert run(str(cfg), "identity-check", out_dir=str(tmp_path / "out")) == 0
    assert len(calls) == 5


def _count_quantities(monkeypatch) -> list:
    from carleman_lab.weights import WeightFamily

    calls = []
    original = WeightFamily.quantities

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WeightFamily, "quantities", counting)
    return calls


def test_conjugation_check_evaluates_quantities_once_per_found_case(tmp_path, monkeypatch):
    calls = _count_quantities(monkeypatch)
    cfg = tmp_path / "conj.json"
    cfg.write_text(json.dumps({"experiment": "conjugation-check", "cases": 10, "seed": 0}))
    assert run(str(cfg), "conjugation-check", out_dir=str(tmp_path / "out")) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "conjugation-check.csv")))
    assert len(rows) == 10
    assert len(calls) == 10


def test_expansion_check_evaluates_quantities_seven_times_per_sample(tmp_path, monkeypatch):
    calls = _count_quantities(monkeypatch)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"experiment": "expansion-check", "samples": 4, "seed": 0}))
    assert run(str(cfg), "expansion-check", out_dir=str(tmp_path / "out")) == 0
    # six lambda values, then eval_D
    assert len(calls) == 4 * 7


def test_weighted_qv_check_evaluates_no_quantities(tmp_path, monkeypatch):
    calls = _count_quantities(monkeypatch)
    cfg = json.loads((CONFIG_DIR / "qv_check.json").read_text())
    cfg["rho"] = {"name": "char_linear", "params": {"ux1": 1.0}}
    cfg["weights"] = {"lambdas": [2.0], "gamma": 1.0, "mu": 0.1, "t0": 0.0, "x0": [0.0]}
    path = tmp_path / "qv.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path), "qv-check", out_dir=str(tmp_path / "out")) == 0
    # theta and ell_t at each of the num_steps + 1 step times come from psi alone
    assert len(calls) == 0


@pytest.mark.parametrize("key, value", [
    ("rho", {"name": "char_linear", "params": {"ux1": 1.0}}),
    ("weights", {"lambdas": [2.0], "gamma": 1.0, "mu": 0.1, "t0": 0.0, "x0": [0.0]}),
], ids=["rho", "weights"])
def test_qv_check_weight_given_by_half_is_a_usage_error(tmp_path, capsys, key, value):
    # theta = e^ell needs rho and the weight parameters together; either alone used to run unweighted
    cfg = json.loads((CONFIG_DIR / "qv_check.json").read_text())
    cfg[key] = value
    path = tmp_path / "half.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(path), "qv-check", out_dir=str(out)) == 2
    assert not out.exists()
    other = "weights" if key == "rho" else "rho"
    assert capsys.readouterr().err.splitlines() == [f"config error: <root>: '{other}' is required when '{key}' is given"]


# a3 = 1e10 at dt 0.034 grows the field to about 1e296 without a step-size guard stopping it
RUNAWAY_QV = {
    "experiment": "qv-check",
    "grid": {"bounds": [[-1.5, 1.5]], "dx": 0.13636363636363635, "dt": 0.03409090909090909, "t_max": 0.75},
    "coeffs": {"a3": 1e10, "b1": -0.317},
    "u0": {"name": "space_bump4", "params": {"amp": 1.0, "rx1": 0.02}},
    "rho": {"name": "char_linear"},
    "weights": {"lambda": 0.5, "gamma": 1.0, "mu": 1.0, "t0": 0.0, "x0": [0.0]},
    "paths": 100,
    "seed": 22,
    "tolerance": 0.05,
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_runaway_qv_check_fails_numbers_finite_and_keeps_its_csv(tmp_path):
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(RUNAWAY_QV))
    out = tmp_path / "out"
    assert run(str(path), "qv-check", out_dir=str(out)) == 1
    assert _fail_lines(out / "qv-check.log") == [
        "FAIL numbers_finite: standard_error is inf in row 1 of 1; 1 of 4 float cells are not finite"
    ]
    with open(out / "qv-check.csv") as fh:
        assert [r["standard_error"] for r in csv.DictReader(fh)] == ["inf"]


def test_numbers_finite_allows_nan_only_in_declared_columns():
    table = ResultTable(["lambda", "utt_probe"], [[1.0, math.nan], [2.0, np.float64(math.nan)]], {})
    assert cli._numbers_finite(table, cli.NAN_COLUMNS["ucp-decay"]) == ("numbers_finite", True, "4 float cells")
    name, passed, detail = cli._numbers_finite(table, ())
    assert not passed and detail == "utt_probe is nan in row 1 of 2; 2 of 4 float cells are not finite"
    table = ResultTable(["lambda", "utt_probe"], [[1.0, 0.5], [2.0, np.float64(-math.inf)]], {})
    name, passed, detail = cli._numbers_finite(table, ("utt_probe",))
    assert not passed and detail.startswith("utt_probe is -inf in row 2 of 2;")


def test_conjugation_check_finds_every_transition_point_on_seed_1(tmp_path):
    out = tmp_path / "out"
    assert run(str(CONFIG_DIR / "conjugation_check.json"), "conjugation-check", out_dir=str(out), seed=1) == 0
    assert "PASS transition_points_found: 100 of 100" in (out / "conjugation-check.log").read_text()


def test_identity_check_builds_each_registry_entry_once(tmp_path, monkeypatch):
    from carleman_lab import fields

    monkeypatch.setattr(fields, "_BUILTINS", {}, raising=False)
    built = collections.Counter()
    for name, entry in list(fields._REGISTRY.items()):
        def counting(n, name=name, entry=entry):
            built[(name, n)] += 1
            return entry(n)

        monkeypatch.setitem(fields._REGISTRY, name, counting)
    assert run(str(CONFIG_DIR / "identity_check.json"), "identity-check", out_dir=str(tmp_path / "out")) == 0
    assert set(built) == {("trig_product", 1), ("quadratic", 1), ("affine", 1), ("exp_quadratic", 1)}
    assert max(built.values()) == 1


def test_identity_check_checks_symbols_once_per_evaluator_key(tmp_path, monkeypatch):
    from carleman_lab import fields, weights

    # start from empty caches, so the 200 cases set up every family themselves
    for module, cache in ((fields, "_BUILTINS"), (fields, "_SYMBOLIC"), (weights, "_PSI")):
        monkeypatch.setattr(module, cache, {})
    made, checked = collections.Counter(), collections.Counter()
    init, tree = fields._Symbolic.__init__, fields._Symbolic.tree

    def counting_init(self, name, key, *rest):
        made[key] += 1
        init(self, name, key, *rest)

    def counting_tree(self):
        if self._tree is None:  # the tree is built and its symbols checked now
            checked[self.key] += 1
        return tree(self)

    monkeypatch.setattr(fields._Symbolic, "__init__", counting_init)
    monkeypatch.setattr(fields._Symbolic, "tree", counting_tree)
    assert run(str(CONFIG_DIR / "identity_check.json"), "identity-check", out_dir=str(tmp_path / "out")) == 0
    # three rho kinds and w, then psi = exp(gamma rho) for each rho kind
    assert len(made) == 7
    assert max(made.values()) == 1
    assert set(checked) <= set(made)
    assert all(count == 1 for count in checked.values())


def _fail_lines(log_path):
    return [line for line in log_path.read_text().splitlines() if line.startswith("FAIL")]


def test_d2_guard_is_a_run_error_with_and_without_python_O(tmp_path):
    # seed 3 draws a sample whose two d2 routes disagree beyond 1e-9
    cfg = str(CONFIG_DIR / "d2_check.json")
    plain = tmp_path / "plain"
    code = run(cfg, "d2-check", out_dir=str(plain), seed=3)
    fail = _fail_lines(plain / "d2-check.log")
    assert code == 1
    assert len(fail) == 1 and fail[0].startswith("FAIL run_error: d2 route disagreement")
    assert "exit: 1" in (plain / "d2-check.log").read_text()
    assert not (plain / "d2-check.csv").exists()
    optimised = tmp_path / "optimised"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "carleman_lab.cli", "d2-check", "--config", cfg, "--seed", "3", "--out", str(optimised)],
        capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert _fail_lines(optimised / "d2-check.log") == fail
    assert not (optimised / "d2-check.csv").exists()


def test_support_reaching_the_boundary_is_a_run_error(tmp_path):
    # unit speed from the bump in 0.5 <= x <= 0.9 reaches the 3-node ring of [-1.5, 1.5] before t = 1
    cfg = json.loads((CONFIG_DIR / "ucp_decay.json").read_text())
    cfg["grid"] = {"bounds": [[-1.5, 1.5]], "dx": 0.02, "dt": 0.01, "t_max": 1.0}
    cfg["paths"] = 3
    path = tmp_path / "ucp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(path), "ucp-decay", out_dir=str(out)) == 1
    fail = _fail_lines(out / "ucp-decay.log")
    assert len(fail) == 1
    assert re.fullmatch(
        r"FAIL run_error: support reached the boundary ring on path 0 at t = [0-9.]+ \(step \d+\)", fail[0]
    ), fail[0]
    assert "exit: 1" in (out / "ucp-decay.log").read_text()
    assert not (out / "ucp-decay.csv").exists()


def _propagation_config(tmp_path, t_max):
    cfg = tmp_path / "prop.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "propagation",
                "grid": {"bounds": [[-1.5, 1.5]], "dx": 0.02, "dt": 0.01, "t_max": t_max},
                "support": {"balls": [{"center": [0.0], "radius": 0.2}]},
                "u0": {"name": "space_bump4", "params": {"amp": 1.0, "cx1": 0.0, "rx1": 0.2}},
                "coeffs": {"b1": 0.5},
                "paths": 3,
                "seed": 0,
            }
        )
    )
    return cfg


def test_propagation_cone_reaching_the_guard_ring_is_a_config_error(tmp_path, capsys):
    # |x| <= 0.2 inflated by t_max + 3 dx = 1.56 passes x = 1.46, the innermost node of
    # the 3-node guard ring of [-1.5, 1.5] at dx = 0.02
    out = tmp_path / "out"
    assert run(str(_propagation_config(tmp_path, 1.5)), "propagation", out_dir=str(out)) == 2
    assert not out.exists()
    assert "reaches the 3-node guard ring" in capsys.readouterr().err
    # the scheme's own leakage runs ahead of unit speed, so the preflight is necessary, not sufficient:
    # at t_max = 1.0 the run still ends in FAIL run_error (exit 1), at 0.8 it passes
    assert run(str(_propagation_config(tmp_path, 0.8)), "propagation", out_dir=str(out)) == 0


def test_qv_check_below_the_path_minimum_is_a_usage_error(tmp_path):
    cfg = json.loads((CONFIG_DIR / "qv_check.json").read_text())
    cfg["paths"] = 5
    few = tmp_path / "few.json"
    few.write_text(json.dumps(cfg))
    out = tmp_path / "config"
    assert run(str(few), "qv-check", out_dir=str(out)) == 2
    assert not out.exists()
    flag = tmp_path / "flag"
    argv = ["qv-check", "--config", str(CONFIG_DIR / "qv_check.json"), "--paths", "5", "--out", str(flag)]
    assert cli.main(argv) == 2
    assert not flag.exists()


@pytest.mark.parametrize("subcommand, config, paths", [
    ("propagation", "propagation.json", 0),
    ("ucp-decay", "ucp_decay.json", 0),
    ("qv-check", "qv_check.json", 0),
    ("inequality-scan", "inequality_scan_t42.json", -1),
])
def test_paths_below_the_schema_minimum_is_a_usage_error(tmp_path, subcommand, config, paths):
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(CONFIG_DIR / config), "--paths", str(paths), "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()


def test_sweep_containment_violation_is_a_named_run_failure(tmp_path, monkeypatch):
    from carleman_lab import cones

    real = cones._sample_intersection
    calls = []

    def displaced(*args):
        # step 2's hypothesis samples move one unit outwards, off the certified slab
        ts, xs = real(*args)
        calls.append(1)
        return (ts, xs + np.sign(xs)) if len(calls) == 2 else (ts, xs)

    monkeypatch.setattr(cones, "_sample_intersection", displaced)
    out = tmp_path / "out"
    assert run(str(CONFIG_DIR / "sweep.json"), "sweep", out_dir=str(out)) == 1
    fail = _fail_lines(out / "sweep.log")
    assert fail[0].startswith("FAIL containment_verified: step 2: hypothesis sample (t="), fail
    assert fail[1].startswith("FAIL coverage_reached"), fail
    with open(out / "sweep.csv") as fh:
        assert [r["step"] for r in csv.DictReader(fh)] == ["1"]


def test_sweep_precondition_stays_a_usage_error(tmp_path):
    cfg = json.loads((CONFIG_DIR / "sweep.json").read_text())
    cfg["target_t_over_T0"] = 0.5
    low = tmp_path / "low.json"
    low.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(low), "sweep", out_dir=str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("chunk_elements", [1, 3000, 2**40])
def test_monte_carlo_columns_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk_elements):
    # 1 gives one path per chunk, 3000 uneven multi-path chunks, 2**40 one chunk for all paths
    runs = [("propagation", "propagation.json", 60), ("qv-check", "qv_check.json", 100), ("ucp-decay", "ucp_decay.json", 20)]
    for sub, config, paths in runs:
        assert run(str(CONFIG_DIR / config), sub, out_dir=str(tmp_path / "default"), paths=paths) == 0
    monkeypatch.setattr(solver, "CHUNK_ELEMENTS", chunk_elements)
    for sub, config, paths in runs:
        assert run(str(CONFIG_DIR / config), sub, out_dir=str(tmp_path / "chunked"), paths=paths) == 0
        default = _columns_without_wall_time(tmp_path / "default" / f"{sub}.csv")
        assert _columns_without_wall_time(tmp_path / "chunked" / f"{sub}.csv") == default, sub


def test_gnuplot_emission(tmp_path):
    out = tmp_path / "out"
    code = run(str(CONFIG_DIR / "geometry.json"), "geometry", out_dir=str(out), gnuplot=True)
    assert code == 0
    text = (out / "geometry.gp").read_text()
    assert "geometry.csv" in text and "plot" in text


def test_cli_main_entrypoint(tmp_path):
    code = cli.main(["geometry", "--config", str(CONFIG_DIR / "geometry.json"), "--out", str(tmp_path / "o")])
    assert code == 0
    assert cli.main(["geometry", "--config", str(tmp_path / "missing.json")]) == 2


def _columns_without_wall_time(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    drop = head.index("wall_time_s")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


@pytest.mark.parametrize("subcommand, config", [
    ("geometry", "geometry.json"),
    ("ucp-decay", "ucp_decay.json"),
    ("identity-check", "identity_check.json"),
])
def test_rerun_reproduces_numeric_columns_byte_identically(tmp_path, subcommand, config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(str(CONFIG_DIR / config), subcommand, out_dir=str(out1)) == 0
    assert run(str(CONFIG_DIR / config), subcommand, out_dir=str(out2)) == 0
    a = _columns_without_wall_time(out1 / f"{subcommand}.csv")
    b = _columns_without_wall_time(out2 / f"{subcommand}.csv")
    assert a == b


def test_propagation_rerun_deterministic_with_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("CARLEMAN_LAB_THREADS", "3")
    cfg = tmp_path / "prop.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "propagation",
                "grid": {"bounds": [[-1.5, 1.5]], "dx": 0.02, "dt": 0.01, "t_max": 0.2},
                "support": {"balls": [{"center": [0.0], "radius": 0.2}]},
                "u0": {"name": "space_bump4", "params": {"amp": 1.0, "cx1": 0.0, "rx1": 0.2}},
                "coeffs": {"b1": 0.5},
                "paths": 6,
                "seed": 0,
            }
        )
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(str(cfg), "propagation", out_dir=str(out1)) == 0
    assert run(str(cfg), "propagation", out_dir=str(out2)) == 0
    assert _columns_without_wall_time(out1 / "propagation.csv") == _columns_without_wall_time(out2 / "propagation.csv")


def test_seed_override_changes_hash_and_columns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(str(CONFIG_DIR / "identity_check.json"), "identity-check", out_dir=str(out1), seed=1)
    run(str(CONFIG_DIR / "identity_check.json"), "identity-check", out_dir=str(out2), seed=2)
    a = _columns_without_wall_time(out1 / "identity-check.csv")
    b = _columns_without_wall_time(out2 / "identity-check.csv")
    assert a != b


# ---------------------------------------------------------------------------
# operation coverage
# ---------------------------------------------------------------------------


def test_every_operation_reachable_from_a_subcommand():
    for op, subs in OPERATION_ROUTES.items():
        assert subs, f"{op} has no subcommand route"
        for s in subs:
            assert s in SUBCOMMANDS, f"{op} routes to unknown subcommand {s}"


def test_route_table_covers_all_module_operations():
    expected = {
        "field_kit.make_grid", "field_kit.fd_apply", "field_kit.sample_brownian",
        "carleman_weights.eval_frame", "carleman_weights.build_M", "carleman_weights.eval_D",
        "carleman_weights.eval_VN", "carleman_weights.psd_certificate", "carleman_weights.assumption_check",
        "identity_verifier.identity_residual", "identity_verifier.conjugation_residual",
        "identity_verifier.qv_check", "identity_verifier.inequality_gap",
        "spde_solver.step", "spde_solver.solve", "spde_solver.manufactured_forcing", "spde_solver.total_energy",
        "propagation_lab.distance_to_set", "propagation_lab.local_energy", "propagation_lab.run_propagation",
        "cone_geometry.c3_constant", "cone_geometry.vertex", "cone_geometry.membership", "cone_geometry.sweep_cover",
        "lab_cli.run", "lab_cli.emit_csv",
    }
    assert set(OPERATION_ROUTES) == expected


def test_every_subcommand_has_schema_and_runner():
    assert set(SUBCOMMANDS) == set(cli.EXPERIMENTS)
    assert set(SUBCOMMANDS) == set(cli.SCHEMAS)
    assert len(SUBCOMMANDS) == 12


def test_manufactured_drift_reachable_from_propagation(tmp_path):
    # config-space route for the manufactured forcing feedback
    cfg = tmp_path / "prop.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "propagation",
                "grid": {"bounds": [[-1.5, 1.5]], "dx": 0.02, "dt": 0.01, "t_max": 0.1},
                "support": {"balls": [{"center": [0.0], "radius": 0.25}]},
                "u0": {"name": "space_bump4", "params": {"amp": 1.0, "cx1": 0.0, "rx1": 0.2}},
                "coeffs": {
                    "a3": 0.5,
                    "manufactured_from": {"name": "space_bump4", "params": {"amp": 1.0, "cx1": 0.0, "rx1": 0.2}},
                },
                "paths": 2,
                "seed": 0,
                "outside_tolerance": 1e-4
            }
        )
    )
    assert run(str(cfg), "propagation", out_dir=str(tmp_path / "out")) == 0


# ---------------------------------------------------------------------------
# cold start: a run imports only the modules it reads
# ---------------------------------------------------------------------------

_GEOMETRY_CHILD = """
import json, sys
import carleman_lab.cli as cli
code = cli.main(["geometry", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "carleman_lab")]))
"""


def test_geometry_run_loads_only_the_modules_it_reads(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _GEOMETRY_CHILD, str(CONFIG_DIR / "geometry.json"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert set(modules) <= {"carleman_lab", "carleman_lab.cli", "carleman_lab.fields", "carleman_lab.cones"}, modules


def test_run_errors_keep_their_module_names_and_are_the_fields_classes():
    from carleman_lab import cones, fields, identities

    assert cones.GeometryError is fields.GeometryError
    assert identities.SupportError is fields.SupportError
    assert identities.StatisticsError is fields.StatisticsError
    assert solver.PropagationError is fields.PropagationError


def test_package_exports_resolve_to_their_modules():
    import carleman_lab
    from carleman_lab import WeightFamily, cones, propagation, run_propagation, vertex, weights

    assert (WeightFamily, run_propagation, vertex) == (weights.WeightFamily, propagation.run_propagation, cones.vertex)
    assert len(carleman_lab.__all__) == 43  # __version__ and 42 exported names
    for name in carleman_lab.__all__:
        getattr(carleman_lab, name)
    with pytest.raises(AttributeError):
        carleman_lab.no_such_name
