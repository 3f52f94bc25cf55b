import collections
import csv
import inspect
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
    ResultTable,
    SUBCOMMANDS,
    config_hash,
    emit_csv,
    format_scalar,
    run,
    validate_config,
)
from carleman_lab.fields import multi_indices


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


def _count_point_stages(monkeypatch) -> list:
    from carleman_lab.weights import WeightFamily

    calls = []
    original = WeightFamily.point_stage

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WeightFamily, "point_stage", counting)
    return calls


def test_conjugation_check_builds_one_point_stage_per_found_case(tmp_path, monkeypatch):
    stages = _count_point_stages(monkeypatch)
    cfg = tmp_path / "conj.json"
    cfg.write_text(json.dumps({"experiment": "conjugation-check", "cases": 10, "seed": 0}))
    assert run(str(cfg), "conjugation-check", out_dir=str(tmp_path / "out")) == 0
    with open(tmp_path / "out" / "conjugation-check.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    # the search reads phi alone; each found case takes one assembly
    assert len(stages) == 10


def _count_psi_partials(monkeypatch) -> list:
    """Wrap AnalyticFn._evaluator, through which every evaluation fetches its evaluator, so
    each evaluation on a psi = exp(gamma rho) family appends its multi-index."""
    from carleman_lab.fields import AnalyticFn

    calls = []
    original = AnalyticFn._evaluator

    def counting(self, alpha):
        if self.symbolic.key[0][0] == "psi":
            calls.append(alpha)
        return original(self, alpha)

    monkeypatch.setattr(AnalyticFn, "_evaluator", counting)
    return calls


def test_expansion_check_builds_one_point_stage_per_sample(tmp_path, monkeypatch):
    quantities = _count_quantities(monkeypatch)
    stages = _count_point_stages(monkeypatch)
    psi_calls = _count_psi_partials(monkeypatch)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"experiment": "expansion-check", "samples": 4, "seed": 0}))
    assert run(str(cfg), "expansion-check", out_dir=str(tmp_path / "out")) == 0
    # the six lambda stages and eval_D share one point stage per sample
    assert len(stages) == 4
    assert len(quantities) == 0
    # each of the 13 psi partials that ell reads at n = 1, once per sample
    assert len(multi_indices(1).ell) == 13
    assert len(psi_calls) == 4 * 13


def test_d2_check_requests_no_psi_partial_above_second_order(tmp_path, monkeypatch):
    psi_calls = _count_psi_partials(monkeypatch)
    cfg = tmp_path / "d2.json"
    cfg.write_text(json.dumps({"experiment": "d2-check", "samples": 20, "seed": 0}))
    assert run(str(cfg), "d2-check", out_dir=str(tmp_path / "out")) == 0
    # d1, d2 and d3 read psi's second-order jet only
    assert len(psi_calls) == 20 * len(multi_indices(1).jet2)
    assert [a for a in psi_calls if sum(a) > 2] == []


def _count_rho_evaluations(monkeypatch) -> list:
    """Wrap AnalyticFn._evaluator, through which every evaluation fetches its
    evaluator, so each evaluation on a drawn rho family (not psi or w) appends its multi-index."""
    from carleman_lab.fields import AnalyticFn

    calls = []
    original = AnalyticFn._evaluator

    def counting(self, alpha):
        if self.name in ("trig_product", "quadratic", "affine"):
            calls.append(alpha)
        return original(self, alpha)

    monkeypatch.setattr(AnalyticFn, "_evaluator", counting)
    return calls


def _count_frames(monkeypatch) -> list:
    from carleman_lab.weights import CarlemanFrame

    calls = []
    original = CarlemanFrame.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CarlemanFrame, "__init__", counting)
    return calls


def test_d2_check_evaluates_rho_once_per_sample(tmp_path, monkeypatch):
    rho_calls = _count_rho_evaluations(monkeypatch)
    cfg = tmp_path / "d2.json"
    cfg.write_text(json.dumps({"experiment": "d2-check", "samples": 20, "seed": 0}))
    assert run(str(cfg), "d2-check", out_dir=str(tmp_path / "out")) == 0
    # rho's second-order jet, read by eval_D and by the structure-matrix route alike
    assert len(rho_calls) == 20 * len(multi_indices(1).jet2)


@pytest.mark.parametrize("sub, name", [("expansion-check", "expansion_check"), ("d2-check", "d2_check")])
def test_expansion_and_d2_checks_build_no_frame(tmp_path, monkeypatch, sub, name):
    frames = _count_frames(monkeypatch)
    assert run(str(CONFIG_DIR / f"{name}.json"), sub, out_dir=str(tmp_path)) == 0
    assert frames == []


@pytest.mark.parametrize("sub, field, assertion", [
    ("d2-check", "d2_divergence", "dual_form_agreement"),
    ("expansion-check", "d1", "quadratic_coefficient"),
    ("expansion-check", "d3", "cubic_coefficient"),
])
def test_a_nan_coefficient_fails_its_assertion(tmp_path, monkeypatch, sub, field, assertion):
    from dataclasses import replace

    from carleman_lab import weights

    calls = []
    original = weights.eval_D

    def nan_on_sample_2(point):
        calls.append(1)
        dq = original(point)
        return replace(dq, **{field: math.nan}) if len(calls) == 3 else dq

    monkeypatch.setattr(weights, "eval_D", nan_on_sample_2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": sub, "samples": 5, "seed": 0}))
    assert run(str(cfg), sub, out_dir=str(tmp_path / "out")) == 1
    # the detail reports the NaN, not the largest finite value
    assert f"FAIL {assertion}: nan <= " in (tmp_path / "out" / f"{sub}.log").read_text()


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
    nonfinite = SUBCOMMANDS["ucp-decay"].nonfinite
    assert cli._numbers_finite(table, nonfinite) == ("numbers_finite", True, "4 float cells")
    name, passed, detail = cli._numbers_finite(table, {})
    assert not passed and detail == "utt_probe is nan in row 1 of 2; 2 of 4 float cells are not finite"
    table = ResultTable(["lambda", "utt_probe"], [[1.0, 0.5], [2.0, np.float64(-math.inf)]], {})
    name, passed, detail = cli._numbers_finite(table, nonfinite)
    assert not passed and detail.startswith("utt_probe is -inf in row 2 of 2;")


SCAN_COLUMNS = ["lambda", "gap_scaled", "log_scale", "gap"]


@pytest.mark.parametrize("gap", [math.inf, -math.inf])
def test_numbers_finite_allows_either_infinite_gap_in_inequality_scan(gap):
    table = ResultTable(SCAN_COLUMNS, [[8.0, 0.5, 750.0, gap]], {})
    assert cli._numbers_finite(table, SUBCOMMANDS["inequality-scan"].nonfinite)[1]


@pytest.mark.parametrize(
    "row, where",
    [
        ([8.0, math.inf, 750.0, math.inf], "gap_scaled is inf in row 1 of 1"),
        ([8.0, 0.5, math.inf, math.inf], "log_scale is inf in row 1 of 1"),
        ([8.0, 0.5, 750.0, math.nan], "gap is nan in row 1 of 1"),
    ],
)
def test_numbers_finite_keeps_the_scan_sums_finite_and_gap_free_of_nan(row, where):
    table = ResultTable(SCAN_COLUMNS, [row], {})
    name, passed, detail = cli._numbers_finite(table, SUBCOMMANDS["inequality-scan"].nonfinite)
    assert not passed and detail.startswith(where + ";")


# gap = gap_scaled e^log_scale overflows by design once log_scale reaches 700: the
# bundled T4.2 scan at lambda 1024, and the T6.2 cone scan of
# tests/test_identities.py::test_gap_t62_cone_preset_positive at every lambda
BEYOND_EXP = {
    "T4.2 lambda 1024": (
        dict(
            json.loads((CONFIG_DIR / "inequality_scan_t42.json").read_text()),
            weights={"lambdas": [8, 1024], "gamma": 2.0, "mu": 0.01, "t0": 0.0, "x0": [0.0]},
        ),
        [False, True],
    ),
    "T6.2 cone": (
        {
            "experiment": "inequality-scan",
            "preset": "T6.2",
            "rho": {"name": "cone_level", "params": {"a": 0.9, "t0": 0.0, "cx1": 0.0}},
            "varrho": 2.0,
            "u": {"name": "bump4", "params": {"amp": 1.0, "tc": 3.2, "rt": 0.15, "cx1": 0.0, "rx1": 0.15}},
            "weights": {"lambdas": [8.0, 16.0], "gamma": 1.0, "mu": 0.0, "t0": 0.0, "x0": [0.0]},
            "region": {"t_lo": 2.9, "t_hi": 3.5, "nt": 61, "x_lo": [-0.35], "x_hi": [0.35], "nx": 71},
            "c1": 4.0,
            "b1": 4.0,
            "assert_nonnegative": True,
        },
        [True, True],
    ),
}


@pytest.mark.parametrize("case", sorted(BEYOND_EXP))
def test_scan_whose_gap_overflows_by_design_exits_0(tmp_path, case):
    cfg, overflows = BEYOND_EXP[case]
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(path), "inequality-scan", out_dir=str(out)) == 0
    log = (out / "inequality-scan.log").read_text()
    assert "PASS gap_nonnegative:" in log and "PASS numbers_finite:" in log
    with open(out / "inequality-scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["gap"] == "inf" for r in rows] == overflows
    assert all(math.isfinite(float(r[col])) for r in rows for col in ("gap_scaled", "log_scale"))


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
    match = re.fullmatch(
        r"FAIL run_error: support reached the boundary ring on path 0 at t = ([0-9.]+) \(step (\d+)\); "
        r"reach from the initial data: numerical ([0-9.e+-]+) \(one node per step\), unit speed ([0-9.e+-]+)",
        fail[0],
    )
    assert match, fail[0]
    # the scheme's numerical domain of dependence runs ahead of unit speed: one node per step
    t, step, numerical, unit = match.groups()
    assert float(numerical) == pytest.approx(int(step) * 0.02) and float(unit) == pytest.approx(float(t))
    assert float(numerical) > float(unit)
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


def _edited(name, **changes):
    """A bundled config with ``changes`` applied; a dict value is merged into that key's object."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    for key, value in changes.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    return cfg


# configs whose vectors disagree with the dimension of their run, and a fragment of each message
DIMENSION_MISMATCHES = {
    # an a2 entry beyond the grid's axes would differentiate along the Monte Carlo path axis
    "a2-longer-than-grid": ("propagation", _edited("propagation.json", coeffs={"a2": [0.0, 0.5]}), "a2 has 2 entries"),
    "x0-shorter-than-region": (
        "inequality-scan",
        _edited("inequality_scan_t42.json", region={"x_lo": [-0.02, -0.02], "x_hi": [0.15, 0.15]}),
        "x0 has 1 entries for dimension 2",
    ),
    "x0-longer-than-region": (
        "inequality-scan", _edited("inequality_scan_t42.json", weights={"x0": [0.0, 5.0]}), "x0 has 2 entries for dimension 1",
    ),
    "x0-longer-than-grid": ("ucp-decay", _edited("ucp_decay.json", weights={"x0": [0.0, 5.0]}), "x0 has 2 entries"),
    "region-x-lo-and-x-hi": (
        "inequality-scan", _edited("inequality_scan_t42.json", region={"x_hi": [0.15, 0.15]}), "x_lo has 1 entries and x_hi 2",
    ),
    "support-ball-centre": (
        "propagation", _edited("propagation.json", support={"balls": [{"center": [0.0, 0.0], "radius": 0.2}]}),
        "support has dimension 2 for a grid of dimension 1",
    ),
    "support-box-lo-and-hi": (
        "propagation", _edited("propagation.json", support={"boxes": [{"lo": [-0.2], "hi": [0.2, 0.3]}]}),
        "components have dimensions [1, 2]",
    ),
    "geometry-direction": ("geometry", _edited("geometry.json", direction=[1.0, 1.0]), "direction has 2 entries"),
}


@pytest.mark.parametrize("case", sorted(DIMENSION_MISMATCHES))
def test_dimension_mismatch_is_a_config_error(tmp_path, capsys, case):
    subcommand, cfg, message = DIMENSION_MISMATCHES[case]
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(path), subcommand, out_dir=str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


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


@pytest.mark.parametrize("subcommand, config", [("geometry", "geometry.json"), ("identity-check", "identity_check.json")])
def test_paths_on_a_subcommand_without_paths_is_a_usage_error(tmp_path, capsys, subcommand, config):
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(CONFIG_DIR / config), "--paths", "5", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: --paths: {subcommand} takes no paths"]
    assert not out.exists()


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    import gc

    # main freezes the heap only at exit, so a process that calls it keeps collecting its objects
    assert cli.main(["geometry", "--config", str(CONFIG_DIR / "geometry.json"), "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0


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


def test_geometry_bad_vertex_fails_vertex_residuals_and_keeps_its_csv(tmp_path, monkeypatch):
    from carleman_lab import cones

    # a vertex off the boundary intersection: vertex's separation precondition still holds
    monkeypatch.setattr(cones, "_K_FRAC", cones._K_FRAC * 1.001)
    out = tmp_path / "out"
    assert run(str(CONFIG_DIR / "geometry.json"), "geometry", out_dir=str(out)) == 1
    fail = _fail_lines(out / "geometry.log")
    assert fail[0].startswith("FAIL vertex_residuals: ("), fail
    with open(out / "geometry.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert max(float(row["vertex_residual_1"]), float(row["vertex_residual_2"])) > cones.VERTEX_TOL


# each randomized check and the relative residual that decides each of its rows
RESIDUAL_OF_ROW = {
    "identity-check": lambda row: float(row["relative_residual"]),
    "conjugation-check": lambda row: max(float(row["conjugation_residual"]), float(row["cutoff_residual"])),
}


@pytest.mark.parametrize("subcommand, cases", [("identity-check", 20), ("conjugation-check", 10)])
def test_row_pass_and_max_relative_residual_share_one_predicate(tmp_path, subcommand, cases):
    first = tmp_path / "first"
    assert run(_write(tmp_path, {"experiment": subcommand, "cases": cases}), subcommand, out_dir=str(first)) == 0
    with open(first / f"{subcommand}.csv") as fh:
        residuals = sorted({RESIDUAL_OF_ROW[subcommand](row) for row in csv.DictReader(fh)})
    # a tolerance strictly between two of the cases' residuals
    mid = len(residuals) // 2
    tol = 0.5 * (residuals[mid - 1] + residuals[mid])
    assert residuals[mid - 1] < tol < residuals[mid]
    out = tmp_path / "out"
    cfg = {"experiment": subcommand, "cases": cases, "tolerance": tol}
    assert run(_write(tmp_path, cfg), subcommand, out_dir=str(out)) == 1
    assert [line.split(":")[0] for line in _fail_lines(out / f"{subcommand}.log")] == ["FAIL max_relative_residual"]
    with open(out / f"{subcommand}.csv") as fh:
        rows = list(csv.DictReader(fh))
    failed = {row["case"] for row in rows if row["pass"] == "0"}
    assert failed == {row["case"] for row in rows if RESIDUAL_OF_ROW[subcommand](row) > tol}
    assert 0 < len(failed) < len(rows)


def test_nan_residual_fails_its_row_and_max_relative_residual(tmp_path, monkeypatch):
    from carleman_lab import identities

    real, calls = identities.identity_case, []

    def nan_second_case(*args):
        case = real(*args)
        calls.append(1)
        if len(calls) != 2:
            return case
        return identities.IdentityCase(identities.IdentityReport(case.report.lhs, math.nan, math.nan), case.frame, case.V, case.N)

    monkeypatch.setattr(identities, "identity_case", nan_second_case)
    out = tmp_path / "out"
    assert run(_write(tmp_path, {"experiment": "identity-check", "cases": 5}), "identity-check", out_dir=str(out)) == 1
    fail = [line.split(":")[0] for line in _fail_lines(out / "identity-check.log")]
    assert fail == ["FAIL max_relative_residual", "FAIL numbers_finite"]
    assert "FAIL max_relative_residual: nan <= 1e-08" in (out / "identity-check.log").read_text()
    with open(out / "identity-check.csv") as fh:
        assert [row["pass"] for row in csv.DictReader(fh)] == ["1", "0", "1", "1", "1"]


def test_qv_check_without_diffusion_passes_on_two_exact_zeros(tmp_path):
    out = tmp_path / "out"
    cfg = _edited("qv_check.json", coeffs={"b1": 0.0, "b2": 0.0})
    assert run(_write(tmp_path, cfg), "qv-check", out_dir=str(out)) == 0
    assert "PASS qv_agreement: rel 0.000e+00 <= 0.05" in (out / "qv-check.log").read_text()
    with open(out / "qv-check.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["empirical_qv"], row["predicted_qv"], row["pass"]) == ("0.0", "0.0", "1")


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


# the bundled grids but with a step whose num_steps * dt rounds below t_max: 11 * 0.03 is 0.32999999999999996
SHORT_STEP_GRID = {"bounds": [[-1.5, 1.5]], "dx": 0.03, "dt": 0.03, "cfl": 1.0, "t_max": 0.33}


def _recorded_times(monkeypatch) -> list:
    """Wrap solver.solve so that each call appends the record times it returns."""
    recorded = []
    original = solver.solve

    def recording(*args, **kwargs):
        times, out = original(*args, **kwargs)
        recorded.append(list(times))
        return times, out

    monkeypatch.setattr(solver, "solve", recording)
    return recorded


def _write(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_propagation_writes_its_last_step_once(tmp_path):
    cfg = _edited("propagation.json", grid=SHORT_STEP_GRID, stride=1)
    assert run(_write(tmp_path, cfg), "propagation", out_dir=str(tmp_path / "out")) == 0
    with open(tmp_path / "out" / "propagation.csv") as fh:
        times = [float(row["time"]) for row in csv.DictReader(fh)]
    # steps 0 .. 11, the last at 11 * dt
    assert len(times) == 12 and times[-1] == 11 * 0.03
    assert all(a < b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("subcommand, config, grid, records", [
    ("ucp-decay", "ucp_decay.json", SHORT_STEP_GRID, 12),
    ("qv-check", "qv_check.json", {"dt": 0.0003, "t_max": 0.27}, 901),
])
def test_monte_carlo_run_records_each_step_once(tmp_path, monkeypatch, subcommand, config, grid, records):
    recorded = _recorded_times(monkeypatch)
    assert run(_write(tmp_path, _edited(config, grid=grid)), subcommand, out_dir=str(tmp_path / "out")) == 0
    assert len(recorded) == 1 and len(recorded[0]) == records
    assert all(a < b for a, b in zip(recorded[0], recorded[0][1:]))


def _count_mesh_samples(monkeypatch, name) -> list:
    """Wrap AnalyticFn.partials so that each evaluation of the registry entry ``name`` at an
    array of times (a sample on the mesh, not a jet at one point) appends 1."""
    from carleman_lab.fields import AnalyticFn

    calls = []
    original = AnalyticFn.partials

    def counting(self, t, x, alphas):
        if self.name == name and not np.isscalar(t):
            calls.append(1)
        return original(self, t, x, alphas)

    monkeypatch.setattr(AnalyticFn, "partials", counting)
    return calls


def _count_sampler_sets(monkeypatch) -> list:
    calls = []
    original = solver.make_samplers

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "make_samplers", counting)
    return calls


@pytest.mark.parametrize("subcommand, config", [
    ("propagation", "propagation.json"), ("ucp-decay", "ucp_decay.json"), ("qv-check", "qv_check.json"),
])
def test_bundled_monte_carlo_run_has_one_setup(tmp_path, monkeypatch, subcommand, config):
    # u0 is sampled once for the stencil check, the data-support check and the initial state,
    # and one sampler set serves the initial state and every step
    u0_name = json.loads((CONFIG_DIR / config).read_text())["u0"]["name"]
    samples = _count_mesh_samples(monkeypatch, u0_name)
    sampler_sets = _count_sampler_sets(monkeypatch)
    assert run(str(CONFIG_DIR / config), subcommand, out_dir=str(tmp_path)) == 0
    assert len(samples) == 1
    assert len(sampler_sets) == 1


# bundled ucp-decay data that lies wholly where rho > 0, and the bundled u0 left in place
UCP_LEAKS = {
    "tiny-u0": {"u0": {"name": "space_bump4", "params": {"amp": 5e-13, "cx1": -0.7, "rx1": 0.2}}},
    "u1": {"u1": {"name": "space_bump4", "params": {"amp": 1.0, "cx1": -0.7, "rx1": 0.2}}},
}


@pytest.mark.parametrize("case", sorted(UCP_LEAKS))
def test_ucp_decay_data_on_the_positive_side_fails_by_relative_leak(tmp_path, case):
    cfg = {**json.loads((CONFIG_DIR / "ucp_decay.json").read_text()), **UCP_LEAKS[case]}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), "ucp-decay", out_dir=str(out)) == 1
    assert _fail_lines(out / "ucp-decay.log") == ["FAIL data_vanishes_on_positive_side: relative leak 1.000e+00"]


def test_propagation_u1_outside_k_is_a_config_error(tmp_path, capsys):
    cfg = _edited("propagation.json")
    cfg["u1"] = {"name": "space_bump4", "params": {"amp": 1e-13, "cx1": 0.5, "rx1": 0.2}}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), "propagation", out_dir=str(out)) == 2
    assert not out.exists()
    assert "initial data is not supported in K (relative leak 1)" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, config, err", [
    ("propagation", "propagation.json", "9.371e-04"),
    ("ucp-decay", "ucp_decay.json", "0.000e+00"),
])
def test_stencil_sanity_log_of_the_bundled_runs(tmp_path, subcommand, config, err):
    # the check reads only the grid and u0, so two paths log the bundled run's line
    run(str(CONFIG_DIR / config), subcommand, out_dir=str(tmp_path), paths=2)
    log = (tmp_path / f"{subcommand}.log").read_text().splitlines()
    assert f"PASS stencil_sanity: stencil vs jet rel err {err}" in log


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


# the subcommands that reach each exported function of the package, at seed 0
ROUTES = {
    "fields.make_fn": {
        "assumption-check", "conjugation-check", "d2-check", "expansion-check", "identity-check",
        "inequality-scan", "propagation", "psd-check", "qv-check", "ucp-decay",
    },
    "fields.make_grid": {"propagation", "qv-check", "ucp-decay"},
    "fields.sample_brownian": {"propagation", "qv-check", "ucp-decay"},
    "weights.assumption_check": {"assumption-check"},
    "weights.build_M": {"assumption-check", "d2-check"},
    "weights.eval_D": {"d2-check", "expansion-check"},
    "weights.eval_VN": {"identity-check"},
    "weights.psd_certificate": {"psd-check"},
    "identities.conjugation_residual": {"conjugation-check"},
    "identities.inequality_gap": {"inequality-scan"},
    "identities.qv_check": {"qv-check"},
    "solver.solve": {"propagation", "qv-check", "ucp-decay"},
    "solver.total_energy": {"propagation", "ucp-decay"},
    "propagation.distance_to_set": {"propagation"},
    "propagation.run_propagation": {"propagation"},
    "cones.c3_constant": {"geometry", "sweep"},
    "cones.membership": {"geometry"},
    "cones.sweep_cover": {"sweep"},
    "cones.vertex": {"geometry"},
}


def _exported_functions():
    import carleman_lab

    return {
        f"{module}.{name}": getattr(carleman_lab, name)
        for module, names in carleman_lab._EXPORTS.items()
        for name in names
        if inspect.isfunction(getattr(carleman_lab, name))
    }


def test_route_table_covers_all_module_operations():
    assert set(_exported_functions()) == set(ROUTES)
    for op, subs in ROUTES.items():
        assert subs <= set(SUBCOMMANDS), f"{op} routes to unknown subcommands {subs - set(SUBCOMMANDS)}"


def test_every_operation_reachable_from_a_subcommand(tmp_path):
    # runs every bundled config under a profiler and records which subcommands
    # call each exported function; the measured routes must equal ROUTES
    by_code = {fn.__code__: key for key, fn in _exported_functions().items()}
    reached = collections.defaultdict(set)
    sub = None

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            reached[by_code[frame.f_code]].add(sub)

    # each bundled config at a size that takes every route the full one takes;
    # qv-check keeps its 100 paths, the fewest it accepts
    smaller = {"cases": 2, "samples": 2, "paths": 2}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        sub = cfg["experiment"]
        cfg.update({k: v for k, v in smaller.items() if k in cfg and sub != "qv-check"})
        small = tmp_path / path.name
        small.write_text(json.dumps(cfg))
        sys.setprofile(profile)
        try:
            assert run(str(small), sub, out_dir=str(tmp_path / sub)) == 0
        finally:
            sys.setprofile(None)
    assert dict(reached) == ROUTES


def test_every_subcommand_has_schema_and_runner():
    assert len(SUBCOMMANDS) == 12
    for name, record in SUBCOMMANDS.items():
        assert callable(record.run), name
        assert record.schema["properties"]["experiment"] == {"const": name}
        assert set(record.nonfinite.values()) <= {"nan", "inf"}, name


@pytest.mark.parametrize(
    "name, subcommand",
    [("propagation.json", "propagation"), ("qv_check.json", "qv-check"), ("ucp_decay.json", "ucp-decay")],
)
def test_manufactured_from_is_an_unknown_coefficient_key(tmp_path, capsys, name, subcommand):
    # coeffs.manufactured_from was a drift knob without a verdict; a config that still holds it is unusable
    spec = {"name": "space_bump4", "params": {"amp": 1.0, "cx1": 0.0, "rx1": 0.2}}
    errors = _config_errors(tmp_path, capsys, name, subcommand, lambda c: c["coeffs"].update(manufactured_from=spec))
    assert len(errors) == 1 and errors[0].startswith("config error: coeffs: "), errors
    assert "'manufactured_from' unexpected" in errors[0]


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


_FREEZE_CHILD = """
import atexit, gc, sys
import carleman_lab.cli as cli
# atexit runs its handlers last in, first out, so this one reads the count after main's handler ran
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
code = cli.main(["geometry", "--config", sys.argv[1], "--out", sys.argv[2]])
print("after main:", code, gc.get_freeze_count())
"""


def test_cli_process_freezes_its_heap_at_exit(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _FREEZE_CHILD, str(CONFIG_DIR / "geometry.json"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-2:] == ["after main: 0 0", "frozen at exit: True"]


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
    assert len(carleman_lab.__all__) == 38  # __version__ and 37 exported names
    for name in carleman_lab.__all__:
        getattr(carleman_lab, name)
    with pytest.raises(AttributeError):
        carleman_lab.no_such_name
