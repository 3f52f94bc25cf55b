"""Reference runs reproduce the CSV digests that the benchmark recorded in
bench/reference.json, at every program seed recorded there: the Monte Carlo
runs, the four randomized verify runs and the bundled inequality scan.

A reordered sum, a power rewritten as a product or an evaluator called with
another argument type changes the last bits of a column and so the digest;
this catches it without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from carleman_lab.cli import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


WL = _load_workloads()


INEQUALITY_SCAN = next(r for r in WL.COLD_RUNS if r.sub == "inequality-scan")
SEEDS = WL.load_reference()["seeds"]


def _cases(runs) -> list:
    # seed 0, the bundled configs' own seed, keeps the bare run key as its id
    return [
        pytest.param(ref_run, seed, id=ref_run.key if seed == 0 else f"{ref_run.key}-seed{seed}")
        for ref_run in runs
        for seed in SEEDS
    ]


def _check_digest(tmp_path, ref_run, seed):
    want = WL.load_reference()["digests"][str(seed)][ref_run.key]
    assert run(str(ref_run.config), ref_run.sub, out_dir=str(tmp_path), seed=seed) == 0
    got = WL.result_digest((tmp_path / f"{ref_run.sub}.csv").read_text(encoding="utf-8"))
    assert got == want


@pytest.mark.parametrize("ref_run, seed", _cases(WL.MONTE_CARLO_RUNS))
def test_monte_carlo_run_matches_the_reference_digest(tmp_path, ref_run, seed):
    _check_digest(tmp_path, ref_run, seed)


@pytest.mark.parametrize("ref_run, seed", _cases(WL.VERIFY_RUNS + (INEQUALITY_SCAN,)))
def test_verify_run_matches_the_reference_digest(tmp_path, ref_run, seed):
    _check_digest(tmp_path, ref_run, seed)
