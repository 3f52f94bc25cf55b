"""Reference runs reproduce the CSV digests that the benchmark recorded in
bench/reference.json, at program seed 0: the Monte Carlo runs, the four
randomized verify runs and the bundled inequality scan.

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


def _check_digest(tmp_path, ref_run):
    want = WL.load_reference()["digests"]["0"][ref_run.key]
    assert run(str(ref_run.config), ref_run.sub, out_dir=str(tmp_path), seed=0) == 0
    got = WL.result_digest((tmp_path / f"{ref_run.sub}.csv").read_text(encoding="utf-8"))
    assert got == want


@pytest.mark.parametrize("ref_run", WL.MONTE_CARLO_RUNS, ids=lambda r: r.key)
def test_monte_carlo_run_matches_the_reference_digest(tmp_path, ref_run):
    _check_digest(tmp_path, ref_run)


@pytest.mark.parametrize("ref_run", WL.VERIFY_RUNS + (INEQUALITY_SCAN,), ids=lambda r: r.key)
def test_verify_run_matches_the_reference_digest(tmp_path, ref_run):
    _check_digest(tmp_path, ref_run)
