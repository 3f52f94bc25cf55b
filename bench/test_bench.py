"""Smoke test of the benchmark itself (about two minutes; not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q

Each workload runs once with ``--seconds 1`` (a single pass, the smallest run
the benchmark makes) in both modes; every metric BENCHMARK.json declares must
print with its unit, and no run may fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    done = _bench(wl.ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_digest_covers_result_columns_only():
    csv_text = "case,lhs,pass,config_hash,version,wall_time_s\n0,1.25,1,abc,0.1.0,0.5\n"
    base = wl.result_digest(csv_text)
    assert wl.result_digest(csv_text.replace("1.25", "1.35")) != base
    assert wl.result_digest(csv_text.replace("0.5\n", "0.7\n")) == base


def test_one_changed_digit_fails_the_check(tmp_path):
    run = wl.IDENTITY
    (tmp_path / f"{run.sub}.csv").write_text("case,lhs,wall_time_s\n0,1.25,0.5\n", encoding="utf-8")
    digest = wl.result_digest("case,lhs\n0,1.25\n")
    assert wl.check(run, tmp_path, 0, {run.key: digest}) is None
    changed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    assert wl.check(run, tmp_path, 0, {run.key: changed}) is not None
    assert wl.check(run, tmp_path, 1, {run.key: digest}) is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "verify-cases", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
