#!/usr/bin/env python3
"""Run the randomized verify checks on seeds 0-44 and compare them with a recorded sweep.

    PYTHONPATH=src python3 scripts/seed_sweep.py --check     # compare with tests/data/seed_sweep.json
    PYTHONPATH=src python3 scripts/seed_sweep.py --record    # rewrite that file

Each run is one bundled config (``run_all_experiments.bundled``, by file stem),
run as its ``experiment`` at one program seed: identity-check at n = 1 and
n = 2, conjugation-check, expansion-check, d2-check and the bundled inequality
scan, 270 runs in all.  A run is recorded by its exit code, the digest of its
CSV without the config_hash, version and wall_time_s columns
(``bench/workloads.result_digest``; null when no CSV is written) and the
PASS/FAIL lines of its log.  A run that FAILs is recorded as it is, so a change
to the program that changes any verdict, any numeric column or any assertion
message shows up here.  Record only at a commit whose numbers are the
accepted ones.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
RECORD = ROOT / "tests" / "data" / "seed_sweep.json"
SEEDS = range(45)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


WL = _load_workloads()
# (name, bundled config stem, changes to that config)
RUNS = (
    ("identity_check_n1", "identity_check", {}),
    ("identity_check_n2", "identity_check", {"n": 2}),
    ("conjugation_check", "conjugation_check", {}),
    ("expansion_check", "expansion_check", {}),
    ("d2_check", "d2_check", {}),
    ("inequality_scan_t42", "inequality_scan_t42", {}),
)


def _one(cli, sub: str, config: Path, seed: int, out: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(str(config), sub, out_dir=str(out), seed=seed)
    csv_path, log = out / f"{sub}.csv", (out / f"{sub}.log").read_text(encoding="utf-8")
    digest = WL.result_digest(csv_path.read_text(encoding="utf-8")) if csv_path.exists() else None
    return {
        "exit": code,
        "digest": digest,
        "assertions": [line for line in log.splitlines() if line.startswith(("PASS ", "FAIL "))],
    }


def sweep() -> dict:
    import carleman_lab.cli as cli
    from run_all_experiments import bundled

    manifest = {stem: (sub, path) for stem, sub, path in bundled()}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, stem, changes in RUNS:
            sub, path = manifest[stem]
            config = tmp / f"{name}.json"
            config.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), **changes}), encoding="utf-8")
            out[name] = {}
            for seed in SEEDS:
                directory = tmp / name / str(seed)
                out[name][str(seed)] = _one(cli, sub, config, seed, directory)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the recorded sweep; exit 1 on any difference")
    mode.add_argument("--record", action="store_true", help="write the sweep to the record file")
    args = p.parse_args(argv)
    got = sweep()
    if args.record:
        RECORD.parent.mkdir(parents=True, exist_ok=True)
        RECORD.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {sum(map(len, got.values()))} runs in {RECORD.relative_to(ROOT)}")
        return 0
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    differ = [
        f"{name} seed {seed}: recorded {want.get(name, {}).get(seed)}, got {result}"
        for name, runs in got.items()
        for seed, result in runs.items()
        if want.get(name, {}).get(seed) != result
    ]
    if sorted(want) != sorted(got):
        differ.append(f"recorded runs {sorted(want)}, swept {sorted(got)}")
    for line in differ:
        print(line)
    print(f"{sum(map(len, got.values()))} runs, {len(differ)} differ from {RECORD.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
