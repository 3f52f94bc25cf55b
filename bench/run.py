#!/usr/bin/env python3
"""carleman-lab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload verify-cases --seed 1 --seconds 40 --trace 0

It imports carleman_lab from the checkout's ``src`` and writes only under
``.bench_build/``.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it prints the per-layer metrics, taken
from passes run with the span recorder installed; these alternate with plain
passes, and the difference in wall time is the tracing overhead.  The last
line of standard output is the result object; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl

SETUP_SAMPLES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared(kind: str) -> dict:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _environment(args, seeds: list, reference: dict, propagation) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "threads": propagation.worker_count(),
        "CARLEMAN_LAB_THREADS": os.environ.get("CARLEMAN_LAB_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "program_seeds_first_pass": seeds,
        "excluded_program_seeds": sorted(int(k) for k in reference["excluded"]),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_probes(args, seeds: list, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes (import, plus the warm-up when warm)."""
    env = wl.child_env()
    samples = []
    for _ in range(count):
        if args.workload in wl.WARM:
            cmd = [sys.executable, str(wl.BENCH / "child.py"), "setup", args.workload, ",".join(map(str, seeds))]
            done = wl.run_child(cmd, env, stdout=subprocess.PIPE, check=True, text=True)
            probe = json.loads(done.stdout.splitlines()[-1])
            samples.append(probe["import_s"] + probe["warmup_s"])
        else:
            t0 = time.perf_counter()
            wl.run_child([sys.executable, "-c", "import carleman_lab.cli"], env, check=True)
            samples.append(time.perf_counter() - t0)
    return samples


class Bench:
    def __init__(self, args, cli, import_s: float, reference: dict):
        self.args = args
        self.cli = cli
        self.import_s = import_s
        self.reference = reference
        self.runs = wl.WORKLOADS[args.workload]
        self.warm = args.workload in wl.WARM
        self.attempted = 0
        self.failed = 0

    def _count(self, result: wl.PassResult) -> list[float]:
        self.attempted += result.attempted
        self.failed += result.failed
        return result.run_walls

    def seeds(self, index: int) -> list[int]:
        return wl.pass_seeds(self.args.seed, index, self.runs, self.reference)

    def plain_pass(self, seeds) -> list[float]:
        if self.warm:
            return self._count(wl.warm_pass(self.cli, self.args.workload, seeds, self.reference))
        prefix = [sys.executable, "-m", "carleman_lab.cli"]
        return self._count(wl.cold_pass(seeds, self.reference, lambda run: prefix))

    def traced_pass(self, seeds) -> tuple[list[float], dict]:
        """Run wall times and {run key: record} of one pass with spans recorded."""
        records = {}
        if self.warm:
            recorder = spans.Recorder()

            def after_run(run):
                records[run.key] = recorder.record()
                recorder.clear()

            recorder.install()
            try:
                run_walls = self._count(wl.warm_pass(self.cli, self.args.workload, seeds, self.reference, after_run))
            finally:
                recorder.uninstall()
            return run_walls, records
        span_dir = wl.OUT / "cold-cli" / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        for stale in span_dir.glob("*.json"):
            stale.unlink()
        child = [sys.executable, str(wl.BENCH / "child.py"), "cli"]
        run_walls = self._count(wl.cold_pass(seeds, self.reference, lambda run: child + [str(span_dir / f"{run.key}.json")]))
        for run in self.runs:
            path = span_dir / f"{run.key}.json"
            if path.is_file():
                records[run.key] = json.loads(path.read_text(encoding="utf-8"))
        return run_walls, records

    def layer_metrics(self, records: dict, plain_wall: float) -> dict:
        stats = {key: spans.layer_stats(rec["spans"]) for key, rec in records.items()}

        def total(name, field, keys=None):
            return sum(st.get(name, {}).get(field, 0) for key, st in stats.items() if keys is None or key in keys)

        def ratio(num, base):
            return num / base if base else 0.0

        case_keys = {r.key for r in self.runs if r.cases}
        identity_keys = {r.key for r in self.runs if r.sub == "identity-check"}
        cases = sum(r.cases for r in self.runs)
        identity_cases = sum(r.cases for r in self.runs if r.key in identity_keys)
        sane = [flag for rec in records.values() for flag in rec["sane"]]
        node_steps = sum(n for rec in records.values() for n in rec["node_steps"])
        imports = [rec["import_s"] for rec in records.values() if "import_s" in rec] or [self.import_s]
        m = {}
        for layer in (
            "fields.fn_build", "fields.eval", "fields.noise", "weights.family_build",
            "weights.quantities", "weights.eval_D", "identities.assemble", "solver.solve",
        ):
            m[f"{layer}.count"] = total(layer, "count")
            m[f"{layer}.s"] = total(layer, "s")
        m["fields.compile.count"] = total("fields.compile.lambdify", "count")
        m["fields.compile.s"] = total("fields.compile.lambdify", "s") + total("fields.compile.diff", "s")
        m["fields.noise.sane_ratio"] = ratio(sum(sane), len(sane))
        m["weights.family_build.per_case"] = ratio(total("weights.family_build", "count", case_keys), cases)
        m["weights.family_build.base_cases"] = cases
        m["identities.assemble.per_case"] = ratio(total("identities.assemble", "count", identity_keys), identity_cases)
        m["identities.assemble.base_cases"] = identity_cases
        m["identities.qv_check.self_s"] = total("identities.qv_check", "self_s")
        m["solver.solve.covered_s"] = total("solver.solve", "covered_s")
        m["solver.step.count"] = sum(len(rec["node_steps"]) for rec in records.values())
        m["solver.node_steps"] = node_steps
        m["solver.node_steps_per_s"] = node_steps / plain_wall
        m["propagation.run.self_s"] = total("propagation.run", "self_s")
        m["cones.sweep_cover.s"] = total("cones.sweep_cover", "s")
        m["cli.import_s"] = statistics.median(imports)
        m["cli.validate.s"] = total("cli.validate", "s")
        m["cli.emit.s"] = total("cli.emit", "s")
        return m


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (wl.SRC / "carleman_lab" / "__init__.py").is_file():
        print(f"no carleman_lab sources under {wl.SRC}; run from a full checkout", file=sys.stderr)
        return 2
    units = _declared("per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, str(wl.SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("carleman_lab.cli")
    import_s = time.perf_counter() - t0
    if wl.SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"carleman_lab imported from {cli.__file__}, not from {wl.SRC}", file=sys.stderr)
        return 2
    reference = wl.load_reference()
    bench = Bench(args, cli, import_s, reference)
    env = _environment(args, bench.seeds(0), reference, importlib.import_module("carleman_lab.propagation"))
    # set-up samples: this process (import plus warm-up) and fresh probe
    # processes; for cold-cli only probes, whose time includes interpreter start
    setup = [import_s + wl.warm_up(cli, args.workload, bench.seeds(0))] if bench.warm else []
    if not args.trace:
        setup += _setup_probes(args, bench.seeds(0), SETUP_SAMPLES - len(setup))

    # repeat while another cycle as long as the last one still ends by the
    # --seconds mark, so a cold-cli pass longer than half of it runs once
    deadline = time.perf_counter() + args.seconds
    walls, traced = [], []
    for index in itertools.count():
        seeds = bench.seeds(index)
        gc.collect()
        t0 = time.perf_counter()
        walls.append(bench.plain_pass(seeds))
        if args.trace:
            gc.collect()
            traced.append(bench.traced_pass(seeds))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break

    wall_s = wl.pass_wall(walls)
    if args.trace:
        per_pass = [bench.layer_metrics(records, wall_s) for _, records in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.wall_s"] = wl.pass_wall([run_walls for run_walls, _ in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        spans_out = wl.OUT / f"{args.workload}-spans.json"
        spans_out.write_text(json.dumps(traced[-1][1]), encoding="utf-8")
    else:
        who = resource.RUSAGE_SELF if bench.warm else resource.RUSAGE_CHILDREN
        work = sum(r.cases + r.paths for r in bench.runs)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "cases_per_s": work / wall_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "pass_ratio": (bench.attempted - bench.failed) / bench.attempted,
        }
    result = _result(bench.failed == 0, bench.attempted, bench.failed, values, units)
    (wl.OUT / f"{args.workload}-result.json").write_text(
        json.dumps({"environment": env, "run_walls_s": walls, "setup_s": setup, **result}, indent=1), encoding="utf-8"
    )
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
