"""Workloads of the carleman-lab benchmark, their passes and the output check.

A pass runs every subcommand of a workload once, one after another.  Warm
workloads call ``carleman_lab.cli.run`` in this process; ``cold-cli`` starts
one fresh interpreter per subcommand, as a user of the command line does.

Each run is checked against ``reference.json``: the exit code must be 0 and
the SHA-256 of the CSV with its metadata columns removed must equal the digest
recorded for the same config and program seed.  The program seeds are the
ones recorded there; the seeds on which some run fails at the reference commit
are listed there with the reason, and are not used, because a run that stops
part-way does a seed-dependent amount of work.  The benchmark seed sets where
``pass_seeds`` starts in that list; each subcommand of a pass, and each pass,
takes the next program seed, because the cost of a run depends on its seed (by
15% between two seeds on verify-cases) and a run's passes should not all share
one seed's cost.

This module imports nothing from carleman_lab, so that callers can time that
import themselves.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "carleman"
REFERENCE = BENCH / "reference.json"
SEED_SLOTS = 8
META_COLUMNS = ("config_hash", "version", "wall_time_s")
CASE_SUBCOMMANDS = ("identity-check", "conjugation-check", "expansion-check", "d2-check")
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Run:
    """One subcommand on one config; ``key`` names it in the reference."""

    key: str
    sub: str
    config: Path

    def load(self) -> dict:
        return json.loads(self.config.read_text(encoding="utf-8"))

    @property
    def cases(self) -> int:
        """Randomized identity, conjugation, expansion or d2 cases per run."""
        if self.sub not in CASE_SUBCOMMANDS:
            return 0
        cfg = self.load()
        return int(cfg.get("cases", cfg.get("samples", 0)))

    @property
    def paths(self) -> int:
        """Monte Carlo paths per run."""
        return int(self.load().get("paths", 0))


def _bundled(sub: str, name: str) -> Run:
    return Run(name, sub, ROOT / "scripts" / "configs" / f"{name}.json")


IDENTITY = _bundled("identity-check", "identity_check")
VERIFY_RUNS = (
    IDENTITY,
    _bundled("conjugation-check", "conjugation_check"),
    _bundled("expansion-check", "expansion_check"),
    _bundled("d2-check", "d2_check"),
)
MONTE_CARLO_RUNS = (
    _bundled("propagation", "propagation"),
    _bundled("qv-check", "qv_check"),
    _bundled("ucp-decay", "ucp_decay"),
    Run("propagation_2d", "propagation", BENCH / "configs" / "propagation_2d.json"),
)
COLD_RUNS = VERIFY_RUNS + (
    _bundled("psd-check", "psd_check"),
    _bundled("assumption-check", "assumption_check"),
    _bundled("qv-check", "qv_check"),
    _bundled("inequality-scan", "inequality_scan_t42"),
    _bundled("propagation", "propagation"),
    _bundled("ucp-decay", "ucp_decay"),
    _bundled("geometry", "geometry"),
    _bundled("sweep", "sweep"),
)
WORKLOADS = {
    "verify-cases": VERIFY_RUNS,
    "monte-carlo": MONTE_CARLO_RUNS,
    "cold-cli": COLD_RUNS,
}
WARM = ("verify-cases", "monte-carlo")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def pass_seeds(seed: int, index: int, runs, reference: dict) -> list[int]:
    """Program seed of each run in pass ``index`` of a benchmark run started with ``seed``."""
    seeds = reference["seeds"]
    return [seeds[(seed + index + j) % len(seeds)] for j in range(len(runs))]


def result_digest(csv_text: str) -> str:
    """SHA-256 of a result CSV without the config_hash, version and wall_time_s columns."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in META_COLUMNS]
    h = hashlib.sha256()
    for row in rows:
        h.update(("\x1f".join(row[i] for i in keep) + "\n").encode())
    return h.hexdigest()


def out_dir(workload: str, run: Run) -> Path:
    return OUT / workload / run.key


def check(run: Run, directory: Path, code: int, digests: dict) -> str | None:
    """Why the run failed, or None when it exited 0 and matches its reference."""
    if code != 0:
        return f"exit code {code}"
    try:
        text = (directory / f"{run.sub}.csv").read_text(encoding="utf-8")
    except FileNotFoundError:
        return "no CSV written"
    got, want = result_digest(text), digests.get(run.key)
    if got != want:
        return f"digest {got[:12]} differs from reference {str(want)[:12]}"
    return None


@dataclass
class PassResult:
    run_walls: list[float]  # wall time of each subcommand run, in workload order
    attempted: int
    failed: int


def pass_wall(run_walls: list[list[float]]) -> float:
    """Wall time of one pass from several: the sum over subcommands of each one's median.

    Each subcommand's runs cycle through the program seeds (``pass_seeds``),
    so its median is its cost at a typical seed, and the host's drift within
    a pass of several seconds is filtered per subcommand rather than per pass.
    """
    return sum(statistics.median(times) for times in zip(*run_walls))


def _finish(workload: str, runs, seeds, outcomes, reference: dict, walls: list[float]) -> PassResult:
    failed = 0
    for run, seed, (code, detail) in zip(runs, seeds, outcomes):
        why = check(run, out_dir(workload, run), code, reference["digests"][str(seed)])
        if why is not None:
            failed += 1
            print(f"FAIL {workload}/{run.key} seed {seed}: {why} {detail}".rstrip(), file=sys.stderr)
    return PassResult(walls, len(runs), failed)


def _clear(directory: Path, run: Run):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{run.sub}.csv").unlink(missing_ok=True)


def run_in_process(cli, run: Run, seed: int, directory: Path, config: Path | None = None) -> tuple[int, str]:
    """Exit code of ``cli.run`` and the error it raised, if any.

    An uncaught error ends a command-line process with exit code 1, so it
    counts as 1 here too; the pass goes on.
    """
    _clear(directory, run)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(str(config or run.config), run.sub, out_dir=str(directory), seed=seed), ""
    except Exception as exc:
        return 1, f"({type(exc).__name__}: {exc})"


def warm_pass(cli, workload: str, seeds, reference: dict, after_run=None) -> PassResult:
    """Run each subcommand in this process with its seed; ``after_run(run)`` is called untimed after each."""
    runs = WORKLOADS[workload]
    outcomes, walls = [], []
    for run, seed in zip(runs, seeds):
        t0 = time.perf_counter()
        outcomes.append(run_in_process(cli, run, seed, out_dir(workload, run)))
        walls.append(time.perf_counter() - t0)
        if after_run is not None:
            after_run(run)
    return _finish(workload, runs, seeds, outcomes, reference, walls)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list, env: dict, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, **kwargs)


def cold_pass(seeds, reference: dict, prefix_for) -> PassResult:
    """Run each subcommand with its seed in a fresh interpreter started with ``prefix_for(run)``."""
    runs, env = WORKLOADS["cold-cli"], child_env()
    outcomes, walls = [], []
    for run, seed in zip(runs, seeds):
        directory = out_dir("cold-cli", run)
        _clear(directory, run)
        cmd = prefix_for(run) + [run.sub, "--config", str(run.config), "--out", str(directory), "--seed", str(seed)]
        t0 = time.perf_counter()
        try:
            done = run_child(cmd, env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            last = done.stderr.strip().splitlines()[-1:]
            outcomes.append((done.returncode, f"({last[0]})" if last else ""))
        except subprocess.TimeoutExpired:
            outcomes.append((-1, f"(timed out after {CHILD_TIMEOUT_S} s)"))
        walls.append(time.perf_counter() - t0)
    return _finish("cold-cli", runs, seeds, outcomes, reference, walls)


def warmup_config(run: Run) -> dict:
    """A tenth of the cases and two paths: enough to compile every evaluator the run uses."""
    cfg = run.load()
    for key in ("cases", "samples"):
        if key in cfg:
            cfg[key] = max(1, cfg[key] // 10)
    if run.sub == "qv-check":
        # qv_check refuses fewer than 100 paths, so shorten the horizon instead
        cfg["grid"] = dict(cfg["grid"], t_max=20 * cfg["grid"]["dt"])
    elif "paths" in cfg:
        cfg["paths"] = 2
    return cfg


def warm_up(cli, workload: str, seeds) -> float:
    """Untimed first pass on reduced configs, filling the evaluator cache; returns its wall time."""
    t0 = time.perf_counter()
    for run, seed in zip(WORKLOADS[workload], seeds):
        directory = OUT / workload / "warmup" / run.key
        directory.mkdir(parents=True, exist_ok=True)
        config = directory / "config.json"
        config.write_text(json.dumps(warmup_config(run)), encoding="utf-8")
        run_in_process(cli, run, seed, directory, config=config)
    return time.perf_counter() - t0
