#!/usr/bin/env python3
"""Run every bundled experiment config through the CLI into out/<stem>/.

    PYTHONPATH=src python scripts/run_all_experiments.py [out] [--gnuplot]

The bundled set is every scripts/configs/*.json, run as the subcommand its
``experiment`` names; a run is named by its file stem.
"""

import json
import pathlib
import sys
import time

from carleman_lab.cli import run

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def bundled() -> list[tuple[str, str, pathlib.Path]]:
    """(stem, experiment, path) of every bundled config, sorted by stem."""
    paths = sorted(CONFIG_DIR.glob("*.json"))
    return [(path.stem, json.loads(path.read_text(encoding="utf-8"))["experiment"], path) for path in paths]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = [a for a in argv if a != "--gnuplot"]
    out_root = pathlib.Path(args[0] if args else "out")
    worst = 0
    for stem, sub, path in bundled():
        t0 = time.perf_counter()
        code = run(str(path), sub, out_dir=str(out_root / stem), gnuplot="--gnuplot" in argv)
        print(f"[{stem}] exit {code} ({time.perf_counter() - t0:.1f}s)")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
