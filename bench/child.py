#!/usr/bin/env python3
"""Child processes of the benchmark.

    python3 bench/child.py setup <workload> <program-seed>,<program-seed>,...
        Time ``import carleman_lab.cli`` and the workload's warm-up in this
        fresh process; print {"import_s": ..., "warmup_s": ...}.
    python3 bench/child.py cli <record.json> <carleman-lab arguments...>
        Run one carleman-lab command with the span recorder installed and
        write the spans, counts and import time to <record.json>.

The exit code of ``cli`` mode is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads as wl


def _import_cli():
    sys.path.insert(0, str(wl.SRC))
    t0 = time.perf_counter()
    import carleman_lab.cli as cli

    return cli, time.perf_counter() - t0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        workload, seeds = rest
        cli, import_s = _import_cli()
        warmup_s = wl.warm_up(cli, workload, [int(s) for s in seeds.split(",")])
        print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
        return 0
    if mode == "cli":
        record_path, cli_args = Path(rest[0]), rest[1:]
        cli, import_s = _import_cli()
        import spans

        recorder = spans.Recorder()
        recorder.install()
        try:
            code = cli.main(cli_args)
        finally:
            recorder.uninstall()
            record_path.write_text(json.dumps(dict(recorder.record(), import_s=import_s)), encoding="utf-8")
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
