#!/usr/bin/env python3
"""Record bench/reference.json: the program seeds and result digests of every benchmark run.

    python3 bench/make_reference.py

Seeds 0, 1, 2, ... are tried in turn until ``SEED_SLOTS`` of them pass every
run of every workload.  A seed on which some run does not exit 0 is listed
under "excluded" with the reason, and the benchmark never uses it.  Run this
only at a commit whose numeric CSV columns are the accepted ones; the
benchmark then fails any run whose columns differ.
"""

from __future__ import annotations

import itertools
import json
import sys

import workloads as wl


def _reason(run: wl.Run, directory, code: int, detail: str) -> str:
    try:
        log = (directory / f"{run.sub}.log").read_text(encoding="utf-8")
        detail = "; ".join(line for line in log.splitlines() if line.startswith("FAIL")) or detail
    except FileNotFoundError:
        pass
    return f"{run.sub} exit {code}: {detail}"


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    import carleman_lab.cli as cli

    runs = {run.key: run for runs in wl.WORKLOADS.values() for run in runs}
    seeds, excluded, digests = [], {}, {}
    for seed in itertools.count():
        found = {}
        for key, run in sorted(runs.items()):
            directory = wl.OUT / "reference" / key
            code, detail = wl.run_in_process(cli, run, seed, directory)
            if code != 0:
                excluded[str(seed)] = _reason(run, directory, code, detail)
                break
            found[key] = wl.result_digest((directory / f"{run.sub}.csv").read_text(encoding="utf-8"))
        else:
            seeds.append(seed)
            digests[str(seed)] = found
        print(f"seed {seed}: {excluded.get(str(seed), 'recorded')}", flush=True)
        if len(seeds) == wl.SEED_SLOTS:
            break
    reference = {"seeds": seeds, "excluded": excluded, "digests": digests}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
