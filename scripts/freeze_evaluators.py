#!/usr/bin/env python3
"""Write src/carleman_lab/_frozen_evaluators.py, the evaluator table of the bundled runs.

    python scripts/freeze_evaluators.py

Runs every bundled config (every scripts/configs/*.json, as
scripts/run_all_experiments.py runs them), the benchmark's 2-D propagation
config, and the identity-check and conjugation-check configs at n = 2, in this
process.  (The seed picks parameter values, not families or derivatives: seeds
0-5, 9, 15, 24, 32, 37 and 44 request the same 242 evaluators.)  Every
(family, multi-index) whose evaluator those runs request is then compiled with
the installed sympy (``_Symbolic.source``, the route carleman_lab.fields takes
for an evaluator the table lacks), and the sources are written as one
generated module.

Rerun it after editing a registry entry in fields.py or the psi construction
in weights.py, or after adding, editing or removing a bundled config:
tests/test_frozen_evaluators.py compares the table with a fresh compile, and
CI reruns this script and fails when the table it writes differs from the
committed one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import sympy  # noqa: E402

from carleman_lab import cli, fields  # noqa: E402
from carleman_lab.fields import make_fn  # noqa: E402
from carleman_lab.weights import WeightFamily  # noqa: E402
from run_all_experiments import bundled  # noqa: E402

TABLE = ROOT / "src" / "carleman_lab" / "_frozen_evaluators.py"


def _configs(work: Path):
    """(subcommand, config path) of every run whose evaluators the table holds."""
    manifest = bundled()
    for _, sub, path in manifest:
        yield sub, path
    yield "propagation", ROOT / "bench" / "configs" / "propagation_2d.json"
    for stem, sub, path in manifest:
        if stem in ("identity_check", "conjugation_check"):
            n2 = work / f"n2_{path.name}"
            n2.write_text(json.dumps(dict(json.loads(path.read_text(encoding="utf-8")), n=2)), encoding="utf-8")
            yield sub, n2


def requested() -> dict:
    """{family key: sorted multi-indices} that the runs request, named families only."""
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        work = Path(work)
        for sub, config in list(_configs(work)):
            if cli.run(str(config), sub, out_dir=str(work / "out")) != 0:
                raise SystemExit(f"{sub} on {config.name} did not exit 0")
    # a function made from a sympy expression is keyed by that expression and
    # is never frozen
    named = lambda family: isinstance(family, str) or all(isinstance(part, str) for part in family)
    return {sym.key: sorted(sym.evaluators) for sym in fields._SYMBOLIC.values() if named(sym.key[0])}


def family_of(key) -> fields._Symbolic:
    """The family of a table key: a registry entry at n, or psi on one."""
    family, n = key
    if isinstance(family, str):
        return make_fn(family, n).symbolic
    _, rho = family
    return WeightFamily(make_fn(rho, n)).psi(1.0).symbolic


def compile_table(keys: dict) -> tuple[dict, dict]:
    """(NAMES, SOURCES) of the table holding ``keys``, compiled with the installed sympy."""
    names, sources = {}, {}
    for key in sorted(keys, key=repr):
        sym = family_of(key)
        sources[key] = {}
        for alpha in keys[key]:
            source, used = sym.source(alpha)
            for name, attr in used.items():
                if names.setdefault(name, attr) != attr:
                    raise SystemExit(f"{name!r} is bound to numpy.{attr} and numpy.{names[name]}")
            sources[key][alpha] = source
    return dict(sorted(names.items())), sources


def render(names: dict, sources: dict) -> str:
    lines = [
        '"""Evaluator sources of the bundled runs, generated by scripts/freeze_evaluators.py.',
        "",
        "Do not edit; rerun the script.  SOURCES maps a family key (see",
        "fields._Symbolic) and a multi-index to the source sympy's lambdify wrote for",
        "that derivative; NAMES maps each global name the sources read to the numpy",
        'attribute lambdify bound it to.',
        '"""',
        "",
        f"SYMPY_VERSION = {sympy.__version__!r}",
        "",
        "NAMES = {",
        *(f"    {name!r}: {attr!r}," for name, attr in names.items()),
        "}",
        "",
        "SOURCES = {",
    ]
    for key, by_alpha in sources.items():
        lines.append(f"    {key!r}: {{")
        for alpha, source in by_alpha.items():
            lines.append(f"        {alpha!r}: (")
            lines += [f"            {line!r}" for line in source.splitlines(keepends=True)]
            lines.append("        ),")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    keys = requested()
    names, sources = compile_table(keys)
    TABLE.write_text(render(names, sources), encoding="utf-8")
    count = sum(len(v) for v in sources.values())
    print(f"wrote {count} evaluators of {len(sources)} families to {TABLE.relative_to(ROOT)} (sympy {sympy.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
