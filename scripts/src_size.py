#!/usr/bin/env python3
"""Print the size of the hand-written src/: its line count, its concepts and its knobs.

    python scripts/src_size.py

The concepts are the top-level classes and functions of each module, so a
deletion shows as names removed as well as lines.  The library knobs are the
defaulted parameters (positional and keyword-only) of every function, method
and lambda, counted with ``ast``.  The user-facing knobs are the config keys:
the property names of every subcommand's schema in ``cli.SUBCOMMANDS``, nested
ones and ``oneOf`` branches included, each counted where it occurs.  The
generated evaluator table, src/carleman_lab/_frozen_evaluators.py, is not
counted.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def config_keys(schema) -> int:
    """Property names in ``schema`` and in every schema nested in it."""
    if isinstance(schema, list):
        return sum(map(config_keys, schema))
    if not isinstance(schema, dict):
        return 0
    props = schema.get("properties", {})
    nested = [v for k, v in schema.items() if k != "properties"] + list(props.values())
    return len(props) + sum(map(config_keys, nested))


def main() -> None:
    lines = concepts = knobs = 0
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "_frozen_evaluators.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        tree = ast.parse(text)
        concepts += sum(isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) for node in tree.body)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                knobs += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    print(f"hand-written src/ lines: {lines}")
    print(f"top-level classes and functions: {concepts}")
    print(f"defaulted parameters: {knobs}")
    sys.path.insert(0, str(SRC))
    from carleman_lab.cli import SUBCOMMANDS

    print(f"config keys: {sum(config_keys(record.schema) for record in SUBCOMMANDS.values())}")


if __name__ == "__main__":
    main()
