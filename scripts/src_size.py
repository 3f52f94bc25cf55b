#!/usr/bin/env python3
"""Print the size of the hand-written src/: its line count and its knob count.

    python scripts/src_size.py

The knob count is the number of defaulted parameters (positional and
keyword-only) of every function, method and lambda, counted with ``ast``.
The generated evaluator table, src/carleman_lab/_frozen_evaluators.py, is not
counted.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    lines = knobs = 0
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "_frozen_evaluators.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                knobs += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    print(f"hand-written src/ lines: {lines}")
    print(f"defaulted parameters: {knobs}")


if __name__ == "__main__":
    main()
