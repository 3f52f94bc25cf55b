"""Every public top-level function and class in src/ is used by src/ itself.

A definition that only tests or library callers reach re-routes code that
does run, and it keeps a second entry point alive; this check stops one from
coming back.  A use is a Name or an Attribute outside the definition's own
body that resolves to it: a name of its own module, a name imported from its
module, or an attribute of an imported alias of its module.  Strings (such as
the package's ``_EXPORTS`` table) do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "carleman_lab"

# definitions nothing in src/ uses, each kept for the reason given
UNREFERENCED = {
    "solver.leapfrog_reference": "the independent scheme the solver tests compare solve against",
    "solver.scalar_noise_second_moment": "the closed-form noise moment the solver tests check the update against",
    "weights.certifies": "the eigenvalue-floor predicate the rejection tests call",
    "propagation.worker_count": "read by bench/run.py's environment record until the benchmark drops it",
}


def _unreferenced():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "_frozen_evaluators.py"}
    defined = {(m, s.name) for m, tree in trees.items() for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for module, tree in trees.items():
        # relative imports anywhere in the module: name -> (module, name), and alias -> module
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        names[alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for stmt in tree.body:
            owner = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    target = (module, node.id) if (module, node.id) in defined else names.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target != owner:
                    used.add(target)
    return {f"{m}.{name}" for m, name in defined if not name.startswith("_") and (m, name) not in used}


def test_every_public_definition_is_used_in_src():
    assert _unreferenced() == set(UNREFERENCED)
