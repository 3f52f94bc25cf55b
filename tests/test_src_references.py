"""Everything src/ defines is used by src/ itself.

A definition that only tests or library callers reach re-routes code that
does run, and it keeps a second entry point alive; these checks stop one from
coming back.

For a public top-level function or class, a use is a Name or an Attribute
outside the definition's own body that resolves to it: a name of its own
module, a name imported from its module, or an attribute of an imported alias
of its module.  For a method or property of a top-level class, a use is a read
of an attribute of that name anywhere in src/ outside the method's own body;
dunder methods are exempt, since the language calls them.  Strings (such as
the package's ``_EXPORTS`` table) do not count.

Every module-level import in src/, tests/ and scripts/ is read in its module:
some Name in the module is the name the import binds (the first component of
``import a.b``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "carleman_lab"

# definitions nothing in src/ uses, each kept for the reason given
UNREFERENCED = {
    "propagation.worker_count": "read by bench/run.py's environment record until the benchmark drops it",
}

# methods and properties nothing in src/ reads, each kept for the reason given
UNREAD_MEMBERS = {
    "fields.BrownianPath.passes_mean_sanity": "the noise-sanity record of bench/spans.py reads it",
    "weights.WeightFamily.quantities": "bench/spans.py wraps it as the L3 span until the benchmark drops it",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "_frozen_evaluators.py"}


def _unreferenced():
    trees = _trees()
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


def _unread_members():
    trees = _trees()
    reads = [(node.attr, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = set()
    for module, tree in trees.items():
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for fn in (s for s in cls.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))):
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if not any(attr == fn.name and id(node) not in own for attr, node in reads):
                    unread.add(f"{module}.{cls.name}.{fn.name}")
    return unread


def test_every_public_definition_is_used_in_src():
    assert _unreferenced() == set(UNREFERENCED)


def test_every_method_and_property_is_read_in_src():
    assert _unread_members() == set(UNREAD_MEMBERS)


def _unused_imports(path: Path) -> list:
    """``path:line: name`` for each module-level import of ``path`` whose bound name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound.update({alias.asname or alias.name.split(".")[0]: stmt.lineno for alias in stmt.names})
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound.update({alias.asname or alias.name: stmt.lineno for alias in stmt.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_module_level_import_is_unused():
    files = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    assert files
    assert [u for p in files for u in _unused_imports(p)] == []
