"""The frozen evaluator table: a normal run never imports sympy, and the
table equals what the installed sympy compiles (when it is the version the
table was written with)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

from carleman_lab import _frozen_evaluators as frozen
from carleman_lab import fields
from carleman_lab.fields import BUILTIN_NAMES, CapabilityError, _coordinates, make_fn

from oracles import expression_fn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


_spec = importlib.util.spec_from_file_location("freeze_evaluators", ROOT / "scripts" / "freeze_evaluators.py")
FREEZE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FREEZE)
BUNDLED = FREEZE.bundled()  # (stem, experiment, path), as scripts/run_all_experiments.py runs them
BUNDLED_SUBS = sorted({sub for _, sub, _ in BUNDLED})

# runs each bundled config in one fresh interpreter and prints, after the
# import and after each config, whether sympy and jsonschema were imported
# by then, and each config's exit code
_CHILD = """
import contextlib, io, json, sys
import carleman_lab.cli as cli
def loaded():
    return {"sympy": "sympy" in sys.modules, "jsonschema": "jsonschema" in sys.modules}
result = {"import": loaded()}
for stem, sub, config in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(config, sub, out_dir=sys.argv[2] + "/" + stem)
    result[stem] = dict(loaded(), code=code)
print(json.dumps(result))
"""


def _runs_of(fresh_runs, sub: str, module: str) -> dict:
    """{stem: (exit code, whether ``module`` was imported by then)} of the bundled configs of ``sub``."""
    stems = [stem for stem, experiment, _ in BUNDLED if experiment == sub]
    return {stem: (fresh_runs[stem]["code"], fresh_runs[stem][module]) for stem in stems}


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    configs = [(stem, sub, str(path)) for stem, sub, path in BUNDLED]
    out = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(configs), str(out)], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_sympy_out(fresh_runs):
    assert fresh_runs["import"]["sympy"] is False


def test_importing_the_cli_leaves_jsonschema_out(fresh_runs):
    assert fresh_runs["import"]["jsonschema"] is False


@pytest.mark.parametrize("sub", BUNDLED_SUBS)
def test_bundled_config_runs_without_sympy(fresh_runs, sub):
    runs = _runs_of(fresh_runs, sub, "sympy")
    assert runs == dict.fromkeys(runs, (0, False))


@pytest.mark.parametrize("sub", BUNDLED_SUBS)
def test_bundled_config_runs_without_jsonschema(fresh_runs, sub):
    runs = _runs_of(fresh_runs, sub, "jsonschema")
    assert runs == dict.fromkeys(runs, (0, False))


@pytest.mark.skipif(sp.__version__ != frozen.SYMPY_VERSION, reason=f"the table was written with sympy {frozen.SYMPY_VERSION}")
def test_table_equals_a_fresh_compile():
    names, sources = FREEZE.compile_table({key: list(by_alpha) for key, by_alpha in frozen.SOURCES.items()})
    assert names == frozen.NAMES
    assert sources == frozen.SOURCES


@pytest.mark.parametrize("n", [1, 2])
def test_registry_declares_whether_a_family_depends_on_t(n):
    for name in BUILTIN_NAMES:
        fn = make_fn(name, n)
        assert fn.symbolic.depends_on_t == fn.symbolic.tree()[0].has(_coordinates()[0]), name


def test_a_generated_evaluator_reads_only_numpy_names():
    # an undefined function prints as a call of a name numpy does not bind
    fn = expression_fn("undefined", sp.Function("mystery")(_coordinates()[0]), 1, {})
    with pytest.raises(CapabilityError, match="'mystery'.*not a numpy object"):
        fn.value(0.0, [0.0])


def test_a_frozen_evaluator_is_exec_d_from_its_table_source(monkeypatch):
    made = []
    real = fields._load_evaluator
    monkeypatch.setattr(fields, "_load_evaluator", lambda source, names: made.append(source) or real(source, names))
    monkeypatch.setattr(fields, "_SYMBOLIC", {})
    monkeypatch.setattr(fields, "_BUILTINS", {})
    fn = make_fn("affine", 1, c0=0.5, ct=2.0, cx1=-1.0)
    assert fn.value(1.0, [0.25]) == 2.25
    assert made == [frozen.SOURCES[("affine", 1)][(0, 0)]]
    assert fn.symbolic._tree is None  # no sympy tree was built
