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
from carleman_lab.fields import BUILTIN_NAMES, AnalyticFn, CapabilityError, T_SYM, make_fn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = ROOT / "scripts" / "configs"


_spec = importlib.util.spec_from_file_location("freeze_evaluators", ROOT / "scripts" / "freeze_evaluators.py")
FREEZE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FREEZE)
BUNDLED = FREEZE.CONFIGS  # subcommand -> bundled config file, as scripts/run_all_experiments.py runs them

# runs each bundled config in one fresh interpreter and prints, per
# subcommand, its exit code and whether sympy was imported by then
_CHILD = """
import contextlib, io, json, sys
import carleman_lab.cli as cli
result = {"import": "sympy" in sys.modules}
for sub, config in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(config, sub, out_dir=sys.argv[2] + "/" + sub)
    result[sub] = [code, "sympy" in sys.modules]
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    configs = {sub: str(CONFIG_DIR / name) for sub, name in BUNDLED.items()}
    out = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(configs), str(out)], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_sympy_out(fresh_runs):
    assert fresh_runs["import"] is False


@pytest.mark.parametrize("sub", sorted(BUNDLED))
def test_bundled_config_runs_without_sympy(fresh_runs, sub):
    assert fresh_runs[sub] == [0, False]


@pytest.mark.skipif(sp.__version__ != frozen.SYMPY_VERSION, reason=f"the table was written with sympy {frozen.SYMPY_VERSION}")
def test_table_equals_a_fresh_compile():
    names, sources = FREEZE.compile_table({key: list(by_alpha) for key, by_alpha in frozen.SOURCES.items()})
    assert names == frozen.NAMES
    assert sources == frozen.SOURCES


@pytest.mark.parametrize("n", [1, 2])
def test_registry_declares_whether_a_family_depends_on_t(n):
    for name in BUILTIN_NAMES:
        fn = make_fn(name, n)
        assert fn.symbolic.depends_on_t == fn.expr.has(T_SYM), name


def test_a_generated_evaluator_reads_only_numpy_names():
    # an undefined function prints as a call of a name numpy does not bind
    fn = AnalyticFn("undefined", sp.Function("mystery")(T_SYM), 1, {})
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
