"""The config validator against the JSON Schema reference implementation.

Over random mutations of every bundled config, ``cli.validate_config``
accepts exactly what ``jsonschema.Draft202012Validator`` accepts, and reports
errors at the same instance paths.  jsonschema is a test-only dependency;
without it this module is skipped.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.cli import SCHEMAS, validate_config

jsonschema = pytest.importorskip("jsonschema")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
BUNDLED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}


def _locations(value, path=()):
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _locations(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _locations(v, path + (i,))


def _at(value, path):
    for p in path:
        value = value[p]
    return value


def _subtrees(value):
    return [_at(value, path) for path in _locations(value)]


# every subtree of every bundled config, so that a transplant can land a valid
# value of another type (a function spec where a number stood, and so on)
TRANSPLANTS = [copy.deepcopy(v) for cfg in BUNDLED.values() for v in _subtrees(cfg)]
KEYS = sorted(
    {k for schema in SCHEMAS.values() for node in _subtrees(schema) if isinstance(node, dict) for k in node.get("properties", {})}
    | {"bogus"}
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, -0.25, 1e10, float("inf")]),
    st.sampled_from(["", "x", "T4.2", "A2.1", "char_linear", "qv-check", "geometry"]),
)
VALUES = st.one_of(
    st.recursive(
        SCALARS,
        lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(KEYS), kids, max_size=3)),
        max_leaves=6,
    ),
    st.sampled_from(TRANSPLANTS).map(copy.deepcopy),
)


def _branch(schema, node):
    """The branch of a oneOf that could hold ``node``'s kind of container."""
    for sub in schema.get("oneOf", ()):
        if ("properties" in sub) == isinstance(node, dict) and ("items" in sub) == isinstance(node, list):
            return sub
    return schema


def _schema_at(schema, cfg, path):
    node = cfg
    for p in path:
        schema = _branch(schema, node)
        if isinstance(p, str):
            schema = schema.get("properties", {}).get(p) or schema.get("additionalProperties") or {}
        else:
            schema = schema.get("items", {})
        node = node[p]
    return _branch(schema, node)


def _sites(cfg, schema):
    """Every location, plus each property its schema allows but the config leaves out."""
    for path in _locations(cfg):
        yield "at", path
        node = _at(cfg, path)
        if isinstance(node, dict):
            for key in [*_schema_at(schema, cfg, path).get("properties", {}), "bogus"]:
                if key not in node:
                    yield "add", path + (key,)


# values each key holds somewhere in the bundled configs
BY_KEY = {}
for _cfg in BUNDLED.values():
    for _path in _locations(_cfg):
        if _path and isinstance(_path[-1], str):
            BY_KEY.setdefault(_path[-1], []).append(copy.deepcopy(_at(_cfg, _path)))


def _swaps(v):
    """Values that JSON Schema tells apart from ``v`` by bool, int or float type, or by sign."""
    if isinstance(v, bool):
        return [int(v), float(v), not v]
    if isinstance(v, int):
        return [float(v), v == 1, -v - 1, str(v)]
    if isinstance(v, float):
        out = [-v - 1.0, str(v)]
        if v.is_integer() and abs(v) < 1e15:
            out.append(int(v))
        return out
    return [None]


def _mutate(data, cfg, schema):
    where, path = data.draw(st.sampled_from(list(_sites(cfg, schema))))
    if where == "add":
        known = BY_KEY.get(path[-1])
        value = data.draw(st.sampled_from(known).map(copy.deepcopy) if known and data.draw(st.booleans()) else VALUES)
        _at(cfg, path[:-1])[path[-1]] = value
        return
    node = _at(cfg, path)
    kind = data.draw(st.sampled_from(["replace", "swap", "drop", "grow", "shrink"]))
    if kind == "replace" and path:
        _at(cfg, path[:-1])[path[-1]] = data.draw(VALUES)
    elif kind == "swap" and path:
        _at(cfg, path[:-1])[path[-1]] = data.draw(st.sampled_from(_swaps(node)))
    elif kind == "drop" and path and isinstance(_at(cfg, path[:-1]), dict):
        del _at(cfg, path[:-1])[path[-1]]
    elif kind == "grow" and isinstance(node, list):
        # out-of-range lengths and items: copies of an item, or any value
        for _ in range(data.draw(st.integers(1, 2))):
            node.append(copy.deepcopy(node[-1]) if node and data.draw(st.booleans()) else data.draw(VALUES))
    elif kind == "shrink" and isinstance(node, list) and node:
        node.pop()


def _reference_paths(cfg, sub):
    reference = jsonschema.Draft202012Validator(SCHEMAS[sub])
    return {"/".join(map(str, e.path)) or "<root>" for e in reference.iter_errors(cfg)}


def _paths(cfg, sub):
    return {e.split(": ", 1)[0] for e in validate_config(cfg, sub)}


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(BUNDLED)), st.integers(1, 3), st.data())
def test_validator_accepts_exactly_what_draft_2020_12_accepts(name, mutations, data):
    cfg = copy.deepcopy(BUNDLED[name])
    sub = cfg["experiment"]
    for _ in range(mutations):
        _mutate(data, cfg, SCHEMAS[sub])
    assert _paths(cfg, sub) == _reference_paths(cfg, sub), cfg


def _edit(name, path, value):
    cfg = copy.deepcopy(BUNDLED[name])
    *parent, key = path
    _at(cfg, parent)[key] = value
    return cfg


# the semantics a random mutation rarely reaches, pinned: bool/int/float
# distinctions, dependentRequired, item counts, and oneOf branches
EDGE_CASES = {
    "n 1.0": _edit("identity_check", ["n"], 1.0),
    "n True": _edit("identity_check", ["n"], True),
    "n 2": _edit("identity_check", ["n"], 2),
    "n 1.5": _edit("identity_check", ["n"], 1.5),
    "seed 3.0": _edit("geometry", ["seed"], 3.0),
    "seed True": _edit("geometry", ["seed"], True),
    "seed -1": _edit("geometry", ["seed"], -1),
    "alpha False": _edit("geometry", ["alpha"], False),
    "expect_pass 1": _edit("assumption_check", ["expect_pass"], 1),
    "experiment other": _edit("geometry", ["experiment"], "sweep"),
    "qv rho alone": _edit("qv_check", ["rho"], {"name": "char_linear"}),
    "qv weights alone": _edit("qv_check", ["weights"], BUNDLED["ucp_decay"]["weights"]),
    "bounds three": _edit("qv_check", ["grid", "bounds"], [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]),
    "bound pair three": _edit("qv_check", ["grid", "bounds"], [[-1.0, 0.0, 1.0]]),
    "x0 empty": _edit("geometry", ["x0"], []),
    "coeff spec": _edit("qv_check", ["coeffs", "b2"], {"name": "standing_wave", "params": {"amp": 2.0}}),
    "coeff null": _edit("qv_check", ["coeffs", "b2"], None),
    "coeff bool": _edit("qv_check", ["coeffs", "b2"], True),
    "coeff string": _edit("qv_check", ["coeffs", "b2"], "2.0"),
    "coeff bad spec": _edit("qv_check", ["coeffs", "b2"], {"name": "standing_wave", "oops": 1}),
    "varrho spec": _edit("inequality_scan_t42", ["varrho"], {"name": "char_linear"}),
    "varrho null": _edit("inequality_scan_t42", ["varrho"], None),
    "params bool": _edit("psd_check", ["g", "params"], {"amp": True}),
    "nt 1": _edit("inequality_scan_t42", ["region", "nt"], 1),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_validator_agrees_with_draft_2020_12_on_edge_cases(case):
    cfg = EDGE_CASES[case]
    assert _paths(cfg, cfg["experiment"]) == _reference_paths(cfg, cfg["experiment"])


def test_every_schema_is_a_valid_draft_2020_12_schema():
    for schema in SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)
