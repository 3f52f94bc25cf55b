"""Experiment orchestration: config ingestion, CSV emission, exit codes.

One JSON config describes one experiment; every subcommand writes a result
table (plot-ready long CSV) and a run log, and exits 0 when all of its named
assertions pass, 1 when one fails (named in the log), 2 on a usage or config
error (in which case nothing is written; a propagation support whose unit-speed
cone reaches the solver's guard ring is one).  An ArithmeticError raised during
the run, or a solved field reaching the boundary ring (PropagationError), is a
run failure: exit 1, a log naming ``run_error``, and no CSV.  A result table
holding a non-finite float fails ``numbers_finite`` (exit 1, and the CSV is
written) unless its column declares that kind of value in its subcommand's
``nonfinite``.

Each subcommand is one ``Subcommand`` record in ``SUBCOMMANDS``, registered by
the ``@subcommand`` decorator on its runner: the runner, the config schema,
the columns its gnuplot script plots and the columns that may hold NaN or ±inf
by design.  The runner is the one place where a config default, a tolerance or
a PASS/FAIL verdict is applied: the library functions it calls take every value
as a parameter, return measurements, and raise only on input they cannot use.

Configs are checked against their record's schema by a small validator with
the semantics of JSON Schema Draft 2020-12 for the keywords the schemas use:
``type``, ``properties``, ``required``, ``additionalProperties`` (false or a
schema), ``items``, ``minItems``, ``maxItems``, ``minimum``, ``enum``,
``const``, ``oneOf`` and ``dependentRequired``.  As there, an integral float
such as 1.0 is an integer, a bool is neither a number nor an integer, and
``enum`` and ``const`` tell True apart from 1.  It raises KeyError on any
other keyword, so a schema cannot use one it would silently skip.

Each subcommand imports the modules it reads when it runs, so a light run
such as geometry loads neither the weight nor the solver modules.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .fields import (
    AnalyticFn,
    BUILTIN_NAMES,
    CapabilityError,
    ConfigurationError,
    GeometryError,
    Jet2,
    PropagationError,
    StatisticsError,
    SupportError,
    fn_from_spec,
    gradient_array,
    laplacian_array,
    make_fn,
    make_grid,
    uniform_stream,
)


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigurationError("result table must be rectangular")


def format_scalar(value) -> str:
    """Shortest round-trip decimal form (up to 17 significant digits)."""
    if type(value) is float:  # most cells, checked before the isinstance chain
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(table: ResultTable, path: Path) -> None:
    """RFC-4180-style CSV: header row, '.' decimals, LF endings.

    Metadata (config hash, version, wall time) rides along as trailing
    columns so every row is self-describing.
    """
    meta_cols = list(table.metadata.keys())
    header = list(table.columns) + meta_cols
    meta_vals = [format_scalar(table.metadata[k]) for k in meta_cols]
    lines = [",".join(_csv_field(str(c)) for c in header)]
    for row in table.rows:
        cells = [format_scalar(v) for v in row] + meta_vals
        lines.append(",".join(_csv_field(c) for c in cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config schemas (unknown keys rejected everywhere)
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_INT = {"type": "integer", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_VEC = {"type": "array", "items": _NUM, "minItems": 1, "maxItems": 2}
_FNSPEC = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "enum": list(BUILTIN_NAMES)},
        "params": {"type": "object", "additionalProperties": _NUM},
    },
    "required": ["name"],
    "additionalProperties": False,
}
_COEFF = {"oneOf": [_NUM, _FNSPEC, {"type": "null"}]}
_WEIGHTS = {
    "type": "object",
    "properties": {
        "lambda": _NUM,
        "lambdas": {"type": "array", "items": _NUM, "minItems": 1},
        "gamma": _NUM,
        "mu": _NUM,
        "t0": _NUM,
        "x0": _VEC,
    },
    "required": ["gamma", "mu", "t0", "x0"],
    "additionalProperties": False,
}
_CUTOFF = {
    "type": "object",
    "properties": {"c2": _NUM, "eps": _NUM},
    "required": ["c2", "eps"],
    "additionalProperties": False,
}
_GRID = {
    "type": "object",
    "properties": {
        "bounds": {
            "type": "array",
            "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
            "minItems": 1,
            "maxItems": 2,
        },
        "dx": _NUM,
        "dt": _NUM,
        "t_max": _NUM,
        "cfl": _NUM,
    },
    "required": ["bounds", "dx", "dt", "t_max"],
    "additionalProperties": False,
}
_REGION = {
    "type": "object",
    "properties": {
        "t_lo": _NUM,
        "t_hi": _NUM,
        "nt": {"type": "integer", "minimum": 2},
        "x_lo": _VEC,
        "x_hi": _VEC,
        "nx": {"type": "integer", "minimum": 2},
    },
    "required": ["t_lo", "t_hi", "nt", "x_lo", "x_hi", "nx"],
    "additionalProperties": False,
}
_COEFFS = {
    "type": "object",
    "properties": {
        "a1": _COEFF,
        "a2": {"type": "array", "items": _COEFF, "maxItems": 2},
        "a3": _COEFF,
        "b1": _COEFF,
        "b2": _COEFF,
        "f": _COEFF,
        "g": _COEFF,
        "b1_bound": _NUM,
    },
    "additionalProperties": False,
}
_SUPPORT = {
    "type": "object",
    "properties": {
        "balls": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"center": {"type": "array", "items": _NUM}, "radius": _NUM},
                "required": ["center", "radius"],
                "additionalProperties": False,
            },
        },
        "boxes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"lo": {"type": "array", "items": _NUM}, "hi": {"type": "array", "items": _NUM}},
                "required": ["lo", "hi"],
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


@dataclass(frozen=True)
class Subcommand:
    """A subcommand's runner and config schema, the (x, y) columns its gnuplot script
    plots (the first and last when None), and the columns that may hold a non-finite
    value by design, each mapped to its one kind: "nan", or "inf" of either sign."""

    run: Callable[[dict], tuple]
    schema: dict
    plot: tuple | None = None
    nonfinite: dict = field(default_factory=dict)


SUBCOMMANDS: dict[str, Subcommand] = {}


def _schema(experiment: str, extra: dict, required: list) -> dict:
    props = {
        "experiment": {"const": experiment},
        "seed": _INT,
        "out_dir": {"type": "string"},
    }
    props.update(extra)
    return {
        "type": "object",
        "properties": props,
        "required": ["experiment"] + required,
        "additionalProperties": False,
    }


def subcommand(name: str, properties: dict, required: list, plot=None, nonfinite=None, **keywords):
    """Register the decorated runner as ``name``; ``keywords`` (qv-check's
    ``dependentRequired``) join the top level of its schema."""

    def register(fn):
        SUBCOMMANDS[name] = Subcommand(fn, {**_schema(name, properties, required), **keywords}, plot, nonfinite or {})
        return fn

    return register


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def _grid_from(cfg: dict):
    return make_grid(cfg["bounds"], cfg["dx"], cfg["dt"], cfg["t_max"], cfg.get("cfl"))


def _wave_from(cfg: dict):
    """The one setup of a Monte Carlo config: (grid, u0, u0 and u1 at the nodes at t = 0,
    coefficient samplers).  Each field is sampled on the mesh once and every reader shares
    that array; u1's is None when the config has none.  The samplers are built once, so
    their a2 and noise step-size guards run here, before any step."""
    from . import solver

    grid = _grid_from(cfg["grid"])
    u1 = fn_from_spec(cfg["u1"], grid.n) if "u1" in cfg else None
    coeffs = _coeffs_from(cfg["coeffs"], grid.n)
    u0 = fn_from_spec(cfg["u0"], grid.n)
    samplers = solver.make_samplers(coeffs, grid)
    return grid, u0, grid.sample(u0, 0.0), None if u1 is None else grid.sample(u1, 0.0), samplers


def _coeff_value(spec, n):
    if spec is None or isinstance(spec, (int, float)):
        return spec
    return fn_from_spec(spec, n)


def _coeffs_from(cfg: dict, n: int):
    from . import solver

    return solver.Coefficients(
        a1=_coeff_value(cfg.get("a1"), n),
        a2=tuple(_coeff_value(c, n) for c in cfg.get("a2", [])),
        a3=_coeff_value(cfg.get("a3"), n),
        b1=_coeff_value(cfg.get("b1"), n),
        b2=_coeff_value(cfg.get("b2"), n),
        f=_coeff_value(cfg.get("f"), n),
        g=_coeff_value(cfg.get("g"), n),
        b1_bound=cfg.get("b1_bound"),
    )


def _weights_from(cfg: dict, n: int) -> tuple:
    from .weights import WeightParams

    if len(cfg["x0"]) != n:
        raise ConfigurationError(f"weights x0 has {len(cfg['x0'])} entries for dimension {n}")
    lambdas = cfg.get("lambdas") or [cfg.get("lambda", 8.0)]
    params = WeightParams(
        lam=float(lambdas[0]),
        gamma=float(cfg["gamma"]),
        mu=float(cfg["mu"]),
        t0=float(cfg["t0"]),
        x0=tuple(cfg["x0"]),
    )
    return params, [float(v) for v in lambdas]


def _cutoff_from(cfg: dict):
    from .identities import CutoffSpec

    return CutoffSpec(c2=float(cfg["c2"]), eps=float(cfg["eps"]))


def _region_from(cfg: dict):
    from .identities import RegionSpec

    return RegionSpec(
        t_lo=float(cfg["t_lo"]),
        t_hi=float(cfg["t_hi"]),
        nt=int(cfg["nt"]),
        x_lo=tuple(float(v) for v in cfg["x_lo"]),
        x_hi=tuple(float(v) for v in cfg["x_hi"]),
        nx=int(cfg["nx"]),
    )


def _support_from(cfg: dict):
    from .propagation import SupportSet

    balls = tuple((tuple(b["center"]), float(b["radius"])) for b in cfg.get("balls", []))
    boxes = tuple((tuple(b["lo"]), tuple(b["hi"])) for b in cfg.get("boxes", []))
    return SupportSet(balls=balls, boxes=boxes)


def _stream(seed: int, count: int, tag: int):
    """Uniform draws on a tagged stream so experiments stay independent."""
    return uniform_stream(seed, count, stream=1000 + tag)


def _in(u, lo, hi):
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# Random sample pools for the randomized checks
# ---------------------------------------------------------------------------


def _draw_identity_case(u: np.ndarray, n: int):
    """One randomized (rho, varrho, w, params, point) with |lam phi| <= 20."""
    from .weights import WeightParams

    iu = iter(u)
    nx = lambda: float(next(iu))
    gamma = _in(nx(), 1.0, 4.0)
    lam = _in(nx(), 1.0, 16.0)
    mu = _in(nx(), 0.0, 1.0)
    # keep gamma |rho| <= 0.2 so psi stays near 1 and lam phi stays within 20
    amp = _in(nx(), 0.05, 0.2) / gamma
    kind = int(_in(nx(), 0, 3))
    axes = range(1, n + 1)
    per_axis = lambda key, lo, hi: {f"{key}{j}": _in(nx(), lo, hi) for j in axes}
    cx = dict(zip((f"cx{j}" for j in axes), (-amp, amp / 2)))
    if kind == 0:
        rho = make_fn(
            "trig_product", n,
            amp=amp, wt=_in(nx(), 0.5, 1.5), **per_axis("wx", 0.5, 1.5), pt=_in(nx(), 0, 1), **per_axis("px", 0, 1),
        )
    elif kind == 1:
        rho = make_fn(
            "quadratic", n,
            c0=0.0, ct=amp, qtt=_in(nx(), -1, 1) * amp, **cx, **{k: q * amp for k, q in per_axis("qx", -1, 1).items()},
        )
    else:
        rho = make_fn("affine", n, c0=0.0, ct=amp, **cx)
    w = make_fn(
        "exp_quadratic", n,
        amp=_in(nx(), 0.5, 2.0), att=_in(nx(), -0.5, 0.3), bt=_in(nx(), -0.3, 0.3),
        **{f"{k}{j}": _in(nx(), lo, hi) for j in axes for k, lo, hi in (("ax", -0.5, 0.3), ("bx", -0.3, 0.3))},
    )
    varrho = _in(nx(), -2.0, 2.0)
    params = WeightParams(
        lam=lam, gamma=gamma, mu=mu,
        t0=_in(nx(), -0.2, 0.2), x0=tuple(_in(nx(), -0.2, 0.2) for _ in range(n)),
    )
    t = _in(nx(), -0.3, 0.3)
    x = [_in(nx(), -0.3, 0.3) for _ in range(n)]
    return rho, varrho, w, params, t, x


# uniform numbers reserved per randomized case, by n (upper bound on the 13 + 6 n consumed)
_CASE_DRAWS = {1: 24, 2: 30}

# conjugation-check draws up to _SEARCH_ATTEMPTS cases per transition point; its
# stream is laid out (blocks, cases, _SEARCH_BLOCK, draws), so raising the
# attempt count appends blocks and leaves the earlier attempts' draws unchanged
_SEARCH_ATTEMPTS, _SEARCH_BLOCK = 32, 8


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@subcommand(
    "identity-check",
    {"cases": _COUNT, "tolerance": _NUM, "n": {"enum": [1, 2]}},
    [],
    plot=("case", "relative_residual"),
)
def _run_identity_check(cfg: dict):
    from .identities import identity_case
    from .weights import WeightFamily

    cases = cfg.get("cases", 200)
    tol = cfg.get("tolerance", 1e-8)
    n = cfg.get("n", 1)
    seed = cfg.get("seed", 0)
    u = _stream(seed, cases * _CASE_DRAWS[n], tag=1).reshape(cases, -1)
    rows = []
    worst = 0.0
    for i in range(cases):
        rho, varrho, w, params, t, x = _draw_identity_case(u[i], n)
        case = identity_case(w, WeightFamily(rho, varrho), params, t, x)
        rep, frame = case.report, case.frame
        worst = max(worst, rep.relative_residual)
        rows.append(
            [i, rho.name, w.name, params.lam, params.gamma, params.mu, t]
            + list(x)
            + [frame.psi, frame.phi, frame.theta, float(np.linalg.norm(case.V)), case.N, rep.lhs, rep.rhs, rep.relative_residual]
            + [rep.relative_residual <= tol]
        )
    cols = (
        ["case", "rho", "w", "lambda", "gamma", "mu", "t"]
        + [f"x{j+1}" for j in range(n)]
        + ["psi", "phi", "theta", "flux_norm", "time_density", "lhs", "rhs", "relative_residual", "pass"]
    )
    # the rows' own verdicts: a NaN residual, which max skips, fails its row and so the run
    assertions = [("max_relative_residual", all(row[-1] for row in rows), f"{worst:.3e} <= {tol:.0e}")]
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "conjugation-check",
    {"cases": _COUNT, "tolerance": _NUM, "cutoff": _CUTOFF, "n": {"enum": [1, 2]}},
    [],
    plot=("case", "conjugation_residual"),
)
def _run_conjugation_check(cfg: dict):
    from .identities import conjugation_residual
    from .weights import WeightFamily

    cases = cfg.get("cases", 100)
    tol = cfg.get("tolerance", 1e-8)
    n = cfg.get("n", 1)
    seed = cfg.get("seed", 0)
    cutoff = _cutoff_from(cfg.get("cutoff", {"c2": 0.5, "eps": 0.3}))
    draws = _CASE_DRAWS[n] + 1
    u = _stream(seed, _SEARCH_ATTEMPTS * cases * draws, tag=2).reshape(-1, cases, _SEARCH_BLOCK, draws)
    rows = []
    worst = 0.0
    found = 0
    for i in range(cases):
        # draw a random point, then solve for mu placing phi inside the
        # transition band (c2, c2 + eps); retry with fresh draws if the
        # convexification term cannot reach the band there
        hit = None
        for attempt in range(_SEARCH_ATTEMPTS):
            draw = u[attempt // _SEARCH_BLOCK, i, attempt % _SEARCH_BLOCK]
            rho, varrho, w, params, t, x = _draw_identity_case(draw[:-1], n)
            fam = WeightFamily(rho, varrho)
            psi = float(fam.phi(t, x, replace(params, mu=0.0)))
            q = (t - params.t0) ** 2 + sum((xj - cj) ** 2 for xj, cj in zip(x, params.x0))
            target = cutoff.c2 + (0.15 + 0.7 * float(draw[-1])) * cutoff.eps
            if q < 1e-8 or psi <= target:
                continue
            mu = (psi - target) / q
            if mu > 4.0:
                continue
            params = replace(params, mu=mu)
            phi = float(fam.phi(t, x, params))
            if cutoff.c2 + 0.02 * cutoff.eps < phi < cutoff.c2 + 0.98 * cutoff.eps:
                hit = (rho, varrho, w, params, t, x, fam, phi)
                break
        if hit is None:
            continue
        rho, varrho, w, params, t, x, fam, phi = hit
        conj, cut = conjugation_residual(w, fam, params, cutoff, t, x)
        worst = max(worst, conj.relative_residual, cut.relative_residual)
        found += 1
        rows.append(
            [i, phi, t] + list(x) + [conj.lhs, conj.rhs, conj.relative_residual, cut.relative_residual]
            + [conj.relative_residual <= tol and cut.relative_residual <= tol]
        )
    cols = ["case", "phi", "t"] + [f"x{j+1}" for j in range(n)] + [
        "conjugation_lhs", "conjugation_rhs", "conjugation_residual", "cutoff_residual", "pass",
    ]
    assertions = [
        ("transition_points_found", found == cases, f"{found} of {cases}"),
        ("max_relative_residual", all(row[-1] for row in rows), f"{worst:.3e} <= {tol:.0e}"),
    ]
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "expansion-check",
    {
        "samples": _COUNT,
        "lambdas": {"type": "array", "items": _NUM, "minItems": 4},
        "tol_quadratic": _NUM,
        "tol_cubic": _NUM,
    },
    [],
    plot=("sample", "rel_quadratic"),
)
def _run_expansion_check(cfg: dict):
    import numpy.polynomial.polynomial as npoly

    from .weights import WeightFamily, eval_D

    samples = cfg.get("samples", 50)
    lambdas = np.asarray(cfg.get("lambdas", [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]))
    tol_a = cfg.get("tol_quadratic", 1e-6)
    tol_b = cfg.get("tol_cubic", 1e-5)
    seed = cfg.get("seed", 0)
    u = _stream(seed, samples * _CASE_DRAWS[1], tag=3).reshape(samples, -1)
    scale = float(np.max(lambdas))
    rows = []
    worst_a = worst_b = 0.0
    for i in range(samples):
        rho, varrho, _, params, t, x = _draw_identity_case(u[i], 1)
        point = WeightFamily(rho, varrho).point_stage(t, x, params)
        a_vals, b_vals = [], []
        for lv in lambdas:
            q = point.lambda_stage(float(lv))
            a_vals.append(float(q["a"]))
            b_vals.append(float(q["b"]))
        dq = eval_D(point)
        a_direct = float(point["p"]) + dq.d1
        b_direct = dq.d2_matrix + dq.d3
        a_fit = float(npoly.polyfit(lambdas / scale, np.asarray(a_vals), 2)[2]) / scale**2
        b_fit = float(npoly.polyfit(lambdas / scale, np.asarray(b_vals), 3)[3]) / scale**3
        rel_a = abs(a_fit - a_direct) / max(1e-300, abs(a_direct))
        rel_b = abs(b_fit - b_direct) / max(1e-300, abs(b_direct))
        worst_a, worst_b = max(worst_a, rel_a), max(worst_b, rel_b)
        rows.append([i, rho.name, params.gamma, params.mu, a_fit, a_direct, rel_a, b_fit, b_direct, rel_b, rel_a <= tol_a and rel_b <= tol_b])
    cols = ["sample", "rho", "gamma", "mu", "quadratic_fit", "quadratic_direct", "rel_quadratic", "cubic_fit", "cubic_direct", "rel_cubic", "pass"]
    assertions = [
        ("quadratic_coefficient", worst_a <= tol_a, f"{worst_a:.3e} <= {tol_a:.0e}"),
        ("cubic_coefficient", worst_b <= tol_b, f"{worst_b:.3e} <= {tol_b:.0e}"),
    ]
    return ResultTable(cols, rows, {}), assertions


@subcommand("d2-check", {"samples": _COUNT, "tolerance": _NUM}, [], plot=("sample", "rel_disagreement"))
def _run_d2_check(cfg: dict):
    from .weights import WeightFamily, build_M, eval_D

    samples = cfg.get("samples", 500)
    tol = cfg.get("tolerance", 1e-9)
    seed = cfg.get("seed", 0)
    u = _stream(seed, samples * _CASE_DRAWS[1], tag=4).reshape(samples, -1)
    rows = []
    worst = 0.0
    for i in range(samples):
        rho, varrho, _, params, t, x = _draw_identity_case(u[i], 1)
        params = replace(params, gamma=_in(float(u[i, -1]), 0.5, 8.0))
        point = WeightFamily(rho, varrho).point_stage(t, x, params)
        dq = eval_D(point)
        # independent route for the matrix form, through the structure matrix and the chain-rule psi
        rj = Jet2.from_partials(point["rho"])
        m = build_M(rj, float(varrho))
        rvec = np.concatenate([[rj.grad_t], rj.grad_x])
        char = rj.grad_t**2 - float(rj.grad_x @ rj.grad_x)
        g, psi = params.gamma, math.exp(params.gamma * rj.value)
        d2_m_indep = 4.0 * g**3 * psi**3 * varrho * char + 2.0 * g**3 * psi**3 * float(rvec @ m @ rvec) + 2.0 * g**4 * psi**3 * char**2
        denom = max(abs(dq.d2_matrix), abs(dq.d2_divergence))
        rel = abs(dq.d2_matrix - dq.d2_divergence) / denom if denom > 0 else 0.0
        rel_m = abs(dq.d2_matrix - d2_m_indep) / max(denom, 1e-300) if denom > 0 else 0.0
        worst = max(worst, rel, rel_m)
        rows.append([i, rho.name, params.gamma, varrho, dq.d2_matrix, dq.d2_divergence, rel, rel_m, rel <= tol])
    cols = ["sample", "rho", "gamma", "varrho", "d2_matrix", "d2_divergence", "rel_disagreement", "rel_matrix_route", "pass"]
    assertions = [("dual_form_agreement", worst <= tol, f"{worst:.3e} <= {tol:.0e}")]
    return ResultTable(cols, rows, {}), assertions


@subcommand("psd-check", {"g": _FNSPEC, "x0": _VEC, "tangent_samples": _COUNT}, ["g", "x0"])
def _run_psd_check(cfg: dict):
    from .weights import psd_certificate

    x0 = [float(v) for v in cfg["x0"]]
    n = len(x0)
    g_fn = fn_from_spec(cfg["g"], n)
    seed = cfg.get("seed", 0)
    tangent_samples = cfg.get("tangent_samples", 50)
    jet = g_fn.jet2(0.0, x0)
    cert = psd_certificate(jet, seed=seed, tangent_samples=tangent_samples)
    hess_eigs = np.linalg.eigvalsh(jet.hess_xx)
    rows = [[
        g_fn.name, cert.tau, cert.min_eigenvalue, cert.tangent_min_quadform,
        cert.tangent_checks, float(hess_eigs[0]), float(hess_eigs[-1]), cert.passed,
    ]]
    cols = ["g", "tau", "min_eigenvalue", "tangent_min_quadform", "tangent_checks", "hess_min", "hess_max", "pass"]
    assertions = [("certificate", cert.passed, f"tau={cert.tau}, min eig {cert.min_eigenvalue:.3e}")]
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "assumption-check",
    {
        "rho": _FNSPEC,
        "varrho": _NUM,
        "preset": {"enum": ["A2.1", "A2.2", "A2.3"]},
        "c0": _NUM,
        "b1_norm": _NUM,
        "t": _NUM,
        "x": _VEC,
        "expect_pass": {"type": "boolean"},
    },
    ["rho", "preset", "t", "x"],
)
def _run_assumption_check(cfg: dict):
    from .weights import assumption_check

    x = [float(v) for v in cfg["x"]]
    n = len(x)
    rho = fn_from_spec(cfg["rho"], n)
    jet = rho.jet2(float(cfg["t"]), x)
    rep = assumption_check(
        jet,
        float(cfg.get("varrho", 0.0)),
        cfg["preset"],
        c0=float(cfg.get("c0", 0.0)),
        b1_norm=float(cfg.get("b1_norm", 0.0)),
    )
    rows = [[rep.preset, rep.min_eigenvalue, rep.rho_t, int(rep.rho_t_required), int(rep.rho_t_ok), int(rep.matrix_ok), rep.passed]]
    cols = ["preset", "min_eigenvalue", "rho_t", "rho_t_required", "rho_t_ok", "matrix_ok", "pass"]
    assertions = []
    if cfg.get("expect_pass", True):
        assertions.append(("assumption_holds", rep.passed, f"min eig {rep.min_eigenvalue:.3e}, rho_t {rep.rho_t:.3e}"))
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "qv-check",
    {
        "grid": _GRID,
        "coeffs": _COEFFS,
        "u0": _FNSPEC,
        "u1": _FNSPEC,
        "paths": _COUNT,
        "tolerance": _NUM,
        "rho": _FNSPEC,
        "weights": _WEIGHTS,
    },
    ["grid", "coeffs", "u0"],
    # the weight theta = e^ell needs both its rho and its parameters
    dependentRequired={"rho": ["weights"], "weights": ["rho"]},
)
def _run_qv_check(cfg: dict):
    from .identities import qv_check
    from .weights import WeightFamily

    grid, _, u0_vals, u1_vals, samplers = _wave_from(cfg)
    family = params = None
    if "rho" in cfg:
        family = WeightFamily(fn_from_spec(cfg["rho"], grid.n))
        params, _ = _weights_from(cfg["weights"], grid.n)
    paths = cfg.get("paths", 100)
    tol = cfg.get("tolerance", 0.05)
    rep = qv_check(grid, samplers, u0_vals, u1_vals, paths=paths, seed=cfg.get("seed", 0), family=family, params=params)
    # zero diffusion leaves nothing to compare relatively: both sums must then vanish exactly
    passed = rep.relative_error <= tol if rep.predicted != 0.0 else rep.empirical == 0.0
    rows = [[paths, rep.empirical, rep.predicted, rep.relative_error, rep.standard_error, passed]]
    cols = ["paths", "empirical_qv", "predicted_qv", "relative_error", "standard_error", "pass"]
    assertions = [("qv_agreement", passed, f"rel {rep.relative_error:.3e} <= {tol}")]
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "inequality-scan",
    {
        "preset": {"enum": ["T3.2", "T4.2", "T5.1", "T6.2"]},
        "rho": _FNSPEC,
        "varrho": {"oneOf": [_NUM, _FNSPEC]},
        "u": _FNSPEC,
        "cutoff": _CUTOFF,
        "weights": _WEIGHTS,
        "region": _REGION,
        "c0": _NUM,
        "c1": _NUM,
        "b1": _NUM,
        "b2": _NUM,
        "paths": _INT,
        "assert_nonnegative": {"type": "boolean"},
    },
    ["preset", "rho", "u", "weights", "region"],
    plot=("lambda", "gap_scaled"),
    # gap = gap_scaled e^log_scale is ±inf by design once log_scale reaches 700; the
    # margins are NaN when the preset computes none
    nonfinite={"gap": "inf", "vt_margin": "nan", "v_margin": "nan", "structure_min_eig": "nan"},
)
def _run_inequality_scan(cfg: dict):
    from .identities import inequality_gap
    from .weights import WeightFamily

    region = _region_from(cfg["region"])
    n = region.n
    rho = fn_from_spec(cfg["rho"], n)
    varrho = cfg.get("varrho", 0.0)
    if isinstance(varrho, dict):
        varrho = fn_from_spec(varrho, n)
    family = WeightFamily(rho, varrho)
    u_fn = fn_from_spec(cfg["u"], n)
    params, lambdas = _weights_from(cfg["weights"], n)
    cutoff = _cutoff_from(cfg["cutoff"]) if "cutoff" in cfg else None
    c1 = float(cfg.get("c1", 1.0))
    scan = inequality_gap(
        cfg["preset"], u_fn, family, params, lambdas, region,
        cutoff=cutoff,
        c0=float(cfg.get("c0", 1.0)),
        c1=c1,
        b1=cfg.get("b1", c1),
        b2=float(cfg.get("b2", 0.0)),
        paths=int(cfg.get("paths", 0)),
        seed=cfg.get("seed", 0),
    )
    hom_expect, hom_actual = scan.homogeneity_pair
    hom_rel = abs(hom_actual - hom_expect) / max(1e-300, abs(hom_expect))
    rows = []
    for r in scan.rows:
        rows.append(
            [r.lam, r.gap_scaled, r.log_scale, r.gap]
            + [r.components[k] for k in ("qf_char", "qf_mat", "mu_terms", "cubic", "qv", "bound", "s_sq")]
            + [scan.margins.get("vt_margin", math.nan), scan.margins.get("v_margin", math.nan),
               scan.margins.get("structure_min_eig", math.nan), hom_rel]
        )
    cols = [
        "lambda", "gap_scaled", "log_scale", "gap",
        "qf_char", "qf_mat", "mu_terms", "cubic", "qv", "bound", "s_sq",
        "vt_margin", "v_margin", "structure_min_eig", "homogeneity_rel_err",
    ]
    assertions = [("quadratic_homogeneity", hom_rel <= 1e-10, f"rel {hom_rel:.3e}")]
    default_assert = cfg["preset"] in ("T4.2",)
    if cfg.get("assert_nonnegative", default_assert):
        ok = all(r.gap_scaled >= 0.0 for r in scan.rows)
        worst = min(r.gap_scaled for r in scan.rows)
        assertions.append(("gap_nonnegative", ok, f"min scaled gap {worst:.3e}"))
    return ResultTable(cols, rows, {}), assertions


def _stencil_sanity(grid, u0: AnalyticFn, arr: np.ndarray) -> tuple[bool, str]:
    """The solver's stencils on ``arr``, u0 at the nodes, against u0's exact jet at the central node."""
    idx = tuple(s // 2 for s in grid.shape)
    point = [grid.axis(j)[idx[j]] for j in range(grid.n)]
    jet = u0.jet2(0.0, point)
    lap_fd = float(laplacian_array(arr, grid.dx, grid.n)[idx])
    lap_exact = float(np.trace(jet.hess_xx))
    g_fd = float(gradient_array(arr, grid.dx, 0)[idx])
    g_exact = float(jet.grad_x[0])
    scale = max(1.0, abs(lap_exact), abs(g_exact))
    err = max(abs(lap_fd - lap_exact), abs(g_fd - g_exact)) / scale
    # wiring check: a wrong axis or sign shows up at order one, truncation at O(dx^2)
    return err <= 0.1, f"stencil vs jet rel err {err:.3e}"


@subcommand(
    "propagation",
    {
        "grid": _GRID,
        "support": _SUPPORT,
        "u0": _FNSPEC,
        "u1": _FNSPEC,
        "coeffs": _COEFFS,
        "paths": _COUNT,
        "stride": _COUNT,
        "halo_cells": _INT,
        "outside_tolerance": _NUM,
    },
    ["grid", "support", "u0", "coeffs", "paths"],
    plot=("time", "outside_over_initial"),
)
def _run_propagation(cfg: dict):
    from .propagation import DEFAULT_HALO_CELLS, run_propagation

    grid, u0, u0_vals, u1_vals, samplers = _wave_from(cfg)
    support = _support_from(cfg["support"])
    out_tol = cfg.get("outside_tolerance", 1e-6)
    stencil_ok, stencil_detail = _stencil_sanity(grid, u0, u0_vals)
    trace = run_propagation(
        grid, support, u0_vals, u1_vals, samplers,
        paths=cfg["paths"], seed=cfg.get("seed", 0),
        stride=cfg.get("stride"), halo_cells=cfg.get("halo_cells", DEFAULT_HALO_CELLS),
    )
    rows = []
    for k, tv in enumerate(trace.times):
        rows.append([
            tv, trace.mean[k], trace.standard_error[k], trace.outside_mean[k],
            trace.outside_standard_error[k],
            trace.outside_mean[k] / max(trace.total_initial, 1e-300),
            trace.gronwall_constant,
        ])
    cols = ["time", "local_energy_mean", "local_energy_se", "outside_mean", "outside_se", "outside_over_initial", "gronwall_constant"]
    worst = float(np.max(trace.outside_mean)) / max(trace.total_initial, 1e-300)
    assertions = [
        ("stencil_sanity", stencil_ok, stencil_detail),
        ("outside_energy", worst <= out_tol, f"max ratio {worst:.3e} <= {out_tol:.0e}"),
    ]
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "ucp-decay",
    {
        "grid": _GRID,
        "rho": _FNSPEC,
        "weights": _WEIGHTS,
        "u0": _FNSPEC,
        "u1": _FNSPEC,
        "coeffs": _COEFFS,
        "paths": _COUNT,
        "assert_decay": {"type": "boolean"},
    },
    ["grid", "rho", "weights", "u0", "coeffs", "paths"],
    plot=("lambda", "weighted_norm_scaled"),
    # the probe is NaN when a run records fewer than three snapshots
    nonfinite={"utt_probe": "nan"},
)
def _run_ucp_decay(cfg: dict):
    from . import solver
    from .propagation import DATA_SUPPORT_TOL
    from .weights import CarlemanFrame, WeightFamily

    grid, u0, u0_vals, u1_vals, samplers = _wave_from(cfg)
    rho = fn_from_spec(cfg["rho"], grid.n)
    family = WeightFamily(rho)
    params, lambdas = _weights_from(cfg["weights"], grid.n)
    paths = cfg["paths"]
    seed = cfg.get("seed", 0)
    stencil_ok, stencil_detail = _stencil_sanity(grid, u0, u0_vals)

    # initial data must vanish where rho > 0
    positive = grid.sample(rho, 0.0) > 0.0
    leak = max(solver.relative_leak(vals, positive) for vals in (u0_vals, u1_vals) if vals is not None)

    init = solver.initial_state(grid, u0_vals, u1_vals, samplers)
    e0 = solver.total_energy(init, grid)
    stride = max(1, grid.num_steps // 20)
    mesh = list(grid.meshgrid())
    phis = [
        np.asarray(family.phi(np.full(grid.shape, k * grid.dt), mesh, params), dtype=float)
        for k in solver.recorded_steps(grid.num_steps, stride)
    ]
    phi_max = max(float(np.max(p)) for p in phis)
    th2 = {lv: [np.exp(2.0 * lv * (p - phi_max)) for p in phis] for lv in lambdas}
    center = [grid.x_lo[j] + 0.5 * (grid.x_hi[j] - grid.x_lo[j]) for j in range(grid.n)]
    phi_center = CarlemanFrame.make(0.0, center, rho.jet2(0.0, center), params, 0.0).phi
    mid = (slice(None),) + tuple(s // 2 for s in grid.shape)

    def reduce(k, state):
        u2, ut2 = state.u**2, state.ut**2
        rows = [solver.row_sums(th2[lv][k] * (lv**3 * u2 + lv * ut2)) for lv in th2]
        return (*rows, state.u[mid])

    times, out = solver.solve(init, samplers, grid, solver.brownian_paths(seed, grid, paths), reduce, stride=stride)
    sums, u_mid = dict(zip(th2, out)), out[-1][0]
    utt_probe = math.nan
    if len(times) >= 3:
        # second difference of path 0's first three mid-node values
        utt_probe = float((u_mid[2] - 2.0 * u_mid[1] + u_mid[0]) / float(times[1] - times[0]) ** 2)
    # scalar sums path by path, then snapshot by snapshot; one array sum would reorder them
    norms = {lv: 0.0 for lv in lambdas}
    for p in range(paths):
        for k in range(len(times)):
            for lv in lambdas:
                norms[lv] += float(sums[lv][p, k]) * grid.cell_volume * grid.dt * stride
    rows = []
    prev = None
    monotone = True
    for lv in lambdas:
        w = norms[lv] / paths
        if prev is not None and w > prev:
            monotone = False
        rows.append([lv, w, phi_max, phi_center, e0, utt_probe])
        prev = w
    cols = ["lambda", "weighted_norm_scaled", "phi_max", "phi_center", "initial_energy", "utt_probe"]
    assertions = [
        ("stencil_sanity", stencil_ok, stencil_detail),
        ("data_vanishes_on_positive_side", leak <= DATA_SUPPORT_TOL, f"relative leak {leak:.3e}"),
    ]
    if cfg.get("assert_decay", True):
        assertions.append(("weighted_norm_decay", monotone, "scaled norm nonincreasing in lambda"))
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "geometry", {"alpha": _NUM, "c1": _NUM, "x0": _VEC, "direction": _VEC, "ktilde_samples": _COUNT}, ["alpha", "c1"]
)
def _run_geometry(cfg: dict):
    from .cones import VERTEX_TOL, ConeSpec, c3_constant, cone_cross_offset, cone_time_offset, membership, vertex

    alpha = float(cfg["alpha"])
    c1 = float(cfg["c1"])
    seed = cfg.get("seed", 0)
    samples = cfg.get("ktilde_samples", 20)
    c3 = c3_constant(alpha, c1)
    x0 = np.asarray(cfg.get("x0", [0.0]), dtype=float)
    n = len(x0)
    direction = np.asarray(cfg.get("direction", [1.0] + [0.0] * (n - 1)), dtype=float)
    if len(direction) != n:
        raise ConfigurationError(f"direction has {len(direction)} entries for x0 of dimension {n}")
    direction = direction / np.linalg.norm(direction)
    x1 = x0 + 2.0 * math.sqrt(c3) * direction
    t2, x2 = vertex(0.0, x0, x1, alpha, c3)
    r1 = alpha * t2**2 - float(np.sum((x2 - x0) ** 2))
    r2 = 0.5 * alpha * t2**2 - float(np.sum((x2 - x1) ** 2)) - c3
    scale = max(1.0, alpha * t2**2, c3)
    q0 = ConeSpec("Q0", 0.0, tuple(x0), alpha, 0.0)
    q1 = ConeSpec("Q1", 0.0, tuple(x1), alpha, c3)
    kmax = math.sqrt(1.5) - 1.0
    draws = uniform_stream(seed, samples, stream=7)
    inside_ok = 0
    for uval in draws:
        ktilde = (2.0 * uval - 1.0) * kmax * 0.98
        x = x1 + ktilde * (x0 - x1)
        if membership(t2, x, q1) == "inside" and membership(t2, x, q0) == "outside":
            inside_ok += 1
    rows = [[
        alpha, c1, c3, t2, float(x2[0]), abs(r1) / scale, abs(r2) / scale,
        cone_time_offset(alpha, c3), cone_cross_offset(c3), samples, inside_ok,
    ]]
    cols = ["alpha", "c1", "c3", "t2", "x2_1", "vertex_residual_1", "vertex_residual_2", "T0", "X0", "ktilde_samples", "ktilde_inside"]
    assertions = [
        ("vertex_residuals", abs(r1) <= VERTEX_TOL * scale and abs(r2) <= VERTEX_TOL * scale, f"({r1:.3e}, {r2:.3e})"),
        ("membership_witnesses", inside_ok == samples, f"{inside_ok} of {samples} inside Q1 minus Q0"),
    ]
    return ResultTable(cols, rows, {}), assertions


@subcommand(
    "sweep",
    {"alpha": _NUM, "c1": _NUM, "target_t_over_T0": _NUM, "mesh": _NUM, "direction": _VEC},
    ["alpha", "c1"],
    plot=("step", "radius_offset"),
)
def _run_sweep(cfg: dict):
    from .cones import ContainmentError, c3_constant, cone_time_offset, sweep_cover

    alpha = float(cfg["alpha"])
    c1 = float(cfg["c1"])
    c3 = c3_constant(alpha, c1)
    t0_off = cone_time_offset(alpha, c3)
    target_t = float(cfg.get("target_t_over_T0", 3.0)) * t0_off
    try:
        states = sweep_cover(alpha, c1, target_t, mesh=float(cfg.get("mesh", 1e-2)), direction=cfg.get("direction", [1.0]))
        contained = (True, f"{len(states)} steps, all hypothesis samples contained")
    except ContainmentError as exc:
        states, contained = exc.states, (False, str(exc))
    rows = [
        [s.step, s.radius_offset, s.base_center_norm, s.samples_checked, s.worst_violation, s.min_sample_time]
        for s in states
    ]
    cols = ["step", "radius_offset", "base_center_norm", "samples_checked", "worst_violation", "min_sample_time"]
    reached = states[-1].radius_offset if states else 0.0
    covered = bool(states) and reached + math.sqrt(alpha) * t0_off >= math.sqrt(alpha) * target_t
    assertions = [
        ("containment_verified", *contained),
        ("coverage_reached", covered, f"radius offset {reached:.4g}"),
    ]
    return ResultTable(cols, rows, {}), assertions


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _numbers_finite(table: ResultTable, nonfinite: dict) -> tuple:
    """The ``numbers_finite`` assertion: every float cell is finite, or the kind of
    non-finite value ("nan", or "inf" of either sign) that ``nonfinite`` declares for its column."""
    floats = [v for row in table.rows for v in row if isinstance(v, (float, np.floating))]
    bad = []
    if not all(map(math.isfinite, floats)):  # locate the failures only when there are any
        bad = [
            (i, col, v)
            for i, row in enumerate(table.rows, 1)
            for col, v in zip(table.columns, row)
            if isinstance(v, (float, np.floating))
            and not math.isfinite(v)
            and nonfinite.get(col) != ("nan" if math.isnan(v) else "inf")
        ]
    if not bad:
        return "numbers_finite", True, f"{len(floats)} float cells"
    i, col, v = bad[0]
    where = f"{col} is {format_scalar(v)} in row {i} of {len(table.rows)}"
    return "numbers_finite", False, f"{where}; {len(bad)} of {len(floats)} float cells are not finite"


def _emit_gnuplot(plot, table: ResultTable, csv_path: Path, gp_path: Path):
    xcol, ycol = plot or (table.columns[0], table.columns[-1])
    xi, yi = table.columns.index(xcol) + 1, table.columns.index(ycol) + 1
    gp_path.write_text(
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set xlabel '{xcol}'\n"
        f"set ylabel '{ycol}'\n"
        f"plot '{csv_path.name}' using {xi}:{yi} with linespoints\n",
        encoding="utf-8",
        newline="\n",
    )


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality, as ``enum`` and ``const`` compare: 1 equals 1.0, not True."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _errors(v, schema: dict, path: tuple = ()):
    """(path, reason) for each way the JSON value ``v`` breaks ``schema``."""
    obj, arr = isinstance(v, dict), isinstance(v, list)
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](v):
                yield path, f"{v!r} is not of type {arg!r}"
        elif key == "properties":
            for name, sub in arg.items() if obj else ():
                if name in v:
                    yield from _errors(v[name], sub, path + (name,))
        elif key == "additionalProperties":
            extra = sorted(k for k in v if k not in schema.get("properties", {})) if obj else []
            if arg is False and extra:
                yield path, f"additional properties are not allowed ({', '.join(map(repr, extra))} unexpected)"
            elif arg is not False:
                for name in extra:
                    yield from _errors(v[name], arg, path + (name,))
        elif key == "required":
            for name in arg if obj else ():
                if name not in v:
                    yield path, f"{name!r} is a required property"
        elif key == "dependentRequired":
            for name, needs in arg.items() if obj else ():
                for need in needs if name in v else ():
                    if need not in v:
                        yield path, f"{need!r} is required when {name!r} is given"
        elif key == "items":
            for i, item in enumerate(v) if arr else ():
                yield from _errors(item, arg, path + (i,))
        elif key == "minItems":
            if arr and len(v) < arg:
                yield path, f"{v!r} has fewer than {arg} items"
        elif key == "maxItems":
            if arr and len(v) > arg:
                yield path, f"{v!r} has more than {arg} items"
        elif key == "minimum":
            if _is_number(v) and v < arg:
                yield path, f"{v!r} is less than the minimum of {arg!r}"
        elif key == "enum":
            if not any(_same(v, option) for option in arg):
                yield path, f"{v!r} is not one of {arg!r}"
        elif key == "const":
            if not _same(v, arg):
                yield path, f"{arg!r} was expected"
        elif key == "oneOf":
            valid = sum(not any(_errors(v, sub, path)) for sub in arg)
            if valid != 1:
                yield path, f"{v!r} is valid under {valid} of the {len(arg)} oneOf schemas, not exactly one"
        else:
            raise KeyError(f"schema keyword {key!r} is not supported")


def validate_config(cfg: dict, subcommand: str) -> list[str]:
    """``path: reason`` for each schema violation of ``cfg``; empty when it is valid."""
    if subcommand not in SUBCOMMANDS:
        return [f"unknown subcommand {subcommand!r}"]
    schema = SUBCOMMANDS[subcommand].schema
    return [f"{'/'.join(map(str, path)) or '<root>'}: {reason}" for path, reason in _errors(cfg, schema)]


def run(
    config_path: str,
    subcommand: str,
    out_dir: str | None = None,
    seed: int | None = None,
    paths: int | None = None,
    gnuplot: bool = False,
) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        cfg = load_config(config_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return 2
    record = SUBCOMMANDS.get(subcommand)
    # command-line overrides are part of the config the schema must accept
    if seed is not None:
        cfg["seed"] = int(seed)
    if paths is not None and record is not None:
        if "paths" not in record.schema["properties"]:
            print(f"config error: --paths: {subcommand} takes no paths", file=sys.stderr)
            return 2
        cfg["paths"] = int(paths)
    errors = validate_config(cfg, subcommand)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    out = Path(out_dir or cfg.get("out_dir") or "out")

    started = time.perf_counter()
    table = None
    try:
        table, assertions = record.run(cfg)
    except (ConfigurationError, CapabilityError, GeometryError, SupportError, StatisticsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, PropagationError) as exc:
        # a failed computation, not a usage error: logged, with no result table
        assertions = [("run_error", False, str(exc))]
    wall = time.perf_counter() - started

    digest = config_hash(cfg)
    out.mkdir(parents=True, exist_ok=True)
    if table is not None:
        assertions.append(_numbers_finite(table, record.nonfinite))
        table.metadata = {"config_hash": digest, "version": __version__, "wall_time_s": wall}
        csv_path = out / f"{subcommand}.csv"
        emit_csv(table, csv_path)
        if gnuplot:
            _emit_gnuplot(record.plot, table, csv_path, out / f"{subcommand}.gp")

    ok = all(passed for _, passed, _ in assertions)
    log_lines = [
        f"experiment: {subcommand}",
        f"config: {config_path}",
        f"config_hash: {digest}",
        f"version: {__version__}",
        f"wall_time_s: {wall:.3f}",
    ]
    for name, passed, detail in assertions:
        log_lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    log_lines.append(f"exit: {0 if ok else 1}")
    (out / f"{subcommand}.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8", newline="\n")
    for line in log_lines[5:]:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    # Freeze the heap at exit: a command-line process's objects die with it, and frozen ones are
    # not walked by the interpreter's collection at shutdown.  atexit handlers run only at exit,
    # so a caller of main in its own process keeps an unfrozen heap; unregister keeps one handler.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(
        prog="carleman-lab",
        description="Numerical laboratory for Carleman-weight identities and stochastic wave experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in sorted(SUBCOMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--gnuplot", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return run(
        args.config,
        args.subcommand,
        out_dir=args.out,
        seed=args.seed,
        paths=args.paths,
        gnuplot=args.gnuplot,
    )


if __name__ == "__main__":
    sys.exit(main())
