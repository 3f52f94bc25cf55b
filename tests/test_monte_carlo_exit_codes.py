"""Exit codes of the Monte Carlo subcommands on small random configs.

Every run either exits 0 or 1 with a log whose last line is its exit code, that
names a FAIL exactly when the code is 1, and with a CSV exactly when the log
names no run_error; or it exits 2 having written nothing.  ``cli.run`` never
raises.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from carleman_lab.cli import run

# the huge bumps overflow on purpose
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

HALF_WIDTHS = (0.5, 1.0, 1.5)
COEFF = st.one_of(st.none(), st.floats(-3.0, 3.0), st.sampled_from([1e10, -1e10]))


@st.composite
def grids(draw, short):
    """1-D grids of at most 61 nodes and 40 steps; dt from well inside to just past the
    CFL bound.  A ``short`` horizon has at most half as many steps as cells, so that
    some fields stay clear of the boundary."""
    half = draw(st.sampled_from(HALF_WIDTHS))
    cells = draw(st.integers(4, 60))
    dx = 2.0 * half / cells
    dt = dx * draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    steps = draw(st.integers(1, min(40, cells // 2) if short else 40))
    return {"bounds": [[-half, half]], "dx": dx, "dt": dt, "t_max": steps * dt}


def bumps(lo, hi, rmax):
    """Bumps centred in [lo, hi] of radius up to rmax, some huge."""
    return st.fixed_dictionaries({
        "name": st.just("space_bump4"),
        "params": st.fixed_dictionaries({
            "amp": st.sampled_from([1.0, -0.5, 1e-8, 1e150]),
            "cx1": st.floats(lo, hi),
            "rx1": st.floats(0.02, rmax),
        }),
    })


def placed_bumps(half):
    """Bumps mostly well inside the domain, sometimes anywhere."""
    return st.one_of(bumps(-0.4 * half, 0.4 * half, 0.3 * half), bumps(-half, half, half))


def coefficients():
    return st.fixed_dictionaries({}, optional={"a1": COEFF, "a3": COEFF, "b1": COEFF, "b2": COEFF, "f": COEFF})


@st.composite
def configs(draw, subcommand):
    grid = draw(grids(short=subcommand != "qv-check"))
    half = grid["bounds"][0][1]
    cfg = {"experiment": subcommand, "grid": grid, "coeffs": draw(coefficients()), "seed": draw(st.integers(0, 50))}
    if subcommand == "qv-check":
        cfg["u0"] = draw(st.one_of(placed_bumps(half), st.just({"name": "standing_wave", "params": {"amp": 1.0}})))
        cfg["paths"] = 100
        if draw(st.booleans()):
            cfg["rho"] = {"name": "char_linear", "params": {"ux1": draw(st.floats(-1.5, 1.5))}}
            cfg["weights"] = {"lambdas": [draw(st.floats(0.5, 8.0))], "gamma": 1.0, "mu": 0.1, "t0": 0.0, "x0": [0.0]}
        return cfg
    cfg["paths"] = draw(st.integers(1, 6))
    if subcommand == "propagation":
        # a small support mostly near the middle, sometimes by the boundary; the
        # bump mostly inside it, sometimes anywhere
        center = draw(st.one_of(st.floats(-0.2 * half, 0.2 * half), st.floats(-half, half)))
        radius = draw(st.floats(0.05, 0.5 * half))
        cfg["support"] = {"balls": [{"center": [center], "radius": radius}]}
        cfg["u0"] = draw(st.one_of(bumps(center - 0.5 * radius, center + 0.5 * radius, 0.5 * radius), bumps(-half, half, half)))
        cfg["halo_cells"] = draw(st.integers(0, 3))
        if draw(st.booleans()):
            cfg["stride"] = draw(st.integers(1, 10))
    else:
        cfg["u0"] = draw(placed_bumps(half))
        cfg["rho"] = {"name": "char_linear", "params": {"ux1": draw(st.floats(-1.5, 1.5))}}
        lambdas = draw(st.lists(st.floats(0.5, 16.0), min_size=1, max_size=4))
        cfg["weights"] = {"lambdas": lambdas, "gamma": 1.0, "mu": draw(st.floats(0.0, 0.5)), "t0": 0.0, "x0": [0.0]}
    return cfg


def _check_outcome(cfg: dict):
    sub = cfg["experiment"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        code = run(str(path), sub, out_dir=str(out))
        if code == 2:
            assert not out.exists(), cfg
            return
        assert code in (0, 1), (code, cfg)
        log = (out / f"{sub}.log").read_text().splitlines()
        assert log[-1] == f"exit: {code}", (log, cfg)
        fails = [line for line in log if line.startswith("FAIL ")]
        assert bool(fails) == (code == 1), (log, cfg)
        run_error = any(line.startswith("FAIL run_error:") for line in fails)
        assert (out / f"{sub}.csv").exists() != run_error, (log, cfg)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(configs("propagation"))
def test_propagation_exit_code_is_honest(cfg):
    _check_outcome(cfg)


@PROPERTY
@given(configs("qv-check"))
def test_qv_check_exit_code_is_honest(cfg):
    _check_outcome(cfg)


@PROPERTY
@given(configs("ucp-decay"))
def test_ucp_decay_exit_code_is_honest(cfg):
    _check_outcome(cfg)
