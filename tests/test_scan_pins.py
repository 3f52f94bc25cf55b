"""Pinned inequality scans: every ``GapScan`` number of a set of setups, bit for bit.

The seed sweep pins only the bundled T4.2 scan; these setups reach the other
presets, a function varrho, Monte Carlo paths, a row whose gap overflows and
a scan in two space dimensions.  Each number is stored as ``float.hex``, so a
change of the last bit fails.  Record the file anew only at a commit whose
numbers are the accepted ones:

    PYTHONPATH=src python3 tests/test_scan_pins.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from carleman_lab.fields import make_fn
from carleman_lab.identities import CutoffSpec, RegionSpec, inequality_gap
from carleman_lab.weights import WeightFamily, WeightParams

RECORD = Path(__file__).resolve().parent / "data" / "scan_pins.json"
# the components the inequality-scan CSV writes
COMPONENTS = ("qf_char", "qf_mat", "mu_terms", "cubic", "qv", "bound", "s_sq")

_BUMP_1D = dict(amp=1.0, tc=0.0, rt=0.024, cx1=0.06, rx1=0.024)
_REGION_1D = RegionSpec(t_lo=-0.08, t_hi=0.08, nt=81, x_lo=(-0.02,), x_hi=(0.15,), nx=87)
_CUTOFF = CutoffSpec(c2=0.65, eps=0.1)
_OPTIONS = dict(cutoff=None, c0=1.0, c1=1.0, b1=1.0, b2=0.0, paths=0, seed=0)


def _char_linear_1d(varrho=0.0):
    return WeightFamily(make_fn("char_linear", 1), varrho)


# name -> (preset, u, family, params, lambdas, region, options)
SETUPS = {
    "T3.2 cutoff": lambda: (
        "T3.2", make_fn("bump4", 1, **_BUMP_1D), _char_linear_1d(0.3),
        WeightParams(lam=8.0, gamma=2.0, mu=0.2, t0=0.0, x0=(0.0,)), [8.0, 16.0, 32.0, 64.0], _REGION_1D,
        dict(cutoff=_CUTOFF),
    ),
    "T4.2 paths": lambda: (
        "T4.2", make_fn("bump4", 1, **_BUMP_1D), _char_linear_1d(),
        WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0,)), [8.0, 16.0], _REGION_1D,
        dict(cutoff=_CUTOFF, b2=0.3, paths=6, seed=5),
    ),
    "T4.2 lambda 1024": lambda: (
        "T4.2", make_fn("bump4", 1, **_BUMP_1D), _char_linear_1d(),
        WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0,)), [8.0, 1024.0], _REGION_1D,
        dict(cutoff=_CUTOFF),
    ),
    "T4.2 function varrho": lambda: (
        "T4.2", make_fn("bump4", 1, **_BUMP_1D),
        _char_linear_1d(make_fn("quadratic", 1, c0=0.5, ct=0.3, qtt=0.2, cx1=-0.1, qx1=0.4)),
        WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0,)), [8.0, 32.0], _REGION_1D,
        dict(c0=0.5, c1=0.8, b1=0.7),
    ),
    "T5.1": lambda: (
        "T5.1", make_fn("bump4", 1, amp=1.0, tc=0.0, rt=0.02, cx1=0.08, rx1=0.02),
        WeightFamily(make_fn("quadratic", 1, c0=0.0, ct=1.0, qtt=3.0, cx1=-1.0, qx1=1.0), 1.5),
        WeightParams(lam=8.0, gamma=1.0, mu=0.05, t0=0.0, x0=(0.0,)), [8.0, 16.0],
        RegionSpec(t_lo=-0.06, t_hi=0.06, nt=61, x_lo=(0.0,), x_hi=(0.16,), nx=81),
        dict(c1=0.5, b1=0.5, b2=0.2),
    ),
    "T6.2 cone": lambda: (
        "T6.2", make_fn("bump4", 1, amp=1.0, tc=3.2, rt=0.15, cx1=0.0, rx1=0.15),
        WeightFamily(make_fn("cone_level", 1, a=0.9, t0=0.0, cx1=0.0), 2.0),
        WeightParams(lam=8.0, gamma=1.0, mu=0.0, t0=0.0, x0=(0.0,)), [8.0, 16.0],
        RegionSpec(t_lo=2.9, t_hi=3.5, nt=61, x_lo=(-0.35,), x_hi=(0.35,), nx=71),
        dict(c1=4.0, b1=4.0),
    ),
    "T4.2 n=2": lambda: (
        "T4.2", make_fn("bump4", 2, amp=1.0, tc=0.0, rt=0.024, cx1=0.06, rx1=0.024, cx2=0.0, rx2=0.024),
        WeightFamily(make_fn("char_linear", 2, ux1=1.0, ux2=0.0), 0.0),
        WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0, 0.0)), [8.0, 16.0],
        RegionSpec(t_lo=-0.04, t_hi=0.04, nt=21, x_lo=(0.02, -0.04), x_hi=(0.1, 0.04), nx=21),
        dict(cutoff=_CUTOFF),
    ),
}


def _pins(name: str) -> dict:
    """Every number of the setup's ``GapScan``, as ``float.hex``."""
    preset, u_fn, family, params, lambdas, region, options = SETUPS[name]()
    scan = inequality_gap(preset, u_fn, family, params, lambdas, region, **{**_OPTIONS, **options})
    return {
        "rows": [
            [float.hex(float(v)) for v in (r.lam, r.gap_scaled, r.log_scale, r.gap)]
            + [float.hex(r.components[k]) for k in COMPONENTS]
            for r in scan.rows
        ],
        "margins": {k: float.hex(v) for k, v in sorted(scan.margins.items())},
        "homogeneity_pair": [float.hex(float(v)) for v in scan.homogeneity_pair],
    }


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_scan_equals_its_recorded_pins(name):
    assert _pins(name) == json.loads(RECORD.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    RECORD.write_text(json.dumps({name: _pins(name) for name in sorted(SETUPS)}, indent=1) + "\n")
