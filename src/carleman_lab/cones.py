"""Cone geometry for the global continuation sweep.

Two forward regions share an apex time: the full cone with opening alpha and
the offset half-opening cone shifted by the constant c3.  Their boundary
intersection has a minimal time t2 with a closed form, and translating the
certified-zero region by one cross-range X0 per step covers any target slab.
The analytic step (zero boundary data forces zero inside the offset cone) is
consumed as an axiom; this module only executes and samples the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ConfigurationError, GeometryError


class ContainmentError(Exception):
    """A sweep step's hypothesis sample lies outside the previously certified
    region, so the covering argument fails at that step.  ``states`` holds
    the steps certified before it."""

    def __init__(self, step: int, t: float, x: np.ndarray, states: list):
        super().__init__(
            f"step {step}: hypothesis sample (t={t:.6g}, x={x}) lies outside the previously certified region"
        )
        self.states = states


_K_FRAC = math.sqrt(1.5) - 1.0  # interpolation fraction of the intersection vertex

# relative width of the boundary band of ``membership``
BOUNDARY_TOL = 1e-12
# relative residual ``vertex`` accepts in the separation and the defining equations
VERTEX_TOL = 1e-9


@dataclass(frozen=True)
class ConeSpec:
    """Forward region {t >= apex_t, a_eff (t - apex_t)^2 - |x - apex_x|^2 >= offset}.

    kind "Q0": a_eff = alpha, offset 0 (closed).  kind "Q1": a_eff = alpha/2,
    offset c3 (open).
    """

    kind: str
    apex_t: float
    apex_x: tuple[float, ...]
    alpha: float
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("Q0", "Q1"):
            raise ConfigurationError("cone kind must be 'Q0' or 'Q1'")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("alpha must lie in (0, 1)")
        if self.offset < 0.0:
            raise ConfigurationError("offset must be nonnegative")
        object.__setattr__(self, "apex_x", tuple(float(v) for v in self.apex_x))

    @property
    def a_eff(self) -> float:
        return self.alpha if self.kind == "Q0" else self.alpha / 2.0

    def value(self, t, x):
        """Defining expression a_eff (t - t0)^2 - |x - x0|^2 - offset."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.asarray(t, dtype=float)
        r2 = np.sum((x - np.asarray(self.apex_x)) ** 2, axis=-1)
        out = self.a_eff * (t - self.apex_t) ** 2 - r2 - self.offset
        return float(out[0]) if out.shape == (1,) and np.ndim(t) == 0 else out

def membership(t: float, x, cone: ConeSpec) -> str:
    """Classify a point as 'inside', 'boundary', or 'outside' (t < apex is outside).

    The boundary band is BOUNDARY_TOL relative to the magnitudes entering the
    defining expression, so exact apex evaluations classify as boundary.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.sum((x - np.asarray(cone.apex_x)) ** 2))
    quad = cone.a_eff * (t - cone.apex_t) ** 2
    scale = max(1.0, abs(quad), r2, cone.offset)
    if t < cone.apex_t - BOUNDARY_TOL * scale:
        return "outside"
    val = quad - r2 - cone.offset
    if abs(val) <= BOUNDARY_TOL * scale:
        return "boundary"
    return "inside" if val > 0.0 else "outside"


def c3_constant(alpha: float, c1: float) -> float:
    """Separation constant max(8 (alpha-2)^2 / (c1^4 alpha), 32^2 / (2 c1^4 alpha^3)) + 1.

    alpha = 1 is admitted as a boundary case for oracle arithmetic.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigurationError(f"alpha must lie in (0, 1]; got {alpha}")
    if c1 <= 0.0:
        raise ConfigurationError(f"c1 must be positive; got {c1}")
    return max(c3_branches(alpha, c1)) + 1.0


def c3_branches(alpha: float, c1: float) -> tuple[float, float]:
    """The two branch values before the max and the +1 (for homogeneity tests)."""
    return (
        8.0 * (alpha - 2.0) ** 2 / (c1**4 * alpha),
        32.0**2 / (2.0 * c1**4 * alpha**3),
    )


def cone_time_offset(alpha: float, c3: float) -> float:
    """T0 = t2 - t0: minimal intersection time above the shared apex time."""
    return math.sqrt(4.0 * c3 / alpha * (math.sqrt(1.5) - 2.0) ** 2)


def cone_cross_offset(c3: float) -> float:
    """X0 = |x1 - x2|: cross-range gained per sweep step."""
    return 2.0 * math.sqrt(c3) * _K_FRAC


def vertex(t0: float, x0, x1, alpha: float, c3: float):
    """Minimal-time point (t2, x2) of the boundary intersection.

    Requires |x1 - x0|^2 = 4 c3 (within 1e-9 relative); the result is verified
    against both defining equations
        alpha (t2-t0)^2 - |x2-x0|^2 = 0,
        alpha/2 (t2-t0)^2 - |x2-x1|^2 = c3.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    sep2 = float(np.sum((x1 - x0) ** 2))
    if abs(sep2 - 4.0 * c3) > VERTEX_TOL * max(1.0, 4.0 * c3):
        raise GeometryError(f"|x1 - x0|^2 = {sep2} but 4 c3 = {4.0 * c3}")
    t2 = t0 + cone_time_offset(alpha, c3)
    x2 = x1 + _K_FRAC * (x0 - x1)
    r1 = alpha * (t2 - t0) ** 2 - float(np.sum((x2 - x0) ** 2))
    r2 = 0.5 * alpha * (t2 - t0) ** 2 - float(np.sum((x2 - x1) ** 2)) - c3
    scale = max(1.0, alpha * (t2 - t0) ** 2, c3)
    if abs(r1) > VERTEX_TOL * scale or abs(r2) > VERTEX_TOL * scale:
        raise GeometryError(f"vertex residuals ({r1}, {r2}) exceed {VERTEX_TOL} relative")
    return float(t2), x2


@dataclass(frozen=True)
class SweepState:
    """Certified-zero slab after one sweep step: {t >= T0, |x| <= sqrt(alpha) t + k X0}."""

    step: int
    radius_offset: float         # k X0
    base_center_norm: float      # |y3| of the step's base cone
    samples_checked: int
    worst_violation: float       # most positive (|x| - sqrt(alpha) t - (k-1) X0) seen
    min_sample_time: float


def steps_for_radius(radius: float, alpha: float, c1: float) -> int:
    """Steps until the slab radius at time T0 reaches ``radius``."""
    c3 = c3_constant(alpha, c1)
    t0_off = cone_time_offset(alpha, c3)
    x0_off = cone_cross_offset(c3)
    base = math.sqrt(alpha) * t0_off
    if radius <= base:
        return 1
    return max(1, math.ceil((radius - base) / x0_off - 1e-12))


def _sample_intersection(alpha: float, c3: float, y3: np.ndarray, y4: np.ndarray, t_hi: float, mesh: float):
    """Points on the Q0(0, y3) boundary inside Q1(0, y4), sampled densely."""
    n = y3.size
    t0_off = cone_time_offset(alpha, c3)
    t_lo = max(t0_off * 0.5, 1e-6)
    num_t = max(16, int(round((t_hi - t_lo) / (mesh * t0_off))))
    ts = np.linspace(t_lo, t_hi, num_t)
    pts_t, pts_x = [], []
    if n == 1:
        for tv in ts:
            r = math.sqrt(alpha) * tv
            for xv in (y3[0] - r, y3[0] + r):
                pts_t.append(tv)
                pts_x.append([xv])
    else:
        num_dir = max(32, int(round(2.0 * math.pi / mesh)))
        angles = np.linspace(0.0, 2.0 * math.pi, num_dir, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for tv in ts:
            r = math.sqrt(alpha) * tv
            for d in dirs:
                pts_t.append(tv)
                pts_x.append(list(y3 + r * d))
    pts_t = np.asarray(pts_t)
    pts_x = np.asarray(pts_x)
    q1 = ConeSpec("Q1", 0.0, tuple(y4), alpha, offset=c3)
    inside = q1.value(pts_t, pts_x) > 0.0
    return pts_t[inside], pts_x[inside]


def sweep_cover(alpha: float, c1: float, target_t: float, mesh: float = 1e-2, direction=None) -> list[SweepState]:
    """Covering schedule: one slab per step, radius offset growing by X0.

    Each step's hypothesis surface (boundary of the step's base cone inside
    the step's offset cone) is sampled and verified to lie in the previous
    step's certified region; a violating sample raises ContainmentError.  The
    schedule runs until the slab at time T0 covers radius sqrt(alpha) target_t.
    """
    c3 = c3_constant(alpha, c1)
    t0_off = cone_time_offset(alpha, c3)
    x0_off = cone_cross_offset(c3)
    if target_t < t0_off:
        raise GeometryError(f"target_t = {target_t} is below the first covering time {t0_off}")
    n_steps = steps_for_radius(math.sqrt(alpha) * target_t, alpha, c1)
    if direction is None:
        direction = np.array([1.0])
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    n = direction.size
    sep = 2.0 * math.sqrt(c3)
    states: list[SweepState] = []
    sqrt_a = math.sqrt(alpha)
    for k in range(1, n_steps + 1):
        y3 = (k - 1) * x0_off * direction
        y4 = y3 + sep * direction
        ts, xs = _sample_intersection(alpha, c3, y3, y4, max(target_t, t0_off * 2.0), mesh)
        if ts.size == 0:
            raise GeometryError(f"step {k}: intersection sampling produced no points")
        # previous certified region: the initial cone for k = 1, else the slab
        radii = np.linalg.norm(xs, axis=1)
        if k == 1:
            q0 = ConeSpec("Q0", 0.0, (0.0,) * n, alpha, 0.0)
            slack = q0.value(ts, xs)
            worst = float(np.max(-slack))
            ok = (slack >= -1e-9 * max(1.0, c3)).all()
        else:
            excess = radii - (sqrt_a * ts + (k - 1) * x0_off)
            tmin_ok = ts >= t0_off - 1e-9
            worst = float(np.max(excess))
            ok = bool((excess <= 1e-9 * max(1.0, radii.max())).all() and tmin_ok.all())
        if not ok:
            bad = int(np.argmax(-slack if k == 1 else excess))
            raise ContainmentError(k, ts[bad], xs[bad], states)
        states.append(
            SweepState(
                step=k,
                radius_offset=k * x0_off,
                base_center_norm=float(np.linalg.norm(y3)),
                samples_checked=int(ts.size),
                worst_violation=worst,
                min_sample_time=float(np.min(ts)),
            )
        )
    return states
