"""Finite-propagation-speed experiments: distance functions, mollified local
energy outside the unit-speed cone, and the Monte Carlo trace over paths.

The mollifier weights energy at distance d_K(x) - t beyond the inflated
support; for exact solutions that energy stays zero.  On the grid the stencil
leaks one cell per step, so the discrete claim is checked against a fixed
3-cell halo, which separates scheme leakage from the propagation statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AnalyticFn, ConfigurationError, Grid
from . import solver as _solver


DEFAULT_HALO_CELLS = 3


def worker_count() -> int:
    """Always 1: paths are stepped as chunked ensembles in the calling thread.
    Kept only because the benchmark's environment record reads it."""
    return 1


# ---------------------------------------------------------------------------
# Support sets and distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportSet:
    """Union of closed balls and boxes in R^n."""

    balls: tuple = ()          # ((center tuple, radius), ...)
    boxes: tuple = ()          # ((lo tuple, hi tuple), ...)

    def __post_init__(self):
        if not self.balls and not self.boxes:
            raise ConfigurationError("SupportSet must have at least one component")
        for _, r in self.balls:
            if r <= 0:
                raise ConfigurationError("ball radius must be positive")
        for lo, hi in self.boxes:
            if any(h <= l for l, h in zip(lo, hi)):
                raise ConfigurationError("box must have positive extent on every axis")

    @property
    def n(self) -> int:
        if self.balls:
            return len(self.balls[0][0])
        return len(self.boxes[0][0])


def distance_to_set(x, support: SupportSet):
    """Euclidean distance to the union; exact per component, Lipschitz-1.

    ``x`` is one point (length-n sequence) or an (m, n) array of points.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    best = np.full(pts.shape[0], np.inf)
    for center, radius in support.balls:
        d = np.linalg.norm(pts - np.asarray(center, dtype=float), axis=1) - radius
        best = np.minimum(best, np.maximum(d, 0.0))
    for lo, hi in support.boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        best = np.minimum(best, np.linalg.norm(gap, axis=1))
    return float(best[0]) if np.ndim(x) == 1 and np.asarray(x).ndim == 1 and pts.shape[0] == 1 else best


def contains(x, support: SupportSet, inflation: float = 0.0):
    """Membership in the closed inflation K_r; monotone in r by construction."""
    return distance_to_set(x, support) <= inflation


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mollifier:
    """C^1 ramp: 0 for s <= 0, s^2/(1+s^2) for s > 0; nondecreasing, bounded by 1."""

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.where(s > 0.0, s**2 / (1.0 + s**2), 0.0)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        out = np.where(s > 0.0, 2.0 * s / (1.0 + s**2) ** 2, 0.0)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Local energy and the Monte Carlo trace
# ---------------------------------------------------------------------------


def local_energy(state: _solver.WaveState, support: SupportSet, t: float, grid: Grid, mollifier: Mollifier | None = None) -> float:
    """(1/2) sum cell_volume rho_m(d_K(x) - t) (|grad u|^2 + u_t^2 + u^2)."""
    mollifier = mollifier or Mollifier()
    d = distance_to_set(grid.node_positions(), support).reshape(grid.shape)
    weight = mollifier(d - t)
    dens = _solver.energy_density(state.u, state.ut, grid)
    return 0.5 * float(np.sum(weight * dens)) * grid.cell_volume


def outside_energy(state: _solver.WaveState, support: SupportSet, t: float, grid: Grid, halo_cells: int = DEFAULT_HALO_CELLS) -> float:
    """Unmollified energy strictly outside K_{t + halo} (halo in grid cells)."""
    d = distance_to_set(grid.node_positions(), support).reshape(grid.shape)
    mask = d > t + halo_cells * grid.dx
    dens = _solver.energy_density(state.u, state.ut, grid)
    return 0.5 * float(np.sum(dens[mask])) * grid.cell_volume


@dataclass
class EnergyTrace:
    times: np.ndarray
    mean: np.ndarray                 # mollified local energy outside the cone
    standard_error: np.ndarray
    outside_mean: np.ndarray         # raw energy outside the halo-inflated cone
    outside_standard_error: np.ndarray
    total_initial: float
    paths: int
    gronwall_constant: float


class _ChunkEnergies:
    """Keeps, per state ``solve`` records for one chunk, each path's mollified
    local energy and raw energy outside the halo-inflated cone."""

    def __init__(self, d: np.ndarray, grid: Grid, mollifier: Mollifier, halo_cells: int):
        self.d, self.grid, self.mollifier = d, grid, mollifier
        self.halo = halo_cells * grid.dx
        self.times, self.loc, self.out = [], [], []

    def record(self, state: _solver.WaveState):
        dens = _solver.energy_density(state.u, state.ut, self.grid)
        vol = self.grid.cell_volume
        self.times.append(state.time)
        self.loc.append(0.5 * _solver.row_sums(self.mollifier(self.d - state.time) * dens) * vol)
        self.out.append(0.5 * _solver.row_sums(dens[:, self.d > state.time + self.halo]) * vol)


def _check_support_of_data(fn: AnalyticFn | None, grid: Grid, d: np.ndarray, tol: float = 1e-12):
    if fn is None:
        return
    vals = np.abs(
        np.asarray(fn.d(np.zeros(grid.shape), list(grid.meshgrid()), (0,) * (grid.n + 1)), dtype=float)
    )
    peak = float(np.max(vals))
    if peak == 0.0:
        return
    worst = float(np.max(vals[d > 0.0])) if (d > 0.0).any() else 0.0
    if worst > tol * peak:
        raise ConfigurationError(
            f"initial data is not supported in K (relative leak {worst / peak:.3g})"
        )


def run_propagation(
    grid: Grid,
    support: SupportSet,
    u0_fn: AnalyticFn | None,
    u1_fn: AnalyticFn | None,
    coeffs: _solver.Coefficients,
    paths: int,
    seed: int,
    stride: int | None = None,
    halo_cells: int = DEFAULT_HALO_CELLS,
    mollifier: Mollifier | None = None,
    require_support: bool = True,
) -> EnergyTrace:
    """Monte Carlo mean of the mollified outside energy along solved paths.

    Initial data must be supported in K (checked numerically) unless
    ``require_support`` is cleared for a deliberate witness run with a
    positive trace.  Paths are stepped in chunks of one ensemble each
    (``solver.path_chunks``) and every energy is reduced on its own path's
    row, so results do not depend on the chunk size.
    """
    d = distance_to_set(grid.node_positions(), support).reshape(grid.shape)
    if require_support:
        _check_support_of_data(u0_fn, grid, d, tol=1e-12)
        _check_support_of_data(u1_fn, grid, d, tol=1e-12)
    mollifier = mollifier or Mollifier()
    stride = stride or max(1, grid.num_steps // 10)
    init = _solver.initial_state(grid, u0_fn, u1_fn, coeffs)
    e_total0 = _solver.total_energy(init, grid)
    chunks = [
        _solver.solve(init, coeffs, grid, bpaths, stride=stride, out=_ChunkEnergies(d, grid, mollifier, halo_cells))
        for bpaths in _solver.path_chunks(seed, grid, paths)
    ]
    times = np.asarray(chunks[0].times)
    loc = np.concatenate([np.stack(c.loc, axis=1) for c in chunks])
    out = np.concatenate([np.stack(c.out, axis=1) for c in chunks])
    mean = loc.mean(axis=0)
    se = loc.std(axis=0, ddof=1) / math.sqrt(paths) if paths > 1 else np.zeros_like(mean)
    out_mean = out.mean(axis=0)
    out_se = out.std(axis=0, ddof=1) / math.sqrt(paths) if paths > 1 else np.zeros_like(out_mean)

    # Gronwall witness: per path, largest (E(t) - E(0)) / int_0^t E; traces at
    # roundoff level are skipped.  Uses the trapezoid rule on snapshot times.
    c_emp = 0.0
    for e_loc in loc:
        if float(np.max(e_loc)) <= 1e-10 * max(e_total0, 1e-300):
            continue
        for k in range(1, len(times)):
            integral = float(np.trapezoid(e_loc[: k + 1], times[: k + 1]))
            if integral > 0.0:
                c_emp = max(c_emp, (float(e_loc[k]) - float(e_loc[0])) / integral)

    return EnergyTrace(
        times=times,
        mean=mean,
        standard_error=se,
        outside_mean=out_mean,
        outside_standard_error=out_se,
        total_initial=e_total0,
        paths=paths,
        gronwall_constant=c_emp,
    )
