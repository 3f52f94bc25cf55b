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

# largest |initial datum| outside K, relative to its peak, that counts as supported in K
DATA_SUPPORT_TOL = 1e-12


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


# the weight of every local energy
MOLLIFIER = Mollifier()


# ---------------------------------------------------------------------------
# Local energy and the Monte Carlo trace
# ---------------------------------------------------------------------------


def _energies(u: np.ndarray, ut: np.ndarray, d: np.ndarray, t: float, grid: Grid, halo_cells: int):
    """Per path of (paths, *grid.shape) fields at time t: the mollified local energy
    (1/2) sum cell_volume rho_m(d_K(x) - t) (|grad u|^2 + u_t^2 + u^2), and the
    raw energy strictly outside K_{t + halo}; ``d`` is d_K at every node."""
    dens = _solver.energy_density(u, ut, grid)
    vol = grid.cell_volume
    outside = 0.5 * _solver.row_sums(dens[:, d > t + halo_cells * grid.dx]) * vol
    dens *= MOLLIFIER(d - t)
    return 0.5 * _solver.row_sums(dens) * vol, outside


def _one_path_energies(state: _solver.WaveState, support: SupportSet, t: float, grid: Grid, halo_cells: int):
    d = distance_to_set(grid.node_positions(), support).reshape(grid.shape)
    return _energies(state.u[None], state.ut[None], d, t, grid, halo_cells)


def local_energy(state: _solver.WaveState, support: SupportSet, t: float, grid: Grid) -> float:
    """(1/2) sum cell_volume rho_m(d_K(x) - t) (|grad u|^2 + u_t^2 + u^2)."""
    return float(_one_path_energies(state, support, t, grid, DEFAULT_HALO_CELLS)[0][0])


def outside_energy(state: _solver.WaveState, support: SupportSet, t: float, grid: Grid, halo_cells: int = DEFAULT_HALO_CELLS) -> float:
    """Unmollified energy strictly outside K_{t + halo} (halo in grid cells)."""
    return float(_one_path_energies(state, support, t, grid, halo_cells)[1][0])


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


def _check_support_of_data(fn: AnalyticFn | None, grid: Grid, d: np.ndarray):
    if fn is None:
        return
    vals = np.abs(
        np.asarray(fn.d(np.zeros(grid.shape), list(grid.meshgrid()), (0,) * (grid.n + 1)), dtype=float)
    )
    peak = float(np.max(vals))
    if peak == 0.0:
        return
    worst = float(np.max(vals[d > 0.0])) if (d > 0.0).any() else 0.0
    if worst > DATA_SUPPORT_TOL * peak:
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
    require_support: bool = True,
) -> EnergyTrace:
    """Monte Carlo mean of the mollified outside energy along solved paths.

    Initial data must be supported in K (checked numerically) unless
    ``require_support`` is cleared for a deliberate witness run with a
    positive trace.  K inflated at unit speed by t_max plus the halo must
    stay clear of the solver's guard ring, or the run could only end in a
    ``PropagationError``; that is checked before any step.  ``solver.solve``
    reduces every recorded state to each path's two energies, so results do
    not depend on its chunk size.
    """
    d = distance_to_set(grid.node_positions(), support).reshape(grid.shape)
    reach = grid.t_max + halo_cells * grid.dx
    if float(np.min(d[_solver.near_boundary(grid.shape, _solver.GUARD_RING)])) <= reach:
        raise ConfigurationError(
            f"K inflated by t_max + halo = {reach:.6g} at unit speed reaches the "
            f"{_solver.GUARD_RING}-node guard ring at the boundary"
        )
    if require_support:
        _check_support_of_data(u0_fn, grid, d)
        _check_support_of_data(u1_fn, grid, d)
    stride = stride or max(1, grid.num_steps // 10)
    init = _solver.initial_state(grid, u0_fn, u1_fn, coeffs)
    e_total0 = _solver.total_energy(init, grid)
    times, (loc, out) = _solver.solve(
        init, coeffs, grid, _solver.brownian_paths(seed, grid, paths),
        lambda k, state: _energies(state.u, state.ut, d, state.time, grid, halo_cells),
        stride=stride,
    )
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
