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

from .fields import ConfigurationError, Grid
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
        dims = {len(c) for c, _ in self.balls} | {len(v) for box in self.boxes for v in box}
        if len(dims) > 1:
            raise ConfigurationError(f"SupportSet components have dimensions {sorted(dims)}")
        for lo, hi in self.boxes:
            if any(h <= l for l, h in zip(lo, hi)):
                raise ConfigurationError("box must have positive extent on every axis")

    @property
    def n(self) -> int:
        if self.balls:
            return len(self.balls[0][0])
        return len(self.boxes[0][0])


def distance_to_set(x, support: SupportSet) -> np.ndarray:
    """Euclidean distance to the union, one per row of the (m, n) array ``x``
    of points; exact per component, Lipschitz-1."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != support.n:
        raise ConfigurationError(f"points of shape {pts.shape} are not an (m, {support.n}) array")
    best = np.full(pts.shape[0], np.inf)
    for center, radius in support.balls:
        d = np.linalg.norm(pts - np.asarray(center, dtype=float), axis=1) - radius
        best = np.minimum(best, np.maximum(d, 0.0))
    for lo, hi in support.boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        best = np.minimum(best, np.linalg.norm(gap, axis=1))
    return best


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


# the weight of every local energy
MOLLIFIER = Mollifier()


# ---------------------------------------------------------------------------
# Local energy and the Monte Carlo trace
# ---------------------------------------------------------------------------


def _energies(state: _solver.WaveState, outside: np.ndarray, weight: np.ndarray, grid: Grid, work: np.ndarray):
    """Per path of the (paths, *grid.shape) fields of ``state``: the mollified local
    energy (1/2) sum cell_volume weight (|grad u|^2 + u_t^2 + u^2), and the raw
    energy at the nodes of the flat indices ``outside``, gathered in their order.
    ``work`` holds three flat buffers of the state's size, which are overwritten.

    The density is formed on the nodes of ``state.window`` and is +0.0 outside
    it.  That is the whole-grid density bit for bit when u is zero on the two
    outer layers of each window edge that is not the grid's, as ``solver.solve``
    keeps it: the central differences at and beyond such an edge read zeros."""
    cut = (slice(None),) + state.window
    shape = state.u[cut].shape

    def fields(buf):
        return buf[: math.prod(shape)].reshape(shape)

    # u on the window, copied into a buffer: the stencils shift a contiguous array
    u = fields(work[0])
    u[...] = state.u[cut]
    dens = _solver.energy_density(u, state.ut[cut], grid, fields(work[1]), fields(work[2]))
    if state.window:
        whole = work[0].reshape(state.u.shape)
        whole.fill(0.0)
        whole[cut] = dens
        dens = whole
    rows = dens.reshape(len(dens), -1)
    vol = grid.cell_volume
    # the indices are in range, and "clip", unlike "raise", writes to ``out`` unbuffered
    gathered = work[2, : len(rows) * len(outside)].reshape(len(rows), -1)
    np.take(rows, outside, axis=1, out=gathered, mode="clip")
    outside_energy = 0.5 * _solver.row_sums(gathered) * vol
    dens *= weight
    return 0.5 * _solver.row_sums(dens) * vol, outside_energy


@dataclass
class EnergyTrace:
    times: np.ndarray
    mean: np.ndarray                 # mollified local energy outside the cone
    standard_error: np.ndarray
    outside_mean: np.ndarray         # raw energy outside the halo-inflated cone
    outside_standard_error: np.ndarray
    total_initial: float
    gronwall_constant: float


def run_propagation(
    grid: Grid,
    support: SupportSet,
    u0: np.ndarray,
    u1: np.ndarray | None,
    samplers,
    paths: int,
    seed: int,
    stride: int | None,
    halo_cells: int,
) -> EnergyTrace:
    """Monte Carlo mean of the mollified outside energy along solved paths.

    ``u0`` and ``u1`` are the initial data at the nodes (``u1`` None is zero)
    and ``samplers`` the coefficient samplers of ``solver.make_samplers``; a
    caller makes each once per run.  The data must be supported in K (their
    ``solver.relative_leak`` outside K at most ``DATA_SUPPORT_TOL``).  K inflated at
    unit speed by t_max plus the halo must stay clear of the solver's guard
    ring, or the run could only end in a ``PropagationError``; that is checked
    before any step.  ``solver.solve`` reduces every recorded state to each
    path's two energies, so results do not depend on its chunk size.
    """
    if support.n != grid.n:
        raise ConfigurationError(f"support has dimension {support.n} for a grid of dimension {grid.n}")
    d = distance_to_set(grid.node_positions(), support).reshape(grid.shape)
    reach = grid.t_max + halo_cells * grid.dx
    if float(np.min(d[_solver.near_boundary(grid.shape, _solver.GUARD_RING)])) <= reach:
        raise ConfigurationError(
            f"K inflated by t_max + halo = {reach:.6g} at unit speed reaches the "
            f"{_solver.GUARD_RING}-node guard ring at the boundary"
        )
    leak = max(_solver.relative_leak(vals, d > 0.0) for vals in (u0, u1) if vals is not None)
    if leak > DATA_SUPPORT_TOL:
        raise ConfigurationError(f"initial data is not supported in K (relative leak {leak:.3g})")
    stride = stride or max(1, grid.num_steps // 10)
    init = _solver.initial_state(grid, u0, u1, samplers)
    e_total0 = _solver.total_energy(init, grid)
    # per record index: the flat indices of the nodes strictly outside K_{t + halo}
    # and the weight rho_m(d_K - t), shared by every chunk of paths
    weights = {}

    # per chunk size: the three flat buffers that every record's energies reuse
    work = {}

    def reduce(k, state):
        if k not in weights:
            weights[k] = (np.flatnonzero(d > state.time + halo_cells * grid.dx), MOLLIFIER(d - state.time))
        if state.u.size not in work:
            work[state.u.size] = np.empty((3, state.u.size))
        return _energies(state, *weights[k], grid, work[state.u.size])

    times, (loc, out) = _solver.solve(
        init, samplers, grid, _solver.brownian_paths(seed, grid, paths), reduce, stride=stride
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
        gronwall_constant=c_emp,
    )
