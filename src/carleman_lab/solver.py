"""Explicit time stepping for the linear stochastic wave equation.

The drift is du_t = (lap u + a1 u_t + a2 . grad u + a3 u + g) dt and the
diffusion (b1 u_t + b2 u + f) dW with one scalar Brownian motion; the update
order is semi-implicit Euler-Maruyama (u_t first, then u with the new u_t),
which reduces to plain leapfrog when all lower-order coefficients vanish.
Boundaries are a homogeneous Dirichlet ring that the support must never
reach; reaching it is an error, not a reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    AnalyticFn,
    BrownianPath,
    ConfigurationError,
    Grid,
    PropagationError,
    gradient_array,
    laplacian_array,
    normal_stream,
    sample_brownian,
    zero_ring,
)


class BlowUpError(FloatingPointError):
    """Non-finite field value during stepping; the message names the path and the step."""


# dt is additionally capped at this multiple of 1/|b1|^2 for multiplicative noise
NOISE_DT_SAFETY = 0.1

# node layers next to the boundary, per side, in which a field must stay at
# roundoff level (the support guard of ``solve``)
GUARD_RING = 3

# that roundoff level, relative to the largest of 1, |u| and |u_t| on the path
GUARD_TOL = 1e-12


def _coeff_sampler(coeff, grid: Grid):
    """Turn a scalar / AnalyticFn / None coefficient into t -> array-or-scalar."""
    if coeff is None:
        return lambda t: 0.0, 0.0
    if isinstance(coeff, AnalyticFn):
        mesh = list(grid.meshgrid())
        alpha = (0,) * (grid.n + 1)
        if coeff.symbolic.depends_on_t:
            return lambda t: coeff.d(np.full(grid.shape, t), mesh, alpha), None
        frozen = coeff.d(np.zeros(grid.shape), mesh, alpha)
        bound = float(np.max(np.abs(frozen)))
        return lambda t: frozen, bound
    value = float(coeff)
    return lambda t: value, abs(value)


@dataclass(frozen=True)
class Coefficients:
    """Equation coefficients; scalars, AnalyticFns, or None (= 0).

    ``a2`` is a tuple with one entry per axis.  ``g`` is a deterministic drift
    source used by manufactured-solution runs.  ``b1_bound`` records the
    magnitude bound used for the noise step-size guard (required when b1 is
    time dependent).
    """

    a1: object = None
    a2: tuple = ()
    a3: object = None
    b1: object = None
    b2: object = None
    f: object = None
    g: object = None
    b1_bound: float | None = None


@dataclass
class WaveState:
    u: np.ndarray
    ut: np.ndarray
    time: float


def near_boundary(shape: tuple[int, ...], rings: int) -> np.ndarray:
    """Mask of the nodes of a grid of ``shape`` within ``rings`` nodes of its boundary."""
    near = np.ones(shape, dtype=bool)
    near[(slice(rings, -rings),) * len(shape)] = False
    return near


def _ring_max(arr: np.ndarray, n: int, rings: int):
    """Largest |value| within ``rings`` nodes of the boundary of the trailing
    ``n`` axes, one per leading index (a 0-d array for a single field)."""
    return np.abs(arr[..., near_boundary(arr.shape[arr.ndim - n :], rings)]).max(axis=-1)


def initial_state(
    grid: Grid,
    u0_fn: AnalyticFn | None,
    u1_fn: AnalyticFn | None,
    coeffs: Coefficients | None = None,
) -> WaveState:
    """Sample (u0, u1) on the grid.

    The velocity is advanced half a step along the drift, matching the
    staggered structure of the update (u_t lives at half steps); without it
    the two-level scheme is only first-order accurate in space-time
    refinement at fixed CFL ratio.
    """
    mesh = list(grid.meshgrid())
    alpha = (0,) * (grid.n + 1)
    zt = np.zeros(grid.shape)
    u = u0_fn.d(zt, mesh, alpha) if u0_fn is not None else np.zeros(grid.shape)
    ut = u1_fn.d(zt, mesh, alpha) if u1_fn is not None else np.zeros(grid.shape)
    u = np.asarray(u, dtype=float).reshape(grid.shape).copy()
    ut = np.asarray(ut, dtype=float).reshape(grid.shape).copy()
    zero_ring(u, grid.n)
    zero_ring(ut, grid.n)
    samplers = make_samplers(coeffs if coeffs is not None else Coefficients(), grid)
    ut = ut - 0.5 * grid.dt * _drift_arrays(u, ut, 0.0, samplers, grid)
    zero_ring(ut, grid.n)
    return WaveState(u=u, ut=ut, time=0.0)


def step(state: WaveState, coeffs: Coefficients, dw: float, grid: Grid) -> WaveState:
    """One semi-implicit Euler-Maruyama step.

    ut' = ut + dt (lap u + a1 ut + a2 . grad u + a3 u + g) + (b1 ut + b2 u + f) dW
    u'  = u + dt ut'
    """
    samplers = make_samplers(coeffs, grid)
    u, ut = step_arrays(state.u, state.ut, state.time, samplers, dw, grid)
    return WaveState(u=u, ut=ut, time=state.time + grid.dt)


def make_samplers(coeffs: Coefficients, grid: Grid):
    """Coefficient samplers t -> scalar or grid array, after the noise step-size guard."""
    a2 = tuple(coeffs.a2) + (None,) * (grid.n - len(coeffs.a2))
    s = {name: _coeff_sampler(getattr(coeffs, name), grid)[0] for name in ("a1", "a3", "b2", "f", "g")}
    s["a2"] = [_coeff_sampler(c, grid)[0] for c in a2]
    s["b1"], bound = _coeff_sampler(coeffs.b1, grid)
    if coeffs.b1_bound is not None:
        bound = float(coeffs.b1_bound)
    if bound is None:
        raise ConfigurationError("time-dependent b1 requires an explicit b1_bound")
    if bound > 0.0 and grid.dt > NOISE_DT_SAFETY / bound**2:
        raise ConfigurationError(
            f"dt={grid.dt} exceeds the multiplicative-noise guard {NOISE_DT_SAFETY}/|b1|^2 = {NOISE_DT_SAFETY / bound**2}"
        )
    return s


def _drift_arrays(u, ut, t, samplers, grid: Grid):
    """lap u + a1 u_t + a2 . grad u + a3 u + g, summed in place; zero terms skipped."""
    drift = laplacian_array(u, grid.dx, grid.n)
    a1 = samplers["a1"](t)
    if not np.isscalar(a1) or a1 != 0.0:
        drift += a1 * ut
    for j, sampler in enumerate(samplers["a2"]):
        a2j = sampler(t)
        if not np.isscalar(a2j) or a2j != 0.0:
            drift += a2j * gradient_array(u, grid.dx, j - grid.n)
    a3 = samplers["a3"](t)
    if not np.isscalar(a3) or a3 != 0.0:
        drift += a3 * u
    gsrc = samplers["g"](t)
    if not np.isscalar(gsrc) or gsrc != 0.0:
        drift += gsrc
    return drift


def diffusion_arrays(u, ut, t, samplers):
    """Noise coefficient b1 u_t + b2 u + f at (u, ut, t) as a new array; zero b2 and f skipped."""
    noise = samplers["b1"](t) * ut
    b2, f = samplers["b2"](t), samplers["f"](t)
    if not np.isscalar(b2) or b2 != 0.0:
        noise += b2 * u
    if not np.isscalar(f) or f != 0.0:
        noise += f
    return noise


def step_arrays(u, ut, t, samplers, dw, grid: Grid):
    """The per-step kernel.  Fields carry the grid on their trailing axes; with a
    leading path axis, ``dw`` is the per-path column of increments, shape
    (paths, 1, ...), so every path sees only its own noise.  u_t' and u' are
    built in place in the drift's and the noise's new arrays."""
    dt = grid.dt
    ut_new = _drift_arrays(u, ut, t, samplers, grid)
    ut_new *= dt
    ut_new += ut
    noise = diffusion_arrays(u, ut, t, samplers)
    ut_new += np.multiply(noise, dw, out=noise)
    u_new = np.add(np.multiply(ut_new, dt, out=noise), u, out=noise)
    zero_ring(u_new, grid.n)
    zero_ring(ut_new, grid.n)
    return u_new, ut_new


def row_sums(arr: np.ndarray) -> np.ndarray:
    """Per-path sums of a (paths, ...) array.  Rows are made contiguous first, so
    each equals np.sum of that path's values bit for bit (a strided row, as
    boolean indexing can return, is summed in another order)."""
    return np.ascontiguousarray(arr).reshape(len(arr), -1).sum(axis=1)


# Monte Carlo paths are solved in chunks of about this many values (paths x
# nodes): enough paths to amortize the per-step Python overhead, few enough
# that peak memory does not grow with the path count.
CHUNK_ELEMENTS = 2**15


def brownian_paths(seed: int, grid: Grid, paths: int) -> list[BrownianPath]:
    """Brownian paths of streams 0 .. paths-1, in order.  Each path has its own
    counter-based stream, so the chunking of ``solve`` never changes it."""
    return [sample_brownian(seed, grid.dt, grid.t_max, stream=p) for p in range(paths)]


def _march(init: WaveState, samplers, grid: Grid, bpaths, reduce, stride: int, support_guard: bool):
    """Step one ``(paths, *grid.shape)`` ensemble over the full horizon; returns the
    times of the states at t = 0, every ``stride``-th step and t_max, and ``reduce``
    of each, called while that state is current so that no field outlives its step."""
    batch = (len(bpaths),) + grid.shape
    u, ut = np.broadcast_to(init.u, batch).copy(), np.broadcast_to(init.ut, batch).copy()
    dw = np.stack([bp.increments for bp in bpaths]).reshape((len(bpaths), grid.num_steps) + (1,) * grid.n)
    times, records = [], []

    def record(time):
        records.append(reduce(len(times), WaveState(u=u, ut=ut, time=time)))
        times.append(time)
        return time

    last = record(0.0)
    t = 0.0
    for k in range(grid.num_steps):
        u, ut = step_arrays(u, ut, t, samplers, dw[:, k], grid)
        t = (k + 1) * grid.dt
        # u' = u + dt u_t' with u finite (or a non-finite initial u kept in u'), so u' is
        # non-finite wherever u_t' is: checking u' alone finds every blow-up's path and step
        finite = np.isfinite(u)
        if not finite.all():
            p = bpaths[int(np.argmin(finite.reshape(len(bpaths), -1).all(axis=1)))].stream
            raise BlowUpError(f"non-finite field on path {p} at step {k + 1} (t = {t})")
        if (k + 1) % stride == 0 or k + 1 == grid.num_steps:
            if support_guard:
                mag = np.maximum(np.abs(u), np.abs(ut))
                scale = np.maximum(1.0, mag.reshape(len(bpaths), -1).max(axis=1))
                reached = _ring_max(mag, grid.n, GUARD_RING) > GUARD_TOL * scale
                if reached.any():
                    p = bpaths[int(np.argmax(reached))].stream
                    raise PropagationError(f"support reached the boundary ring on path {p} at t = {t} (step {k + 1})")
            if (k + 1) % stride == 0:
                last = record(t)
    if last < grid.t_max:
        record(grid.t_max)
    return times, records


def solve(
    init: WaveState,
    coeffs: Coefficients,
    grid: Grid,
    paths: list[BrownianPath],
    reduce,
    stride: int = 1,
    support_guard: bool = True,
):
    """March every Brownian path over the full horizon, recording the state at
    t = 0, every ``stride``-th step and t_max.

    Paths are stepped in chunks of about ``CHUNK_ELEMENTS`` values, each one
    ``(chunk, *grid.shape)`` ensemble whose rows equal single-path solves.
    ``reduce(k, state)`` maps the k-th recorded state of a chunk (never
    modified afterwards) to a tuple of per-path rows.  Returns the record times
    and, per output of ``reduce``, one ``(paths, records, ...)`` array.  Errors
    name the path by its stream.
    """
    if not paths:
        raise ConfigurationError("solve needs at least one Brownian path")
    for bp in paths:
        if bp.num_steps != grid.num_steps or abs(bp.dt - grid.dt) > 1e-12 * grid.dt:
            raise ConfigurationError("Brownian path discretization does not match the grid")
    samplers = make_samplers(coeffs, grid)
    if _ring_max(init.u, grid.n, 1) > 0.0 or _ring_max(init.ut, grid.n, 1) > 0.0:
        raise ConfigurationError("initial data must vanish on the boundary ring")
    size = max(1, CHUNK_ELEMENTS // grid.num_nodes)
    chunks = []
    for lo in range(0, len(paths), size):
        times, records = _march(init, samplers, grid, paths[lo : lo + size], reduce, stride, support_guard)
        chunks.append([np.stack(rows, axis=1) for rows in zip(*records)])
    return np.asarray(times), tuple(np.concatenate(parts) for parts in zip(*chunks))


def leapfrog_reference(init: WaveState, grid: Grid):
    """Three-level leapfrog for the free wave, first step matched to the
    semi-implicit ordering: u^1 = u^0 + dt u_t^0 + dt^2 lap u^0.  Returns
    every step's time and (u, u_t) in the shape ``solve`` gives one path."""
    dt, dx = grid.dt, grid.dx
    u_prev = init.u.copy()
    u_curr = u_prev + dt * init.ut + dt**2 * laplacian_array(u_prev, dx, grid.n)
    zero_ring(u_curr, grid.n)
    us, uts = [u_prev, u_curr], [init.ut, (u_curr - u_prev) / dt]
    for _ in range(1, grid.num_steps):
        u_next = 2.0 * u_curr - u_prev + dt**2 * laplacian_array(u_curr, dx, grid.n)
        zero_ring(u_next, grid.n)
        us.append(u_next)
        uts.append((u_next - u_curr) / dt)
        u_prev, u_curr = u_curr, u_next
    times = np.arange(grid.num_steps + 1) * dt
    return times, (np.stack(us)[None], np.stack(uts)[None])


def manufactured_forcing(u_exact: AnalyticFn, coeffs: Coefficients) -> AnalyticFn:
    """Drift source g = u_tt - lap u - a1 u_t - a2 . grad u - a3 u for u_exact.

    Only scalar (or None) lower-order coefficients are supported; the source
    is returned as an AnalyticFn sharing u_exact's parameters.
    """
    for name, c in (("a1", coeffs.a1), ("a3", coeffs.a3)):
        if c is not None and not np.isscalar(c):
            raise ConfigurationError(f"manufactured forcing needs scalar {name}")
    for c in coeffs.a2:
        if c is not None and not np.isscalar(c):
            raise ConfigurationError("manufactured forcing needs scalar a2 entries")
    import sympy as sp

    from .fields import T_SYM, X_SYMS

    n = u_exact.n
    expr = sp.diff(u_exact.expr, T_SYM, 2)
    for j in range(n):
        expr -= sp.diff(u_exact.expr, X_SYMS[j], 2)
    if coeffs.a1 is not None:
        expr -= float(coeffs.a1) * sp.diff(u_exact.expr, T_SYM)
    for j, c in enumerate(coeffs.a2):
        if c is not None:
            expr -= float(c) * sp.diff(u_exact.expr, X_SYMS[j])
    if coeffs.a3 is not None:
        expr -= float(coeffs.a3) * u_exact.expr
    return AnalyticFn(
        f"forcing[{u_exact.name}]",
        sp.expand(expr),
        n,
        dict(zip(u_exact.param_syms, u_exact.param_values)),
    )


def energy_density(u: np.ndarray, ut: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad u|^2 + u_t^2 + u^2 at every node (central differences, boundary zero);
    leading axes of ``u`` and ``ut`` index paths; summed in place in that order."""
    dens = gradient_array(u, grid.dx, -grid.n)
    dens *= dens
    square = np.empty_like(dens)
    for term in [gradient_array(u, grid.dx, j) for j in range(1 - grid.n, 0)] + [ut, u]:
        dens += np.square(term, out=square)
    return dens


def total_energy(state: WaveState, grid: Grid) -> float:
    """(1/2) sum cell_volume (|grad u|^2 + u_t^2 + u^2)."""
    return 0.5 * float(np.sum(energy_density(state.u, state.ut, grid))) * grid.cell_volume


def scalar_noise_second_moment(
    b1: float, ut0: float, t_max: float, dt: float, paths: int, seed: int
) -> tuple[float, float]:
    """Spatially constant mode with the Laplacian suppressed: du_t = b1 u_t dW.

    Returns (Monte Carlo mean of u_t(T)^2, exact e^{b1^2 T} u_t(0)^2), using
    the same Euler-Maruyama update as the field solver.
    """
    steps = int(round(t_max / dt))
    ut = np.full(paths, float(ut0))
    dw = math.sqrt(dt) * normal_stream(seed, steps * paths).reshape(steps, paths)
    for k in range(steps):
        ut = ut + b1 * ut * dw[k]
    return float(np.mean(ut**2)), math.exp(b1**2 * t_max) * ut0**2
