"""Explicit time stepping for the linear stochastic wave equation.

The drift is du_t = (lap u + a1 u_t + a2 . grad u + a3 u + g) dt and the
diffusion (b1 u_t + b2 u + f) dW with one scalar Brownian motion; the update
order is semi-implicit Euler-Maruyama (u_t first, then u with the new u_t),
which reduces to plain leapfrog when all lower-order coefficients vanish.
Boundaries are a homogeneous Dirichlet ring that the support must never
reach; reaching it is an error, not a reflection.

The stencils have radius one, so a node can leave zero only when a step
reaches it from a nonzero neighbour: the numerical domain of dependence grows
one node per step.  ``solve`` therefore steps each chunk on working arrays
that cover only the box of nodes that can be nonzero, plus a margin.  The box
starts as the bounding box of the nodes where u or u_t is not +0.0 after the
first step, which is taken on the whole grid: sampled data hold -0.0 wherever
a negative amplitude multiplies zero, and a step turns such zeros into +0.0
(the Laplacian of equal zeros is +0.0).  The box grows by one node per side
per step, clamped to the interior; every ``BOX_MARGIN`` steps, before it can
reach the working arrays' edge, they are re-embedded in larger ones.  This is
exact: at a node whose stencil reads only +0.0, every drift and noise term is
+0.0 or -0.0, and ``+0.0 + (-0.0)`` is +0.0, so u and u_t stay +0.0 there and
every recorded state equals the whole-grid march bit for bit.  A coefficient
that is non-finite anywhere makes NaN (inf * 0) on the whole-grid first step,
which ends the march as it always did.  Two cases break the argument and march
the whole grid throughout: a nonzero source f or g, and a coefficient that
depends on time.  The whole grid is just the largest box: its working arrays
are the state itself.
"""

from __future__ import annotations

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

# nodes of slack on each side of the box of live nodes: the working arrays of
# ``solve`` are re-embedded once per BOX_MARGIN steps, not on every step
BOX_MARGIN = 8

# the scalar-or-array coefficients of ``make_samplers``; a2 is a list beside them
COEFFICIENT_NAMES = ("a1", "a3", "b1", "b2", "f", "g")


def _coeff_sampler(coeff, grid: Grid):
    """Turn a scalar / AnalyticFn / None coefficient into t -> array-or-scalar."""
    if coeff is None:
        return lambda t: 0.0, 0.0
    if isinstance(coeff, AnalyticFn):
        if coeff.symbolic.depends_on_t:
            return lambda t: grid.sample(coeff, t), None
        frozen = grid.sample(coeff, 0.0)
        bound = float(np.max(np.abs(frozen)))
        return lambda t: frozen, bound
    value = float(coeff)
    return lambda t: value, abs(value)


@dataclass(frozen=True)
class Coefficients:
    """Equation coefficients; scalars, AnalyticFns, or None (= 0).

    ``a2`` is a tuple with one entry per axis.  ``g`` is a deterministic drift
    source.  ``b1_bound`` records the magnitude bound used for the noise
    step-size guard (required when b1 is time dependent).
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


def relative_leak(vals: np.ndarray, mask: np.ndarray) -> float:
    """Largest |vals| on ``mask`` relative to the largest |vals| at all (0 for
    zero data or an empty mask)."""
    mag = np.abs(vals)
    peak = float(np.max(mag))
    if peak == 0.0 or not mask.any():
        return 0.0
    return float(np.max(mag[mask])) / peak


def _ring_max(arr: np.ndarray, n: int, rings: int):
    """Largest |value| within ``rings`` nodes of the boundary of the trailing
    ``n`` axes, one per leading index (a 0-d array for a single field): the
    largest max and -min of the boundary slabs."""
    axes = tuple(range(arr.ndim - n, arr.ndim))
    peaks = []
    for j in axes:
        for side in (slice(None, rings), slice(-rings, None)):
            slab = arr[(slice(None),) * j + (side,)]
            peaks += [slab.max(axis=axes), -slab.min(axis=axes)]
    return np.maximum.reduce(peaks)


def _row_peaks(arr: np.ndarray) -> np.ndarray:
    """Per-path largest |value| of a contiguous (paths, ...) array, from its max and -min."""
    rows = arr.reshape(len(arr), -1)
    return np.maximum(rows.max(axis=1), -rows.min(axis=1))


def initial_state(grid: Grid, u0: np.ndarray | None, u1: np.ndarray | None, samplers) -> WaveState:
    """The state of (u0, u1), node arrays of the grid's shape (None is zero), copied
    and with their boundary ring zeroed; the arrays given are not written.

    The velocity is advanced half a step along the drift of ``samplers``,
    matching the staggered structure of the update (u_t lives at half steps);
    without it the two-level scheme is only first-order accurate in
    space-time refinement at fixed CFL ratio.
    """
    u = np.zeros(grid.shape) if u0 is None else np.array(u0, dtype=float)
    ut = np.zeros(grid.shape) if u1 is None else np.array(u1, dtype=float)
    zero_ring(u, grid.n)
    zero_ring(ut, grid.n)
    ut = ut - 0.5 * grid.dt * _drift_arrays(u, ut, 0.0, samplers, grid)
    zero_ring(ut, grid.n)
    return WaveState(u=u, ut=ut, time=0.0)


def make_samplers(coeffs: Coefficients, grid: Grid):
    """Coefficient samplers t -> scalar or grid array, after the a2 length check
    and the noise step-size guard; ``frozen`` says that none depends on time."""
    if len(coeffs.a2) > grid.n:
        # an extra entry would differentiate along a leading (path) axis
        raise ConfigurationError(f"a2 has {len(coeffs.a2)} entries for a grid of dimension {grid.n}")
    a2 = tuple(coeffs.a2) + (None,) * (grid.n - len(coeffs.a2))
    built = {name: _coeff_sampler(getattr(coeffs, name), grid) for name in COEFFICIENT_NAMES}
    a2_built = [_coeff_sampler(c, grid) for c in a2]
    s = {name: sampler for name, (sampler, _) in built.items()}
    s["a2"] = [sampler for sampler, _ in a2_built]
    # a time-dependent coefficient has no frozen bound; ``solve`` then marches the whole grid
    s["frozen"] = all(b is not None for _, b in [*built.values(), *a2_built])
    bound = built["b1"][1] if coeffs.b1_bound is None else float(coeffs.b1_bound)
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


def recorded_steps(num_steps: int, stride: int) -> list[int]:
    """The steps whose states a run records, each once: 0, every multiple of
    ``stride`` and the last, ``num_steps``.  Step k is at time k * dt."""
    return [k for k in range(num_steps + 1) if k % stride == 0 or k == num_steps]


def _keeps_zero(samplers) -> bool:
    """Whether a node whose stencil reads only +0.0 stays +0.0 under ``samplers``
    from the second step on: no coefficient depends on time and the sources f
    and g vanish.  (A non-finite coefficient makes NaN, inf * 0, on the first
    step, which is taken on the whole grid.)"""
    return samplers["frozen"] and not np.any(samplers["f"](0.0)) and not np.any(samplers["g"](0.0))


def _live_box(u: np.ndarray, ut: np.ndarray, grid: Grid):
    """Per axis, the first and last node of the bounding box of the nodes where u or
    u_t of any path of the (paths, ...) fields is not +0.0; the first interior node
    for all-zero fields."""
    live = np.zeros(grid.shape, dtype=bool)
    for arr in (u, ut):
        live |= ((arr != 0.0) | np.signbit(arr)).any(axis=0)
    if not live.any():
        return ((1, 1),) * grid.n
    return tuple((int(ix.min()), int(ix.max())) for ix in np.nonzero(live))


def _window(box, grow: int, shape):
    """The nodes of the working arrays for ``box`` grown by ``grow`` nodes: per side,
    the grown box, one node that a step zeroes and ``BOX_MARGIN`` nodes to grow
    into, clamped to the grid."""
    reach = grow + 1 + BOX_MARGIN
    return tuple((max(0, lo - reach), min(m - 1, hi + reach)) for (lo, hi), m in zip(box, shape))


def _cut(window) -> tuple:
    return tuple(slice(lo, hi + 1) for lo, hi in window)


def _rewindow(arr: np.ndarray, window, new) -> np.ndarray:
    """The (paths, ...) fields ``arr`` on the nodes of ``window`` moved to the nodes
    of ``new``: cut where ``new`` is narrower, +0.0 where it is wider, and ``arr``
    itself where they are the same."""
    if new == window:
        return arr
    both = [(max(lo, nlo), min(hi, nhi)) for (lo, hi), (nlo, nhi) in zip(window, new)]
    out = np.zeros(arr.shape[:1] + tuple(hi - lo + 1 for lo, hi in new))
    out[(slice(None),) + _cut([(lo - nlo, hi - nlo) for (lo, hi), (nlo, _) in zip(both, new)])] = arr[
        (slice(None),) + _cut([(lo - wlo, hi - wlo) for (lo, hi), (wlo, _) in zip(both, window)])
    ]
    return out


def _window_samplers(samplers, window, grid: Grid):
    """The frozen ``samplers`` with every grid array cut to the nodes of ``window``."""
    cut = _cut(window)

    def frozen(sampler):
        value = sampler(0.0)
        if np.shape(value) == grid.shape:
            value = value[cut].copy()
        return lambda t: value

    out = {name: frozen(samplers[name]) for name in COEFFICIENT_NAMES}
    out["a2"] = [frozen(a2j) for a2j in samplers["a2"]]
    return out


def _march(init: WaveState, samplers, grid: Grid, boxed: bool, bpaths, reduce, stride: int, support_guard: bool):
    """Step one ``(paths, *grid.shape)`` ensemble over the full horizon; returns the
    times of the ``recorded_steps`` and ``reduce`` of each of their states, called
    while that state is current so that no field outlives its step.

    With ``boxed``, the steps after the first run on working arrays around the
    ``_live_box`` of the first stepped state (see the module docstring); while
    the working arrays cover the grid they are the state itself, and otherwise
    the whole-grid state is built at the recorded steps alone."""
    shape, paths = grid.shape, len(bpaths)
    window = grid_window = tuple((0, m - 1) for m in shape)
    u, ut = np.broadcast_to(init.u, (paths,) + shape).copy(), np.broadcast_to(init.ut, (paths,) + shape).copy()
    dw = np.stack([bp.increments for bp in bpaths]).reshape((paths, grid.num_steps) + (1,) * grid.n)
    local = samplers
    times, records = [], []

    def state(time):
        return WaveState(u=_rewindow(u, window, grid_window), ut=_rewindow(ut, window, grid_window), time=time)

    def record(current):
        records.append(reduce(len(times), current))
        times.append(current.time)

    record(state(0.0))
    recorded = set(recorded_steps(grid.num_steps, stride))
    t = 0.0
    for k in range(grid.num_steps):
        u, ut = step_arrays(u, ut, t, local, dw[:, k], grid)
        t = (k + 1) * grid.dt
        # u' = u + dt u_t' with u finite (or a non-finite initial u kept in u'), so u' is
        # non-finite wherever u_t' is: checking u' alone finds every blow-up's path and step
        finite = np.isfinite(u)
        if not finite.all():
            p = bpaths[int(np.argmin(finite.reshape(paths, -1).all(axis=1)))].stream
            raise BlowUpError(f"non-finite field on path {p} at step {k + 1} (t = {t})")
        if boxed and k % BOX_MARGIN == 0:
            # the nodes that can be nonzero now are the live box of the first stepped state
            # grown by one node per side per step since; the new working arrays hold them
            # for the next BOX_MARGIN steps
            if k == 0:
                first = _live_box(u, ut, grid)
            new = _window(first, k, shape)
            if new != window:
                u, ut = _rewindow(u, window, new), _rewindow(ut, window, new)
                window = new
                local = samplers if window == grid_window else _window_samplers(samplers, window, grid)
            boxed = window != grid_window
        if k + 1 in recorded:
            current = state(t)
            if support_guard:
                scale = np.maximum(1.0, np.maximum(_row_peaks(u), _row_peaks(ut)))
                ring = np.maximum(_ring_max(current.u, grid.n, GUARD_RING), _ring_max(current.ut, grid.n, GUARD_RING))
                reached = ring > GUARD_TOL * scale
                if reached.any():
                    p = bpaths[int(np.argmax(reached))].stream
                    raise PropagationError(
                        f"support reached the boundary ring on path {p} at t = {t} (step {k + 1}); "
                        f"reach from the initial data: numerical {(k + 1) * grid.dx:.6g} (one node per step), "
                        f"unit speed {t:.6g}"
                    )
            record(current)
    return times, records


def solve(
    init: WaveState,
    samplers,
    grid: Grid,
    paths: list[BrownianPath],
    reduce,
    stride: int = 1,
    support_guard: bool = True,
):
    """March every Brownian path over the full horizon under the coefficient
    ``samplers`` of ``make_samplers``, built once per run and shared with
    ``initial_state``.

    The states recorded are those of ``recorded_steps(grid.num_steps, stride)``:
    step 0, every ``stride``-th step and the last, each once, step k at time
    k * dt.  Paths are stepped in chunks of about ``CHUNK_ELEMENTS`` values,
    each one ``(chunk, *grid.shape)`` ensemble whose rows equal single-path
    solves, stepped on the box of nodes that can be nonzero (module
    docstring).  ``reduce(k, state)`` maps the k-th recorded state of a chunk,
    on the whole grid and never modified afterwards, to a tuple of per-path
    rows.  Returns the record times and, per output of ``reduce``, one
    ``(paths, records, ...)`` array.  Errors name the path by its stream.
    """
    if not paths:
        raise ConfigurationError("solve needs at least one Brownian path")
    for bp in paths:
        if bp.num_steps != grid.num_steps or abs(bp.dt - grid.dt) > 1e-12 * grid.dt:
            raise ConfigurationError("Brownian path discretization does not match the grid")
    if _ring_max(init.u, grid.n, 1) > 0.0 or _ring_max(init.ut, grid.n, 1) > 0.0:
        raise ConfigurationError("initial data must vanish on the boundary ring")
    boxed = _keeps_zero(samplers)
    size = max(1, CHUNK_ELEMENTS // grid.num_nodes)
    chunks = []
    for lo in range(0, len(paths), size):
        times, records = _march(init, samplers, grid, boxed, paths[lo : lo + size], reduce, stride, support_guard)
        chunks.append([np.stack(rows, axis=1) for rows in zip(*records)])
    return np.asarray(times), tuple(np.concatenate(parts) for parts in zip(*chunks))


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
