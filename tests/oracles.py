"""Independent references the solver tests compare ``solver.solve`` against.

None of these is run by a subcommand: each is a second route to a number the
solver also produces, kept apart from the library so that the check stays a
check.
"""

import math

import numpy as np

from carleman_lab.fields import (
    AnalyticFn,
    ConfigurationError,
    _coordinates,
    family,
    laplacian_array,
    normal_stream,
    zero_ring,
)
from carleman_lab.solver import Coefficients, WaveState


def leapfrog_reference(init: WaveState, grid):
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


def expression_fn(name: str, expr, n: int, params: dict) -> AnalyticFn:
    """A function made from a sympy expression whose parameters are symbols
    bound to floats (``params``, {symbol: value}).

    It is a family of its own, keyed by the expression and its parameter
    symbols; sympy expressions hash and compare by structure, with symbol
    assumptions and number types included (``2.0*x`` and ``2*x`` are
    different families).  The family's tree is checked for unbound symbols
    here, once per family.
    """
    param_syms = tuple(sorted(params, key=lambda s: s.name))
    sym = family(
        name,
        ((expr, param_syms), int(n)),
        tuple(s.name for s in param_syms),
        expr.has(_coordinates()[0]),
        lambda: (expr, param_syms),
    )
    sym.tree()
    return AnalyticFn(name, sym, tuple(float(params[s]) for s in param_syms))


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

    T_SYM, X_SYMS = _coordinates()
    n = u_exact.n
    u, param_syms = u_exact.symbolic.tree()
    expr = sp.diff(u, T_SYM, 2)
    for j in range(n):
        expr -= sp.diff(u, X_SYMS[j], 2)
    if coeffs.a1 is not None:
        expr -= float(coeffs.a1) * sp.diff(u, T_SYM)
    for j, c in enumerate(coeffs.a2):
        if c is not None:
            expr -= float(c) * sp.diff(u, X_SYMS[j])
    if coeffs.a3 is not None:
        expr -= float(coeffs.a3) * u
    return expression_fn(f"forcing[{u_exact.name}]", sp.expand(expr), n, dict(zip(param_syms, u_exact.param_values)))


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
