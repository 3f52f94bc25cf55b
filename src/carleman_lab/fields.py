"""Grids, exact-derivative analytic functions, stencils, and reproducible noise.

Everything downstream leans on two guarantees made here:

* ``AnalyticFn`` carries closed-form partial derivatives of any order,
  generated symbolically once and cached as compiled numpy callables keyed by
  the sympy expression itself, its parameter symbols, the dimension n and the
  multi-index.  Parameter values are call arguments, so rebinding them never
  recompiles.  Identity checks therefore see exact jets, not finite
  differences.
* ``sample_brownian`` produces a platform-independent increment stream from a
  counter-based generator with an explicit normal transform; the algorithm
  and its constants live in one block below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import sympy as sp


class ConfigurationError(ValueError):
    """Invalid grid, step, or parameter configuration."""


class StencilError(IndexError):
    """Stencil applied at a non-interior index."""


class CapabilityError(RuntimeError):
    """The function registry cannot supply a requested function or derivative."""


# ---------------------------------------------------------------------------
# Reproducible noise
#
# All randomness flows through the Philox4x64 counter-based bit generator
# (numpy implementation, 10 rounds) keyed by (seed, stream).  Uniform doubles
# use numpy's documented mapping u = (word >> 11) * 2**-53 into [0, 1).
# Normal deviates are produced by an explicit Box-Muller transform
#     z0 = sqrt(-2 ln(1 - u1)) cos(2 pi u2),
#     z1 = sqrt(-2 ln(1 - u1)) sin(2 pi u2),
# so the stream never depends on platform libm ziggurat tables.
# ---------------------------------------------------------------------------

RNG_ALGORITHM = "Philox4x64-10"
RNG_NORMAL_TRANSFORM = "Box-Muller"
_TWO_PI = 2.0 * math.pi


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    if not (0 <= int(seed) < 2**64):
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    key = (int(stream) << 64) | int(seed)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_stream(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """``count`` doubles in [0, 1) from the documented counter-based source."""
    return _philox(seed, stream).random(int(count))


def normal_stream(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """``count`` standard normals via Box-Muller on the uniform stream."""
    count = int(count)
    pairs = (count + 1) // 2
    u = uniform_stream(seed, 2 * pairs, stream)
    u1, u2 = u[:pairs], u[pairs:]
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so the log is finite
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(_TWO_PI * u2)
    z[1::2] = r * np.sin(_TWO_PI * u2)
    return z[:count]


@dataclass(frozen=True)
class BrownianPath:
    """Increments of one scalar Brownian motion, increment k ~ N(0, dt)."""

    seed: int
    dt: float
    t_max: float
    increments: np.ndarray
    stream: int = 0

    @property
    def num_steps(self) -> int:
        return self.increments.size

    @property
    def quadratic_variation(self) -> float:
        return float(np.sum(self.increments**2))

    @property
    def passes_mean_sanity(self) -> bool:
        """|sample mean| <= 4 sqrt(dt / N).  A 4-sigma bound; recorded, not raised,
        since an honest stream trips it with probability ~6e-5."""
        n = self.num_steps
        return abs(float(np.mean(self.increments))) <= 4.0 * math.sqrt(self.dt / n)


def sample_brownian(seed: int, dt: float, t_max: float, stream: int = 0) -> BrownianPath:
    """Deterministic Brownian increments on [0, t_max] with step dt.

    dt must divide t_max to within 1e-9 relative.
    """
    if dt <= 0 or t_max <= 0:
        raise ConfigurationError("dt and t_max must be positive")
    steps = t_max / dt
    n = int(round(steps))
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, steps):
        raise ConfigurationError(f"dt={dt} does not divide t_max={t_max}")
    dw = math.sqrt(dt) * normal_stream(seed, n, stream)
    return BrownianPath(seed=int(seed), dt=float(dt), t_max=float(t_max), increments=dw, stream=int(stream))


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box with a homogeneous-Dirichlet boundary ring."""

    n: int
    x_lo: tuple[float, ...]
    x_hi: tuple[float, ...]
    dx: float
    dt: float
    t_max: float
    cfl: float

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(round((hi - lo) / self.dx)) + 1 for lo, hi in zip(self.x_lo, self.x_hi))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def num_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    def axis(self, j: int) -> np.ndarray:
        return self.x_lo[j] + self.dx * np.arange(self.shape[j])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.axis(j) for j in range(self.n)), indexing="ij"))

    def node_positions(self) -> np.ndarray:
        """(num_nodes, n) array of node coordinates, lexicographic order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=-1)


def make_grid(bounds, dx: float, dt: float, t_max: float, cfl: float | None = None) -> Grid:
    """Build a grid; dt must satisfy dt <= cfl * dx with cfl defaulting to 1/sqrt(n)."""
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if not bounds:
        raise ConfigurationError("bounds must be nonempty")
    n = len(bounds)
    if n not in (1, 2):
        raise ConfigurationError(f"spatial dimension {n} unsupported (desk scale is 1 or 2)")
    if dx <= 0 or dt <= 0 or t_max <= 0:
        raise ConfigurationError("dx, dt, t_max must be positive")
    if cfl is None:
        cfl = 1.0 / math.sqrt(n)
    for j, (lo, hi) in enumerate(bounds):
        if hi <= lo:
            raise ConfigurationError(f"axis {j}: x_hi must exceed x_lo")
        cells = (hi - lo) / dx
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells) or round(cells) < 2:
            raise ConfigurationError(f"axis {j}: (x_hi - x_lo)/dx = {cells} is not a positive integer")
        if dt > cfl * dx * (1 + 1e-12):
            raise ConfigurationError(
                f"CFL violation on axis {j}: dt={dt} > cfl*dx={cfl * dx} (cfl={cfl})"
            )
    steps = t_max / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ConfigurationError(f"dt={dt} does not divide t_max={t_max}")
    return Grid(
        n=n,
        x_lo=tuple(lo for lo, _ in bounds),
        x_hi=tuple(hi for _, hi in bounds),
        dx=float(dx),
        dt=float(dt),
        t_max=float(t_max),
        cfl=float(cfl),
    )


# ---------------------------------------------------------------------------
# Second-order jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value plus first and second space-time derivatives at one point.

    ``make`` is the only constructor: it rejects a spatial Hessian that is
    not exactly symmetric and stores a read-only copy of the whole matrix as
    ``hess_xx``, so every reader sees the same symmetric matrix.
    """

    value: float
    grad_t: float
    grad_x: np.ndarray
    hess_tt: float
    hess_tx: np.ndarray
    hess_xx: np.ndarray

    @property
    def n(self) -> int:
        return self.grad_x.size

    @staticmethod
    def make(value, grad_t, grad_x, hess_tt, hess_tx, hess_xx) -> "Jet2":
        grad_x = np.atleast_1d(np.asarray(grad_x, dtype=float))
        hess_tx = np.atleast_1d(np.asarray(hess_tx, dtype=float))
        hess_xx = np.atleast_2d(np.array(hess_xx, dtype=float))
        if not np.array_equal(hess_xx, hess_xx.T):
            raise ValueError("hess_xx must be exactly symmetric")
        hess_xx.flags.writeable = False
        return Jet2(
            value=float(value),
            grad_t=float(grad_t),
            grad_x=grad_x,
            hess_tt=float(hess_tt),
            hess_tx=hess_tx,
            hess_xx=hess_xx,
        )


def jet_scale(a: Jet2, c: float) -> Jet2:
    return Jet2.make(c * a.value, c * a.grad_t, c * a.grad_x, c * a.hess_tt, c * a.hess_tx, c * a.hess_xx)


def jet_add(a: Jet2, b: Jet2) -> Jet2:
    return Jet2.make(
        a.value + b.value,
        a.grad_t + b.grad_t,
        a.grad_x + b.grad_x,
        a.hess_tt + b.hess_tt,
        a.hess_tx + b.hess_tx,
        a.hess_xx + b.hess_xx,
    )


def jet_chain(a: Jet2, g: float, g1: float, g2: float) -> Jet2:
    """Jet of s -> G(s) composed with a, given G(a), G'(a), G''(a)."""
    return Jet2.make(
        g,
        g1 * a.grad_t,
        g1 * a.grad_x,
        g2 * a.grad_t**2 + g1 * a.hess_tt,
        g2 * a.grad_t * a.grad_x + g1 * a.hess_tx,
        g2 * np.outer(a.grad_x, a.grad_x) + g1 * a.hess_xx,
    )


def jet_exp(a: Jet2) -> Jet2:
    e = math.exp(a.value)
    return jet_chain(a, e, e, e)


# ---------------------------------------------------------------------------
# Analytic functions with exact jets
# ---------------------------------------------------------------------------

T_SYM = sp.Symbol("t", real=True)
X_SYMS = (sp.Symbol("x1", real=True), sp.Symbol("x2", real=True))

_SYMBOLIC: dict[tuple, "_Symbolic"] = {}
_SCALAR_TYPES = (float, int)


class _Symbolic:
    """What every AnalyticFn of one evaluator key (expr, param_syms, n) shares:
    the unbound-symbol check, made once here, the parameter-name index used by
    ``with_params``, and the compiled evaluators by multi-index."""

    def __init__(self, name: str, expr: sp.Expr, param_syms: tuple, n: int):
        free = expr.free_symbols - set(param_syms) - {T_SYM} - set(X_SYMS[:n])
        if free:
            raise CapabilityError(f"{name}: unbound symbols {sorted(map(str, free))}")
        self.expr, self.param_syms, self.n = expr, param_syms, n
        # full symbol names, then the unambiguous short names after the family prefix
        self.index = {s.name: i for i, s in enumerate(param_syms)}
        for i, s in enumerate(param_syms):
            self.index.setdefault(s.name.split("_", 1)[-1], i)
        self.evaluators: dict[tuple[int, ...], object] = {}

    def compile(self, alpha: tuple[int, ...]):
        expr = self.expr
        if alpha[0]:
            expr = sp.diff(expr, T_SYM, alpha[0])
        for j in range(self.n):
            if alpha[1 + j]:
                expr = sp.diff(expr, X_SYMS[j], alpha[1 + j])
        args = (T_SYM, *X_SYMS[: self.n], *self.param_syms)
        fn = self.evaluators[alpha] = sp.lambdify(args, expr, modules="numpy", cse=True)
        return fn


def _symbolic(name: str, expr: sp.Expr, param_syms: tuple, n: int) -> _Symbolic:
    key = (expr, param_syms, n)
    sym = _SYMBOLIC.get(key)
    if sym is None:
        sym = _SYMBOLIC[key] = _Symbolic(name, expr, param_syms, n)
    return sym


class AnalyticFn:
    """Closed-form scalar function of (t, x) with exact partial derivatives.

    Parameters of the expression are sympy symbols bound to floats.  What
    depends only on the evaluator key (expr, param_syms, n) is built once per
    key and shared by every instance with it: the unbound-symbol check, the
    parameter-name index and the compiled evaluator of each multi-index.  An
    instance holds only its name, that shared part (``symbolic``) and its
    value tuple, so ``with_params`` and ``with_values`` rebind values without
    touching sympy and never recompile.  Sympy
    expressions hash and compare by structure, with symbol assumptions and
    number types included (``2.0*x`` and ``2*x`` are different keys).
    """

    def __init__(self, name: str, expr: sp.Expr, n: int, params: dict[sp.Symbol, float]):
        param_syms = tuple(sorted(params.keys(), key=lambda s: s.name))
        self.name = name
        self.symbolic = _symbolic(name, expr, param_syms, int(n))
        self.param_values = tuple(float(params[s]) for s in param_syms)

    @property
    def expr(self) -> sp.Expr:
        return self.symbolic.expr

    @property
    def param_syms(self) -> tuple:
        return self.symbolic.param_syms

    @property
    def n(self) -> int:
        return self.symbolic.n

    @property
    def params(self) -> dict[str, float]:
        return {s.name: v for s, v in zip(self.param_syms, self.param_values)}

    def with_params(self, **updates: float) -> "AnalyticFn":
        """Rebind parameters by full symbol name or unambiguous short name."""
        index = self.symbolic.index
        values = list(self.param_values)
        for k, v in updates.items():
            if k not in index:
                raise CapabilityError(f"{self.name}: unknown parameter {k!r}")
            values[index[k]] = float(v)
        return self.with_values(tuple(values))

    def with_values(self, values: tuple[float, ...]) -> "AnalyticFn":
        """The same function with every parameter value given, in ``param_syms`` order."""
        fn = AnalyticFn.__new__(AnalyticFn)
        fn.name, fn.symbolic, fn.param_values = self.name, self.symbolic, values
        return fn

    def _evaluator(self, alpha: tuple[int, ...]):
        fn = self.symbolic.evaluators.get(alpha)
        return self.symbolic.compile(alpha) if fn is None else fn

    def d(self, t, x, alpha: tuple[int, ...]):
        """Partial derivative d^alpha f at (t, x).

        ``t`` is a scalar or array.  ``x`` is a sequence of n coordinates
        (scalars or arrays); for n == 1 a bare scalar or array is taken as the
        single coordinate.  Scalar inputs give a float, otherwise an array of
        the broadcast shape.
        """
        n = self.symbolic.n
        if len(alpha) != n + 1:
            raise CapabilityError(f"{self.name}: multi-index {alpha} does not match n={n}")
        xs = x if isinstance(x, (list, tuple)) else (x,)
        if len(xs) != n:
            raise CapabilityError(f"{self.name}: expected {n} coordinates, got {len(xs)}")
        out = self._evaluator(alpha)(t, *xs, *self.param_values)
        if all(type(v) in _SCALAR_TYPES or np.ndim(v) == 0 for v in (t, *xs)):
            return float(out)
        shape = np.broadcast_shapes(np.shape(t), *[np.shape(v) for v in xs])
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    def value(self, t, x):
        return self.d(t, x, multi_indices(self.n).zero)

    def __call__(self, t, x):
        return self.value(t, x)

    def jet2(self, t: float, x) -> Jet2:
        a = multi_indices(self.n)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        e = lambda alpha: float(self._evaluator(alpha)(t, *x, *self.param_values))
        hess = np.zeros((a.n, a.n))
        for j in range(a.n):
            hess[j, j] = e(a.xx[j][j])
            for k in range(j + 1, a.n):
                hess[j, k] = hess[k, j] = e(a.xx[j][k])
        return Jet2.make(
            e(a.zero),
            e(a.t),
            np.array([e(a.x[j]) for j in range(a.n)]),
            e(a.tt),
            np.array([e(a.tx[j]) for j in range(a.n)]),
            hess,
        )


def _alpha(n: int, t_order: int, *axes: int) -> tuple[int, ...]:
    """Multi-index (t order, x1 order, ..., xn order) with one x order per listed axis."""
    out = [t_order] + [0] * n
    for j in axes:
        out[1 + j] += 1
    return tuple(out)


class MultiIndices:
    """The multi-indices that jets and expansion coefficients read, for one n.

    ``x[j]`` is d/dx_j, ``tx[j]`` is d/dt d/dx_j, ``xx[j][k]`` is d/dx_j d/dx_k
    (and ``txx``, ``ttxx`` with one or two more t); ``xkk[k][j]`` is
    d/dx_k d^2/dx_j^2 and ``xxkk[j][k]`` is d^2/dx_j^2 d^2/dx_k^2.  ``jet2``
    lists the indices of a second-order jet, ``ell`` those of the ell partials
    in ``WeightFamily.quantities``.
    """

    def __init__(self, n: int):
        r = range(n)
        self.n = n
        self.zero, self.t, self.tt, self.ttt, self.tttt = (_alpha(n, k) for k in range(5))
        self.x, self.tx, self.ttx = (tuple(_alpha(n, k, j) for j in r) for k in range(3))
        self.xx, self.txx, self.ttxx = (tuple(tuple(_alpha(n, k, j, i) for i in r) for j in r) for k in range(3))
        self.xkk = tuple(tuple(_alpha(n, 0, k, j, j) for j in r) for k in r)
        self.xxkk = tuple(tuple(_alpha(n, 0, j, j, k, k) for k in r) for j in r)
        self.jet2 = (self.zero, self.t, self.tt) + tuple(
            a for j in r for a in (self.x[j], self.tx[j], *self.xx[j][j:])
        )
        ell = [self.zero, self.t, self.tt, self.ttt, self.tttt]
        for j in r:
            ell += [self.x[j], self.tx[j], self.ttx[j]]
            for k in range(j, n):
                ell += [self.xx[j][k], self.txx[j][k], self.ttxx[j][k]]
            ell += self.xkk[j]
        ell += [a for row in self.xxkk for a in row]
        self.ell = tuple(dict.fromkeys(ell))


@functools.cache
def multi_indices(n: int) -> MultiIndices:
    """The MultiIndices of dimension n, built once and shared."""
    return MultiIndices(n)


# ---------------------------------------------------------------------------
# Registry of built-in function families
#
# Parameter symbols are namespaced per family so that instances share compiled
# evaluators; names starting with "cw_" are reserved for weight construction.
# ---------------------------------------------------------------------------


def _syms(family: str, names: str):
    return [sp.Symbol(f"{family}_{nm}", real=True) for nm in names.split()]


def _registry_entry_affine(n):
    c0, ct = _syms("aff", "c0 ct")
    cx = _syms("aff", "cx1 cx2")[:n]
    expr = c0 + ct * T_SYM + sum(c * x for c, x in zip(cx, X_SYMS[:n]))
    defaults = {c0: 0.0, ct: 1.0, **{c: -1.0 for c in cx}}
    return expr, defaults


def _registry_entry_quadratic(n):
    c0, ct, qtt = _syms("quad", "c0 ct qtt")
    cx = _syms("quad", "cx1 cx2")[:n]
    qx = _syms("quad", "qx1 qx2")[:n]
    expr = (
        c0
        + ct * T_SYM
        + qtt * T_SYM**2 / 2
        + sum(c * x for c, x in zip(cx, X_SYMS[:n]))
        + sum(q * x**2 / 2 for q, x in zip(qx, X_SYMS[:n]))
    )
    defaults = {c0: 0.0, ct: 0.0, qtt: 1.0, **{c: 0.0 for c in cx}, **{q: -1.0 for q in qx}}
    return expr, defaults


def _registry_entry_trig_product(n):
    amp, wt, pt = _syms("trig", "amp wt pt")
    wx = _syms("trig", "wx1 wx2")[:n]
    px = _syms("trig", "px1 px2")[:n]
    expr = amp * sp.sin(wt * T_SYM + pt)
    for w, p, x in zip(wx, px, X_SYMS[:n]):
        expr *= sp.cos(w * x + p)
    defaults = {amp: 1.0, wt: 1.0, pt: 0.3, **{w: 1.0 for w in wx}, **{p: 0.0 for p in px}}
    return expr, defaults


def _registry_entry_exp_quadratic(n):
    amp, att, bt = _syms("expq", "amp att bt")
    ax = _syms("expq", "ax1 ax2")[:n]
    bx = _syms("expq", "bx1 bx2")[:n]
    expr = amp * sp.exp(
        att * T_SYM**2 / 2
        + bt * T_SYM
        + sum(a * x**2 / 2 for a, x in zip(ax, X_SYMS[:n]))
        + sum(b * x for b, x in zip(bx, X_SYMS[:n]))
    )
    defaults = {amp: 1.0, att: -0.5, bt: 0.0, **{a: -0.5 for a in ax}, **{b: 0.0 for b in bx}}
    return expr, defaults


def _registry_entry_gaussian_bump(n):
    amp, a, tc = _syms("gauss", "amp a tc")
    cx = _syms("gauss", "cx1 cx2")[:n]
    at = _syms("gauss", "at")[0]
    q = at * (T_SYM - tc) ** 2 + sum((x - c) ** 2 for c, x in zip(cx, X_SYMS[:n]))
    expr = amp * sp.exp(-a * q)
    defaults = {amp: 1.0, a: 8.0, tc: 0.0, at: 0.0, **{c: 0.0 for c in cx}}
    return expr, defaults


def _registry_entry_plane_wave(n):
    amp, k, c, p = _syms("pw", "amp k c p")
    expr = amp * sp.sin(k * (X_SYMS[0] - c * T_SYM) + p)
    defaults = {amp: 1.0, k: math.pi, c: 1.0, p: 0.0}
    return expr, defaults


def _registry_entry_standing_wave(n):
    # 1-D mode; in n = 2 it is constant along the second axis.
    amp, k = _syms("sw", "amp k")
    expr = amp * sp.sin(k * X_SYMS[0]) * sp.cos(k * T_SYM)
    defaults = {amp: 1.0, k: math.pi}
    return expr, defaults


def _registry_entry_bump4(n):
    """C^3 compact bump ((1 - q)_+)^4 with anisotropic space-time radii."""
    amp, tc, rt = _syms("bump", "amp tc rt")
    cx = _syms("bump", "cx1 cx2")[:n]
    rx = _syms("bump", "rx1 rx2")[:n]
    q = ((T_SYM - tc) / rt) ** 2 + sum(((x - c) / r) ** 2 for c, r, x in zip(cx, rx, X_SYMS[:n]))
    expr = amp * sp.Piecewise(((1 - q) ** 4, q < 1), (0.0, True))
    defaults = {amp: 1.0, tc: 0.0, rt: 1.0, **{c: 0.0 for c in cx}, **{r: 0.25 for r in rx}}
    return expr, defaults


def _registry_entry_space_bump4(n):
    """Time-independent C^3 compact bump, for initial data."""
    amp = _syms("sbump", "amp")[0]
    cx = _syms("sbump", "cx1 cx2")[:n]
    rx = _syms("sbump", "rx1 rx2")[:n]
    q = sum(((x - c) / r) ** 2 for c, r, x in zip(cx, rx, X_SYMS[:n]))
    expr = amp * sp.Piecewise(((1 - q) ** 4, q < 1), (0.0, True))
    defaults = {amp: 1.0, **{c: 0.0 for c in cx}, **{r: 0.2 for r in rx}}
    return expr, defaults


def _registry_entry_char_linear(n):
    """t - u . x; characteristic level set when |u| = 1."""
    ux = _syms("chl", "ux1 ux2")[:n]
    expr = T_SYM - sum(u * x for u, x in zip(ux, X_SYMS[:n]))
    defaults = {u: (1.0 if j == 0 else 0.0) for j, u in enumerate(ux)}
    return expr, defaults


def _registry_entry_char_exp_flat(n):
    """exp(tau t) - exp(tau x1); graph form of a flat characteristic surface."""
    tau = _syms("chef", "tau")[0]
    expr = sp.exp(tau * T_SYM) - sp.exp(tau * X_SYMS[0])
    defaults = {tau: 1.0}
    return expr, defaults


def _registry_entry_char_exp_radial(n):
    """exp(tau t) - exp(tau |x|); radial graph form, smooth away from x = 0."""
    if n < 2:
        tau = _syms("cher", "tau")[0]
        expr = sp.exp(tau * T_SYM) - sp.exp(tau * sp.sqrt(X_SYMS[0] ** 2))
        return expr, {tau: 1.0}
    tau = _syms("cher", "tau")[0]
    expr = sp.exp(tau * T_SYM) - sp.exp(tau * sp.sqrt(X_SYMS[0] ** 2 + X_SYMS[1] ** 2))
    return expr, {tau: 1.0}


def _registry_entry_radial_norm(n):
    """|x - c|; smooth away from the center, unit gradient."""
    cx = _syms("rad", "cx1 cx2")[:n]
    expr = sp.sqrt(sum((x - c) ** 2 for c, x in zip(cx, X_SYMS[:n])))
    defaults = {c: 0.0 for c in cx}
    return expr, defaults


def _registry_entry_cone_level(n):
    """a (t - t0)^2 / 2 - |x - c|^2; the hyperboloid level function."""
    a, t0 = _syms("cone", "a t0")
    cx = _syms("cone", "cx1 cx2")[:n]
    expr = a * (T_SYM - t0) ** 2 / 2 - sum((x - c) ** 2 for c, x in zip(cx, X_SYMS[:n]))
    defaults = {a: 0.5, t0: 0.0, **{c: 0.0 for c in cx}}
    return expr, defaults


_REGISTRY = {
    "affine": _registry_entry_affine,
    "quadratic": _registry_entry_quadratic,
    "trig_product": _registry_entry_trig_product,
    "exp_quadratic": _registry_entry_exp_quadratic,
    "gaussian_bump": _registry_entry_gaussian_bump,
    "plane_wave": _registry_entry_plane_wave,
    "standing_wave": _registry_entry_standing_wave,
    "bump4": _registry_entry_bump4,
    "space_bump4": _registry_entry_space_bump4,
    "char_linear": _registry_entry_char_linear,
    "char_exp_flat": _registry_entry_char_exp_flat,
    "char_exp_radial": _registry_entry_char_exp_radial,
    "radial_norm": _registry_entry_radial_norm,
    "cone_level": _registry_entry_cone_level,
}

BUILTIN_NAMES = tuple(sorted(_REGISTRY))


_BUILTINS: dict[tuple[str, int], tuple[AnalyticFn, dict[str, int]]] = {}


def make_fn(name: str, n: int, **params: float) -> AnalyticFn:
    """Instantiate a built-in family; unknown names or parameters raise CapabilityError.

    Each (name, n) builds its expression, defaults and short-name index once;
    an instance only rebinds the value tuple.
    """
    if name not in _REGISTRY:
        raise CapabilityError(f"unknown built-in function {name!r}; have {BUILTIN_NAMES}")
    if n not in (1, 2):
        raise CapabilityError(f"built-ins support n in (1, 2), got {n}")
    entry = _BUILTINS.get((name, n))
    if entry is None:
        expr, defaults = _REGISTRY[name](n)
        default = AnalyticFn(name, expr, n, defaults)
        by_short = {s.name.split("_", 1)[1]: i for i, s in enumerate(default.param_syms)}
        entry = _BUILTINS[(name, n)] = (default, by_short)
    default, by_short = entry
    values = list(default.param_values)
    for k, v in params.items():
        if k not in by_short:
            raise CapabilityError(f"{name}: unknown parameter {k!r}; have {sorted(by_short)}")
        values[by_short[k]] = float(v)
    return default.with_values(tuple(values))


def fn_from_spec(spec, n: int) -> AnalyticFn:
    """Build from a config mapping {"name": ..., "params": {...}}."""
    if isinstance(spec, AnalyticFn):
        return spec
    return make_fn(spec["name"], n, **spec.get("params", {}))


# ---------------------------------------------------------------------------
# Discrete fields and stencils
# ---------------------------------------------------------------------------


@dataclass
class Field:
    """Flat node values over a grid, lexicographic layout."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != self.grid.num_nodes:
            raise ConfigurationError(
                f"field length {self.values.size} != node count {self.grid.num_nodes}"
            )

    def array(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def field_from_fn(grid: Grid, fn: AnalyticFn, t: float = 0.0) -> Field:
    mesh = grid.meshgrid()
    vals = fn.d(np.full(grid.shape, t), list(mesh), (0,) * (grid.n + 1))
    return Field(grid, np.asarray(vals, dtype=float))


def _check_interior(shape, index):
    if len(index) != len(shape):
        raise StencilError(f"index {index} does not match grid dimension {len(shape)}")
    for j, (i, m) in enumerate(zip(index, shape)):
        if not (1 <= i <= m - 2):
            raise StencilError(f"index {index} not interior on axis {j} (size {m})")


def _shifted(ndim: int, axis: int):
    """Index tuples selecting the lower, central and upper neighbours along ``axis``."""
    sl = [slice(None)] * ndim
    lo, mid, hi = list(sl), list(sl), list(sl)
    lo[axis], mid[axis], hi[axis] = slice(None, -2), slice(1, -1), slice(2, None)
    return tuple(lo), tuple(mid), tuple(hi)


def zero_ring(arr: np.ndarray, n: int) -> None:
    """Set the outer node ring of the trailing ``n`` (spatial) axes to zero, in place."""
    for j in range(n):
        tail = (slice(None),) * (n - 1 - j)
        arr[(..., 0) + tail] = 0.0
        arr[(..., -1) + tail] = 0.0


def laplacian_array(arr: np.ndarray, dx: float, n: int) -> np.ndarray:
    """Second-order central Laplacian over the trailing ``n`` axes; leading axes
    index independent fields (e.g. Monte Carlo paths).  Boundary entries zero."""
    out = np.zeros_like(arr)
    for axis in range(arr.ndim - n, arr.ndim):
        lo, mid, hi = _shifted(arr.ndim, axis)
        out[mid] += (arr[hi] - 2.0 * arr[mid] + arr[lo]) / dx**2
    zero_ring(out, n)
    return out


def gradient_array(arr: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Second-order central first derivative along one axis (spatial axis j of
    fields with leading path axes is ``j - n``); boundary zero."""
    out = np.zeros_like(arr)
    lo, mid, hi = _shifted(arr.ndim, axis)
    out[mid] = (arr[hi] - arr[lo]) / (2.0 * dx)
    return out


def fd_apply(target, op: str, index) -> float:
    """Apply a second-order central stencil at one interior node.

    ``target`` is a Field for op in {"laplacian", "grad0", "grad1"}; for
    op == "utt" it is a FieldPath-like object with stride-1 snapshots and
    ``index`` is (time_index, node_index); for a path ensemble node_index
    starts with the path's row.
    """
    if op == "utt":
        path, (k, node) = target, index
        if not (1 <= k <= len(path.times) - 2):
            raise StencilError(f"time index {k} not interior (snapshots: {len(path.times)})")
        dt = path.times[1] - path.times[0]
        u = [path.snapshots[k + s][0] for s in (-1, 0, 1)]
        node = tuple(np.atleast_1d(node))
        return float((u[2][node] - 2.0 * u[1][node] + u[0][node]) / dt**2)
    field = target
    arr = field.array()
    index = tuple(np.atleast_1d(index))
    _check_interior(arr.shape, index)
    if op == "laplacian":
        return float(laplacian_array(arr, field.grid.dx, arr.ndim)[index])
    if op.startswith("grad"):
        axis = int(op[4:])
        if axis >= arr.ndim:
            raise StencilError(f"gradient axis {axis} out of range for n={arr.ndim}")
        return float(gradient_array(arr, field.grid.dx, axis)[index])
    raise ConfigurationError(f"unknown stencil op {op!r}")
