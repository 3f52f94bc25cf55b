"""Grids, exact-derivative analytic functions, stencils, and reproducible noise.

Everything downstream leans on two guarantees made here:

* ``AnalyticFn`` carries closed-form partial derivatives of any order.  Each
  evaluator is a numpy function exec'd from the source sympy's ``lambdify``
  writes for one (family, multi-index), compiled once and shared by every
  instance of the family.  A family is a registry entry or psi of one at a
  dimension n, or else the sympy expression itself with its parameter
  symbols.  The sources the bundled runs need are shipped in
  ``_frozen_evaluators`` (written by ``scripts/freeze_evaluators.py``, and
  imported on the first evaluator load), so those runs never import sympy;
  any other source is generated on demand.
  Parameter values are call arguments, so rebinding them never recompiles.
  Identity checks therefore see exact jets, not finite differences.
* ``sample_brownian`` produces a platform-independent increment stream from a
  counter-based generator with an explicit normal transform; the algorithm
  and its constants live in one block below.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


class ConfigurationError(ValueError):
    """Invalid grid, step, or parameter configuration."""


class StencilError(IndexError):
    """Stencil applied at a non-interior index."""


class CapabilityError(RuntimeError):
    """The function registry cannot supply a requested function or derivative."""


# The errors below are raised by cones, identities and solver, which re-export
# them; they live here so that the command line can catch them without
# importing those modules.


class GeometryError(ValueError):
    """Geometric precondition failed."""


class SupportError(ValueError):
    """Field support touches the integration region boundary."""


class StatisticsError(ValueError):
    """Too few Monte Carlo paths for the requested check."""


class PropagationError(RuntimeError):
    """Field support reached the boundary ring during a run."""


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

@functools.cache
def _coordinates():
    """The sympy symbols t and (x1, x2); sympy is imported on first use."""
    import sympy as sp

    return sp.Symbol("t", real=True), (sp.Symbol("x1", real=True), sp.Symbol("x2", real=True))


def __getattr__(name):
    # T_SYM and X_SYMS: made when first read, so that importing this module does not import sympy
    if name == "T_SYM":
        return _coordinates()[0]
    if name == "X_SYMS":
        return _coordinates()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_SYMBOLIC: dict[tuple, "_Symbolic"] = {}
_SCALAR_TYPES = (float, int)
_UNBOUND = object()


def _numpy_names(fn) -> dict[str, str]:
    """{global name: numpy attribute} for each global name a lambdify'd function reads.

    Each must be bound in lambdify's namespace to an object of the numpy
    module, so that the source exec'd against those objects computes exactly
    what the lambdify'd function does; any other name raises CapabilityError.
    """
    names = {}
    for name in fn.__code__.co_names:
        obj = fn.__globals__.get(name, _UNBOUND)
        attrs = [a for a, v in vars(np).items() if v is obj]
        if not attrs:
            raise CapabilityError(f"generated evaluator reads {name!r}, which is not a numpy object")
        names[name] = name if name in attrs else attrs[0]
    return names


def _load_evaluator(source: str, names: dict[str, str]):
    """The function a lambdify source defines, its global names bound to numpy
    attributes.  Every evaluator is made here, frozen or freshly generated."""
    namespace = {name: getattr(np, attr) for name, attr in names.items()}
    exec(source, namespace)
    return namespace["_lambdifygenerated"]


class _Symbolic:
    """What every AnalyticFn of one family shares, keyed by ``(family, n)``.

    ``family`` is a registry name, ``("psi", family)`` for psi = exp(cw_gamma
    rho) on a family of rho, or ``(expr, param_syms)`` for a function made
    from a sympy expression.  The shared part is the sorted parameter names
    and their index for ``with_params``, whether the function depends on t,
    and the evaluators by multi-index.  An evaluator's source comes from the
    frozen table when it has one, and is generated with sympy otherwise.  The
    sympy tree is built by ``tree()`` on first use and checked then for
    unbound symbols; a run served by the table never builds it.
    """

    def __init__(self, name: str, key: tuple, param_names: tuple[str, ...], depends_on_t: bool, build):
        self.name, self.key, self.n = name, key, key[1]
        self.param_names, self.depends_on_t = param_names, depends_on_t
        self._build, self._tree = build, None
        # full parameter names, then the unambiguous short names after the family prefix
        self.index = {nm: i for i, nm in enumerate(param_names)}
        for i, nm in enumerate(param_names):
            self.index.setdefault(nm.split("_", 1)[-1], i)
        self.evaluators: dict[tuple[int, ...], object] = {}

    def tree(self) -> tuple:
        """(sympy expression, parameter symbols in ``param_names`` order)."""
        if self._tree is None:
            expr, param_syms = self._build()
            t, xs = _coordinates()
            free = expr.free_symbols - set(param_syms) - {t} - set(xs[: self.n])
            if free:
                raise CapabilityError(f"{self.name}: unbound symbols {sorted(map(str, free))}")
            self._tree = expr, param_syms
        return self._tree

    def source(self, alpha: tuple[int, ...]) -> tuple[str, dict[str, str]]:
        """lambdify's numpy source of d^alpha of the tree, and ``_numpy_names`` of it."""
        import sympy as sp

        t, xs = _coordinates()
        expr, param_syms = self.tree()
        if alpha[0]:
            expr = sp.diff(expr, t, alpha[0])
        for j in range(self.n):
            if alpha[1 + j]:
                expr = sp.diff(expr, xs[j], alpha[1 + j])
        fn = sp.lambdify((t, *xs[: self.n], *param_syms), expr, modules="numpy", cse=True)
        return inspect.getsource(fn), _numpy_names(fn)

    def compile(self, alpha: tuple[int, ...]):
        from . import _frozen_evaluators

        source = _frozen_evaluators.SOURCES.get(self.key, {}).get(alpha)
        names = _frozen_evaluators.NAMES
        if source is None:
            source, names = self.source(alpha)
        fn = self.evaluators[alpha] = _load_evaluator(source, names)
        return fn


def family(name: str, key: tuple, param_names: tuple[str, ...], depends_on_t: bool, build) -> _Symbolic:
    """The shared part of family ``key``, made on its first request; ``build()``
    returns its sympy tree (see ``_Symbolic``)."""
    sym = _SYMBOLIC.get(key)
    if sym is None:
        sym = _SYMBOLIC[key] = _Symbolic(name, key, param_names, depends_on_t, build)
    return sym


class AnalyticFn:
    """Closed-form scalar function of (t, x) with exact partial derivatives.

    An instance holds its name, the part its whole family shares
    (``symbolic``, see ``_Symbolic``) and its parameter values in the order of
    the family's sorted parameter names, so ``with_params`` and
    ``with_values`` rebind values without touching sympy and never recompile.

    The constructor makes a function from a sympy expression whose parameters
    are symbols bound to floats.  It is a family of its own, keyed by the
    expression and its parameter symbols; sympy expressions hash and compare
    by structure, with symbol assumptions and number types included
    (``2.0*x`` and ``2*x`` are different families).  Registry functions
    (``make_fn``) and psi (``weights.WeightFamily``) are keyed by name
    instead, and build no sympy tree until something reads ``expr``.
    """

    def __init__(self, name: str, expr, n: int, params: dict):
        param_syms = tuple(sorted(params.keys(), key=lambda s: s.name))
        self.name = name
        self.symbolic = family(
            name,
            ((expr, param_syms), int(n)),
            tuple(s.name for s in param_syms),
            expr.has(_coordinates()[0]),
            lambda: (expr, param_syms),
        )
        self.symbolic.tree()  # the unbound-symbol check, once per family
        self.param_values = tuple(float(params[s]) for s in param_syms)

    @staticmethod
    def of_family(name: str, symbolic: _Symbolic, values: tuple[float, ...]) -> "AnalyticFn":
        """An instance of an existing family, with every parameter value given."""
        fn = AnalyticFn.__new__(AnalyticFn)
        fn.name, fn.symbolic, fn.param_values = name, symbolic, values
        return fn

    @property
    def expr(self):
        return self.symbolic.tree()[0]

    @property
    def param_syms(self) -> tuple:
        return self.symbolic.tree()[1]

    @property
    def n(self) -> int:
        return self.symbolic.n

    @property
    def params(self) -> dict[str, float]:
        return dict(zip(self.symbolic.param_names, self.param_values))

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
        """The same function with every parameter value given, in ``param_names`` order."""
        return AnalyticFn.of_family(self.name, self.symbolic, values)

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
# Each entry declares its parameters and their defaults in plain Python and
# builds its sympy expression only on request.  Parameter names carry a
# per-family prefix; names starting with "cw_" are reserved for weight
# construction.
# ---------------------------------------------------------------------------


class _Entry:
    """One registry family: a parameter prefix, the defaults by short name,
    whether it depends on t, and ``build(sp, t, xs, p)``, which makes the
    sympy expression from the coordinate symbols and the parameter symbols
    ``p`` (by short name).  A default given as a pair declares one parameter
    per axis, cut to the first n: ``cx=(0.0, 0.0)`` declares ``cx1``, ``cx2``
    and gives ``p.cx`` as a list."""

    def __init__(self, prefix: str, build, depends_on_t: bool = True, **defaults):
        self.prefix, self.build, self.depends_on_t, self.defaults = prefix, build, depends_on_t, defaults

    def __call__(self, n: int):
        """(defaults by full parameter name, depends on t, tree builder) at dimension n."""
        short = {}
        for k, v in self.defaults.items():
            short.update({f"{k}{j + 1}": v[j] for j in range(n)} if isinstance(v, tuple) else {k: v})

        def build():
            import sympy as sp

            t, xs = _coordinates()
            syms = {k: sp.Symbol(f"{self.prefix}_{k}", real=True) for k in short}
            p = SimpleNamespace(**{
                k: [syms[f"{k}{j + 1}"] for j in range(n)] if isinstance(v, tuple) else syms[k]
                for k, v in self.defaults.items()
            })
            return self.build(sp, t, xs[:n], p), tuple(sorted(syms.values(), key=lambda s: s.name))

        return {f"{self.prefix}_{k}": float(v) for k, v in short.items()}, self.depends_on_t, build


def _affine(sp, t, xs, p):
    return p.c0 + p.ct * t + sum(c * x for c, x in zip(p.cx, xs))


def _quadratic(sp, t, xs, p):
    return (
        p.c0
        + p.ct * t
        + p.qtt * t**2 / 2
        + sum(c * x for c, x in zip(p.cx, xs))
        + sum(q * x**2 / 2 for q, x in zip(p.qx, xs))
    )


def _trig_product(sp, t, xs, p):
    expr = p.amp * sp.sin(p.wt * t + p.pt)
    for w, ph, x in zip(p.wx, p.px, xs):
        expr *= sp.cos(w * x + ph)
    return expr


def _exp_quadratic(sp, t, xs, p):
    return p.amp * sp.exp(
        p.att * t**2 / 2
        + p.bt * t
        + sum(a * x**2 / 2 for a, x in zip(p.ax, xs))
        + sum(b * x for b, x in zip(p.bx, xs))
    )


def _gaussian_bump(sp, t, xs, p):
    q = p.at * (t - p.tc) ** 2 + sum((x - c) ** 2 for c, x in zip(p.cx, xs))
    return p.amp * sp.exp(-p.a * q)


def _plane_wave(sp, t, xs, p):
    return p.amp * sp.sin(p.k * (xs[0] - p.c * t) + p.p)


def _standing_wave(sp, t, xs, p):
    # 1-D mode; in n = 2 it is constant along the second axis.
    return p.amp * sp.sin(p.k * xs[0]) * sp.cos(p.k * t)


def _bump4(sp, t, xs, p):
    """C^3 compact bump ((1 - q)_+)^4 with anisotropic space-time radii."""
    q = ((t - p.tc) / p.rt) ** 2 + sum(((x - c) / r) ** 2 for c, r, x in zip(p.cx, p.rx, xs))
    return p.amp * sp.Piecewise(((1 - q) ** 4, q < 1), (0.0, True))


def _space_bump4(sp, t, xs, p):
    """Time-independent C^3 compact bump, for initial data."""
    q = sum(((x - c) / r) ** 2 for c, r, x in zip(p.cx, p.rx, xs))
    return p.amp * sp.Piecewise(((1 - q) ** 4, q < 1), (0.0, True))


def _char_linear(sp, t, xs, p):
    """t - u . x; characteristic level set when |u| = 1."""
    return t - sum(u * x for u, x in zip(p.ux, xs))


def _char_exp_flat(sp, t, xs, p):
    """exp(tau t) - exp(tau x1); graph form of a flat characteristic surface."""
    return sp.exp(p.tau * t) - sp.exp(p.tau * xs[0])


def _char_exp_radial(sp, t, xs, p):
    """exp(tau t) - exp(tau |x|); radial graph form, smooth away from x = 0."""
    return sp.exp(p.tau * t) - sp.exp(p.tau * sp.sqrt(sum(x**2 for x in xs)))


def _radial_norm(sp, t, xs, p):
    """|x - c|; smooth away from the center, unit gradient."""
    return sp.sqrt(sum((x - c) ** 2 for c, x in zip(p.cx, xs)))


def _cone_level(sp, t, xs, p):
    """a (t - t0)^2 / 2 - |x - c|^2; the hyperboloid level function."""
    return p.a * (t - p.t0) ** 2 / 2 - sum((x - c) ** 2 for c, x in zip(p.cx, xs))


_REGISTRY = {
    "affine": _Entry("aff", _affine, c0=0.0, ct=1.0, cx=(-1.0, -1.0)),
    "quadratic": _Entry("quad", _quadratic, c0=0.0, ct=0.0, qtt=1.0, cx=(0.0, 0.0), qx=(-1.0, -1.0)),
    "trig_product": _Entry("trig", _trig_product, amp=1.0, wt=1.0, pt=0.3, wx=(1.0, 1.0), px=(0.0, 0.0)),
    "exp_quadratic": _Entry("expq", _exp_quadratic, amp=1.0, att=-0.5, bt=0.0, ax=(-0.5, -0.5), bx=(0.0, 0.0)),
    "gaussian_bump": _Entry("gauss", _gaussian_bump, amp=1.0, a=8.0, tc=0.0, at=0.0, cx=(0.0, 0.0)),
    "plane_wave": _Entry("pw", _plane_wave, amp=1.0, k=math.pi, c=1.0, p=0.0),
    "standing_wave": _Entry("sw", _standing_wave, amp=1.0, k=math.pi),
    "bump4": _Entry("bump", _bump4, amp=1.0, tc=0.0, rt=1.0, cx=(0.0, 0.0), rx=(0.25, 0.25)),
    "space_bump4": _Entry("sbump", _space_bump4, depends_on_t=False, amp=1.0, cx=(0.0, 0.0), rx=(0.2, 0.2)),
    "char_linear": _Entry("chl", _char_linear, ux=(1.0, 0.0)),
    "char_exp_flat": _Entry("chef", _char_exp_flat, tau=1.0),
    "char_exp_radial": _Entry("cher", _char_exp_radial, tau=1.0),
    "radial_norm": _Entry("rad", _radial_norm, depends_on_t=False, cx=(0.0, 0.0)),
    "cone_level": _Entry("cone", _cone_level, a=0.5, t0=0.0, cx=(0.0, 0.0)),
}

BUILTIN_NAMES = tuple(sorted(_REGISTRY))


_BUILTINS: dict[tuple[str, int], tuple[AnalyticFn, dict[str, int]]] = {}


def make_fn(name: str, n: int, **params: float) -> AnalyticFn:
    """Instantiate a built-in family; unknown names or parameters raise CapabilityError.

    Each (name, n) reads its registry entry's declaration once; an instance
    only rebinds the value tuple.
    """
    if name not in _REGISTRY:
        raise CapabilityError(f"unknown built-in function {name!r}; have {BUILTIN_NAMES}")
    if n not in (1, 2):
        raise CapabilityError(f"built-ins support n in (1, 2), got {n}")
    entry = _BUILTINS.get((name, n))
    if entry is None:
        defaults, depends_on_t, build = _REGISTRY[name](n)
        names = tuple(sorted(defaults))
        sym = family(name, (name, n), names, depends_on_t, build)
        default = AnalyticFn.of_family(name, sym, tuple(defaults[k] for k in names))
        by_short = {nm.split("_", 1)[1]: i for i, nm in enumerate(names)}
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


def zero_ring(arr: np.ndarray, n: int) -> None:
    """Set the outer node ring of the trailing ``n`` (spatial) axes to zero, in place."""
    for j in range(n):
        tail = (slice(None),) * (n - 1 - j)
        arr[(..., 0) + tail] = 0.0
        arr[(..., -1) + tail] = 0.0


# Stencils shift the flat array by +-s, an axis's stride, so each operation is one contiguous
# pass; a node whose shifted neighbour lies in another row or path is zeroed afterwards.


def laplacian_array(arr: np.ndarray, dx: float, n: int) -> np.ndarray:
    """Second-order central Laplacian over the trailing ``n`` axes; leading axes
    index independent fields (e.g. Monte Carlo paths).  Boundary entries zero."""
    flat = np.ascontiguousarray(arr, dtype=float).ravel()
    out = np.empty_like(flat)
    first = arr.ndim - n
    for axis in range(first, arr.ndim):
        s = math.prod(arr.shape[axis + 1 :])
        # (hi - 2 mid + lo) / dx^2, the first axis written straight into ``out``
        term = out[s:-s] if axis == first else np.empty(flat.size - 2 * s)
        np.subtract(flat[2 * s :], np.multiply(2.0, flat[s:-s], out=term), out=term)
        term += flat[: -2 * s]
        term /= dx**2
        if axis > first:
            out[s:-s] += term
        out[:s] = out[-s:] = 0.0
    out = out.reshape(arr.shape)
    zero_ring(out, n)
    return out


def gradient_array(arr: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Second-order central first derivative along one axis (spatial axis j of
    fields with leading path axes is ``j - n``); boundary zero."""
    flat = np.ascontiguousarray(arr, dtype=float).ravel()
    s = math.prod(arr.shape[axis % arr.ndim + 1 :])
    out = np.empty(arr.shape)
    mid = out.reshape(-1)[s:-s]
    np.divide(np.subtract(flat[2 * s :], flat[: -2 * s], out=mid), 2.0 * dx, out=mid)
    np.moveaxis(out, axis, 0)[[0, -1]] = 0.0
    return out


def fd_apply(field, op: str, index) -> float:
    """Apply a second-order central stencil at one interior node of a Field,
    for op in {"laplacian", "grad0", "grad1", ...}."""
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
