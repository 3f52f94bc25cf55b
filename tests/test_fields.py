import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from carleman_lab import fields
from carleman_lab.fields import (
    BUILTIN_NAMES,
    CapabilityError,
    ConfigurationError,
    Jet2,
    _coordinates,
    gradient_array,
    laplacian_array,
    make_fn,
    make_grid,
    normal_stream,
    sample_brownian,
    uniform_stream,
)

from oracles import expression_fn

T_SYM, X_SYMS = _coordinates()


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_node_and_step_counts():
    g = make_grid([(-1.0, 1.0)], dx=0.01, dt=0.005, t_max=1.0)
    assert g.shape == (201,)
    assert g.num_steps == 200


def test_grid_cfl_violation_names_axis():
    with pytest.raises(ConfigurationError, match="axis 0"):
        make_grid([(-1.0, 1.0)], dx=0.01, dt=0.02, t_max=1.0)


def test_grid_cfl_2d_sqrt2():
    g = make_grid([(-1.0, 1.0), (-1.0, 1.0)], dx=0.05, dt=0.02, t_max=1.0)
    assert g.n == 2
    assert 0.02 <= g.cfl * g.dx


def test_grid_rejects_non_integer_extent():
    with pytest.raises(ConfigurationError, match="positive integer"):
        make_grid([(-1.0, 1.0)], dx=0.3, dt=0.1, t_max=1.0)


def test_grid_rejects_dt_not_dividing_t_max():
    with pytest.raises(ConfigurationError, match="divide"):
        make_grid([(-1.0, 1.0)], dx=0.1, dt=0.03, t_max=1.0)


# ---------------------------------------------------------------------------
# analytic functions and jets
# ---------------------------------------------------------------------------


def _fd_jet(fn, t, x, h=1e-4):
    """Central-difference jet for cross-checking the exact one."""
    f = lambda tt, xx: fn.value(tt, list(xx))
    x = np.asarray(x, dtype=float)
    n = x.size
    val = f(t, x)
    gt = (f(t + h, x) - f(t - h, x)) / (2 * h)
    htt = (f(t + h, x) - 2 * val + f(t - h, x)) / h**2
    gx = np.zeros(n)
    htx = np.zeros(n)
    hxx = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        gx[j] = (f(t, x + e) - f(t, x - e)) / (2 * h)
        htx[j] = (f(t + h, x + e) - f(t + h, x - e) - f(t - h, x + e) + f(t - h, x - e)) / (4 * h**2)
        hxx[j, j] = (f(t, x + e) - 2 * val + f(t, x - e)) / h**2
        for k in range(j + 1, n):
            e2 = np.zeros(n)
            e2[k] = h
            hxx[j, k] = hxx[k, j] = (
                f(t, x + e + e2) - f(t, x + e - e2) - f(t, x - e + e2) + f(t, x - e - e2)
            ) / (4 * h**2)
    return val, gt, gx, htt, htx, hxx


_SMOOTH_BUILTINS = [
    "affine", "quadratic", "trig_product", "exp_quadratic", "gaussian_bump",
    "plane_wave", "standing_wave", "char_linear", "char_exp_flat", "cone_level",
]


def test_jet_rejects_an_asymmetric_hessian():
    with pytest.raises(ValueError, match="symmetric"):
        Jet2.make(0.0, 0.0, [0.0, 0.0], 0.0, [0.0, 0.0], [[1.0, 2.0], [2.0 + 1e-15, 1.0]])


def test_jet_hessian_is_a_read_only_copy():
    hess = np.array([[1.0, 2.0], [2.0, 3.0]])
    jet = Jet2.make(0.0, 0.0, [0.0, 0.0], 0.0, [0.0, 0.0], hess)
    hess[0, 0] = 9.0
    assert jet.hess_xx[0, 0] == 1.0
    with pytest.raises(ValueError):
        jet.hess_xx[0, 1] = 5.0


@pytest.mark.parametrize("name", _SMOOTH_BUILTINS)
def test_jet_matches_finite_differences(name):
    fn = make_fn(name, 1)
    pts = 0.6 * (uniform_stream(3, 200).reshape(100, 2) - 0.5)
    for t, x in pts:
        jet = fn.jet2(float(t), [float(x)])
        val, gt, gx, htt, htx, hxx = _fd_jet(fn, float(t), [float(x)])
        scale = max(1.0, abs(val))
        assert abs(jet.value - val) <= 1e-9 * scale
        assert abs(jet.grad_t - gt) <= 1e-6 * max(1.0, abs(gt))
        assert abs(jet.grad_x[0] - gx[0]) <= 1e-6 * max(1.0, abs(gx[0]))
        assert abs(jet.hess_tt - htt) <= 1e-6 * max(1.0, abs(htt))
        assert abs(jet.hess_tx[0] - htx[0]) <= 1e-6 * max(1.0, abs(htx[0]))
        assert abs(jet.hess_xx[0, 0] - hxx[0, 0]) <= 1e-6 * max(1.0, abs(hxx[0, 0]))


def test_bump_jet_matches_fd_away_from_seam():
    fn = make_fn("bump4", 1, rt=0.5, rx1=0.5)
    for t, x in [(0.1, 0.2), (0.0, 0.0), (0.3, -0.1)]:
        jet = fn.jet2(t, [x])
        val, gt, gx, htt, htx, hxx = _fd_jet(fn, t, [x])
        assert abs(jet.hess_xx[0, 0] - hxx[0, 0]) <= 1e-5 * max(1.0, abs(hxx[0, 0]))
        assert abs(jet.grad_t - gt) <= 1e-6 * max(1.0, abs(gt))
    # identically zero outside the support
    assert fn.value(0.0, [2.0]) == 0.0
    assert fn.jet2(0.0, [2.0]).grad_x[0] == 0.0


def test_registry_rejects_unknown_names_and_params():
    with pytest.raises(CapabilityError):
        make_fn("not_a_function", 1)
    with pytest.raises(CapabilityError):
        make_fn("affine", 1, bogus=1.0)


def test_builtin_list_is_stable():
    assert "trig_product" in BUILTIN_NAMES
    assert "radial_norm" in BUILTIN_NAMES


def _bits(value) -> tuple:
    return type(value), np.shape(value), np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_partials_equal_d_bit_for_bit(name, n):
    fn = make_fn(name, n)
    axes = [np.linspace(0.1, 0.4, 4)] * n
    grid_t, *grid_x = np.meshgrid(np.linspace(-0.3, 0.3, 5), *axes, indexing="ij")
    for t, xs in [(0.3, [0.1 + 0.2 * j for j in range(n)]), (grid_t, grid_x)]:
        want = {}
        for alpha in fields.multi_indices(n).ell:
            try:
                want[alpha] = fn.d(t, xs, alpha)
            except CapabilityError:
                pass  # |x| at n = 1: its second derivative is a DiracDelta, which has no evaluator
        got = fn.partials(t, xs, tuple(want))
        assert list(got) == list(want)
        assert {a: _bits(v) for a, v in got.items()} == {a: _bits(v) for a, v in want.items()}


@pytest.mark.parametrize("name, n, t, x, alpha", [
    ("affine", 2, 0.1, [0.2, 0.3], (0, 1)),  # a multi-index of the wrong length
    ("affine", 2, 0.1, [0.2], (0, 1, 0)),  # too few coordinates
    ("radial_norm", 1, 0.1, [0.2], (0, 2)),  # no evaluator for the DiracDelta
])
def test_partials_raise_the_capability_errors_of_d(name, n, t, x, alpha):
    fn = make_fn(name, n)
    with pytest.raises(CapabilityError) as from_d:
        fn.d(t, x, alpha)
    with pytest.raises(CapabilityError) as from_partials:
        fn.partials(t, x, [(0,) * (n + 1), alpha])
    assert str(from_partials.value) == str(from_d.value)


@pytest.fixture
def compiles(monkeypatch):
    """Sources made into evaluators while the test runs, frozen or generated."""
    calls, real = [], fields._load_evaluator

    def counting(source, names):
        calls.append(source)
        return real(source, names)

    monkeypatch.setattr(fields, "_load_evaluator", counting)
    return calls


def test_parameter_values_share_compiled_evaluators(compiles):
    make_fn("gaussian_bump", 1).jet2(0.1, [0.2])
    before = len(compiles)
    a = make_fn("gaussian_bump", 1, amp=2.0, a=3.0)
    b = make_fn("gaussian_bump", 1, amp=0.5, tc=0.1)
    rebound = make_fn("gaussian_bump", 1, amp=2.0, a=3.0, cx1=0.3)
    for fn in (a, b, rebound):
        fn.jet2(0.1, [0.2])
    assert len(compiles) == before
    assert rebound.value(0.0, [0.3]) == pytest.approx(2.0)
    # a function made from an expression is a family of its own, shared by
    # every function made from the same expression
    expr, param_syms = a.symbolic.tree()
    params = dict(zip(param_syms, a.param_values))
    expression_fn("g", expr, 1, params).jet2(0.1, [0.2])
    assert len(compiles) == before + 6
    expression_fn("h", expr, 1, params).jet2(0.1, [0.2])
    assert len(compiles) == before + 6


def _evaluator_pair(compiles, f, g, x):
    before = len(compiles)
    ef, eg = f._evaluator((0,) * (f.n + 1)), g._evaluator((0,) * (g.n + 1))
    assert ef is not eg
    assert len(compiles) == before + 2
    return f.value(0.5, x[: f.n]), g.value(0.5, x[: g.n])


def test_evaluator_key_separates_dimension_number_type_and_assumptions(compiles):
    x1 = X_SYMS[0]
    c_real, c_plain = sp.Symbol("keytest_c", real=True), sp.Symbol("keytest_c")
    # the same expression at n = 1 and n = 2
    expr = T_SYM * x1 + sp.Rational(1, 7)
    f1, f2 = (expression_fn("f", expr, n, {}) for n in (1, 2))
    assert _evaluator_pair(compiles, f1, f2, [2.0, 3.0]) == (pytest.approx(1.0 + 1 / 7),) * 2
    # 2.0*x and 2*x are different expressions
    fa, fb = expression_fn("f", 2.0 * x1 * T_SYM**3, 1, {}), expression_fn("f", 2 * x1 * T_SYM**3, 1, {})
    assert fa.symbolic.tree()[0] != fb.symbolic.tree()[0]
    assert _evaluator_pair(compiles, fa, fb, [2.0]) == (0.5, 0.5)
    # a real parameter symbol and a plain one of the same name
    fr = expression_fn("f", c_real * T_SYM, 1, {c_real: 4.0})
    fp = expression_fn("f", c_plain * T_SYM, 1, {c_plain: 6.0})
    assert _evaluator_pair(compiles, fr, fp, [0.0]) == (2.0, 3.0)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def _sampled(g, fn):
    return fn.d(np.zeros(g.shape), list(g.meshgrid()), (0,) * (g.n + 1))


def test_laplacian_exact_on_quadratic():
    # binary-representable nodes keep the divided difference exact
    g = make_grid([(-1.0, 1.0)], dx=0.25, dt=0.125, t_max=1.0)
    quad = make_fn("quadratic", 1, qtt=0.0, qx1=2.0)  # x^2
    assert laplacian_array(_sampled(g, quad), g.dx, g.n)[4] == 2.0


def test_gradient_of_constant_is_zero():
    g = make_grid([(-1.0, 1.0)], dx=0.25, dt=0.125, t_max=1.0)
    assert np.all(gradient_array(np.full(g.shape, 3.7), g.dx, 0) == 0.0)


def test_laplacian_second_order_on_sine():
    def err(dx):
        g = make_grid([(-1.0, 1.0)], dx=dx, dt=dx / 2, t_max=1.0)
        f = make_fn("standing_wave", 1)  # sin(pi x) at t = 0
        idx = int(round((0.5 - (-1.0)) / dx))
        exact = -math.pi**2 * math.sin(math.pi * 0.5)
        return abs(laplacian_array(_sampled(g, f), g.dx, g.n)[idx] - exact)

    e1, e2 = err(0.02), err(0.01)
    assert 3.5 <= e1 / e2 <= 4.5


def _slice_stencils(arr, dx, n):
    """The stencils written with row-strided slices, one axis at a time: the
    Laplacian sums (hi - 2 mid + lo) / dx^2 into zeros and then zeroes the
    ring; each gradient is (hi - lo) / (2 dx), zero at its axis ends."""
    lap = np.zeros_like(arr)
    grads = []
    for axis in range(arr.ndim - n, arr.ndim):
        lo, mid, hi = (
            tuple(slice(a, b) if k == axis else slice(None) for k in range(arr.ndim))
            for a, b in ((None, -2), (1, -1), (2, None))
        )
        lap[mid] += (arr[hi] - 2.0 * arr[mid] + arr[lo]) / dx**2
        grad = np.zeros_like(arr)
        grad[mid] = (arr[hi] - arr[lo]) / (2.0 * dx)
        grads.append(grad)
    inner = (Ellipsis,) + (slice(1, -1),) * n
    ring = np.ones(arr.shape, dtype=bool)
    ring[inner] = False
    lap[ring] = 0.0
    return lap, grads, ring


@pytest.mark.parametrize("shape, n", [((9,), 1), ((3, 9), 1), ((7, 6), 2), ((3, 7, 6), 2)])
def test_flat_stencils_equal_the_slice_formulas(shape, n):
    arr = np.random.default_rng(5).standard_normal(shape)
    dx = 0.1
    lap_ref, grads_ref, ring = _slice_stencils(arr, dx, n)
    lap = laplacian_array(arr, dx, n)
    assert np.array_equal(lap, lap_ref)
    assert np.all(lap[ring] == 0.0)
    for j in range(n):
        grad = gradient_array(arr, dx, j - n)
        assert np.array_equal(grad, grads_ref[j])
        ends = np.moveaxis(grad, j - n, 0)
        assert np.all(ends[0] == 0.0) and np.all(ends[-1] == 0.0)
    # a strided slice and a transposed view hold the same values in other layouts
    views = [np.repeat(arr[..., None], 2, axis=-1)[..., 1]]
    if arr.ndim > 1:
        views.append(np.ascontiguousarray(arr.T).T)
    for view in views:
        assert not view.flags.c_contiguous and np.array_equal(view, arr)
        assert np.array_equal(laplacian_array(view, dx, n), lap_ref)
        for j in range(n):
            assert np.array_equal(gradient_array(view, dx, j - n), grads_ref[j])


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_brownian_determinism_bit_identical():
    a = sample_brownian(1, 1e-3, 1.0)
    b = sample_brownian(1, 1e-3, 1.0)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, sample_brownian(2, 1e-3, 1.0).increments)


def test_brownian_streams_differ():
    a = sample_brownian(1, 1e-3, 1.0, stream=0)
    b = sample_brownian(1, 1e-3, 1.0, stream=1)
    assert not np.array_equal(a.increments, b.increments)


def test_brownian_mean_sanity_bound():
    # documented 4 sigma bound on the sample mean, 1e6 draws
    dt = 1e-3
    z = math.sqrt(dt) * normal_stream(7, 1_000_000)
    assert abs(float(np.mean(z))) <= 4.0 * math.sqrt(dt / 1_000_000)
    assert sample_brownian(7, 1e-3, 1.0).passes_mean_sanity


def test_brownian_quadratic_variation():
    path = sample_brownian(5, 1e-4, 1.0)
    assert abs(float(np.sum(path.increments**2)) - 1.0) <= 0.05


def test_brownian_requires_divisible_horizon():
    with pytest.raises(ConfigurationError):
        sample_brownian(1, 0.003, 1.0)


def test_normal_stream_moments():
    z = normal_stream(11, 200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.var(z)) - 1.0) < 0.01


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
def test_uniform_stream_reproducible(seed, count):
    assert np.array_equal(uniform_stream(seed, count), uniform_stream(seed, count))


def test_brownian_identical_across_process_runs():
    import hashlib
    import subprocess
    import sys

    snippet = (
        "from carleman_lab.fields import sample_brownian; import hashlib;"
        "print(hashlib.sha256(sample_brownian(42, 1e-3, 0.1).increments.tobytes()).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, check=True
        ).stdout.strip()
        for _ in range(2)
    }
    assert len(digests) == 1
    in_process = hashlib.sha256(sample_brownian(42, 1e-3, 0.1).increments.tobytes()).hexdigest()
    assert digests == {in_process}
