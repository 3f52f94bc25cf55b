import dataclasses
import math
from dataclasses import replace

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.fields import AnalyticFn, Jet2, jet_add, jet_exp, jet_scale, make_fn, multi_indices, uniform_stream
from carleman_lab.weights import (
    ASSUMPTION_PRESETS,
    CarlemanFrame,
    ConfigurationError,
    EIG_FLOOR,
    RangeError,
    WeightFamily,
    WeightParams,
    _q_partial,
    assumption_check,
    build_M,
    eval_D,
    jacobi_eigenvalues,
    psd_certificate,
)

from conftest import draw_uniform


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def _frame(rho, t, x, params, varrho=0.0):
    """The frame at (t, x) from rho's jet there and varrho's value there."""
    vr = varrho.value(t, x) if isinstance(varrho, AnalyticFn) else varrho
    return CarlemanFrame.make(t, x, rho.jet2(t, x), params, vr)


def _point_D(rho, t, x, params, varrho=0.0):
    return eval_D(WeightFamily(rho, varrho).point_stage(t, x, params))


def test_frame_invariants(rho_trig, varrho_quad, params):
    fr = _frame(rho_trig, 0.37, [0.51], params, varrho_quad)
    rho_val = rho_trig.value(0.37, [0.51])
    assert abs(fr.psi - math.exp(params.gamma * rho_val)) <= 1e-12 * abs(fr.psi)
    q = (0.37 - params.t0) ** 2 + (0.51 - params.x0[0]) ** 2
    assert abs(fr.phi - (fr.psi - params.mu * q)) <= 1e-12 * max(1.0, abs(fr.phi))
    assert abs(fr.ell - params.lam * fr.phi) <= 1e-12 * max(1.0, abs(fr.ell))
    assert abs(fr.theta - math.exp(fr.ell)) <= 1e-12 * abs(fr.theta)


def test_frame_chain_rule_derivatives(rho_trig, params):
    # phi_t = gamma psi rho_t - 2 mu (t - t0), and the spatial analogue
    fr = _frame(rho_trig, 0.37, [0.51], params)
    rj = rho_trig.jet2(0.37, [0.51])
    expected_t = params.gamma * fr.psi * rj.grad_t - 2.0 * params.mu * (0.37 - params.t0)
    expected_x = params.gamma * fr.psi * rj.grad_x[0] - 2.0 * params.mu * (0.51 - params.x0[0])
    assert abs(fr.phi_jet.grad_t - expected_t) <= 1e-12 * max(1.0, abs(expected_t))
    assert abs(fr.phi_jet.grad_x[0] - expected_x) <= 1e-12 * max(1.0, abs(expected_x))
    # phi_tt = gamma^2 psi rho_t^2 + gamma psi rho_tt - 2 mu
    expected_tt = (
        params.gamma**2 * fr.psi * rj.grad_t**2 + params.gamma * fr.psi * rj.hess_tt - 2.0 * params.mu
    )
    assert abs(fr.phi_jet.hess_tt - expected_tt) <= 1e-12 * max(1.0, abs(expected_tt))


def _scalars(value):
    if isinstance(value, dict):
        return [v for item in value.values() for v in _scalars(item)]
    if isinstance(value, list):
        return [v for item in value for v in _scalars(item)]
    return [value]


@pytest.mark.parametrize("n", [1, 2])
def test_scalar_evaluation_gives_python_floats(n, varrho_quad):
    # numpy scalars would round powers differently from the Python floats
    # that the numeric columns are made of
    rho = make_fn("trig_product", n, amp=0.1, wt=1.1, wx1=0.9, pt=0.2, px1=0.4)
    x = [0.51, -0.2][:n]
    assert type(rho.d(0.37, x, (1,) + (1,) * n)) is float
    params = WeightParams(lam=3.0, gamma=1.7, mu=0.35, t0=0.1, x0=(0.2,) * n)
    for varrho in ([0.8, varrho_quad] if n == 1 else [0.8]):
        values = _scalars(WeightFamily(rho, varrho).quantities(0.37, x, params))
        assert len(values) > 40
        assert {type(v) for v in values} == {float}


@pytest.mark.parametrize("n", [1, 2])
def test_ell_alone_equals_the_ell_of_quantities(n, varrho_quad):
    # qv-check's weight is exp(lam phi), with phi read alone
    rho = make_fn("trig_product", n, amp=0.1, wt=1.1, wx1=0.9, pt=0.2, px1=0.4)
    fam = WeightFamily(rho, varrho_quad if n == 1 else 0.8)
    params = WeightParams(lam=3.0, gamma=1.7, mu=0.35, t0=0.1, x0=(0.2,) * n)
    mesh = np.meshgrid(*[np.linspace(-0.4, 0.4, 7)] * n, indexing="ij")
    t = np.full(mesh[0].shape, 0.37)
    want = fam.quantities(t, mesh, params)["ell"][multi_indices(n).zero]
    got = params.lam * fam.phi(t, mesh, params)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _leaves(value, path=()):
    """(path, leaf) pairs of a nested dict/list of quantities, in order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _bits(leaves):
    return [(path, type(v), np.asarray(v).tobytes()) for path, v in leaves]


@pytest.mark.parametrize("grid", [False, True], ids=["scalar", "grid"])
@pytest.mark.parametrize("n", [1, 2])
def test_quantities_are_the_lambda_stages_of_one_point_stage(n, grid, varrho_quad):
    rho = make_fn("trig_product", n, amp=0.1, wt=1.1, wx1=0.9, pt=0.2, px1=0.4)
    fam = WeightFamily(rho, varrho_quad if n == 1 else 0.8)
    params = WeightParams(lam=3.0, gamma=1.7, mu=0.35, t0=0.1, x0=(0.2,) * n)
    if grid:
        xs = np.meshgrid(*[np.linspace(-0.4, 0.4, 5)] * n, indexing="ij")
        t = np.full(xs[0].shape, 0.37)
    else:
        t, xs = 0.37, [0.51, -0.2][:n]
    point = fam.point_stage(t, xs, params)
    before = _bits(_leaves(point.values))
    for lam in (0.5, 3.0, 64.0):
        want = fam.quantities(t, xs, replace(params, lam=lam))
        got = {**point.values, **point.lambda_stage(lam)}
        # bit for bit, with the same types, entry by entry
        assert _bits(_leaves(got)) == _bits(_leaves(want))
        assert _bits(_leaves(point.values)) == before


def test_a_bare_array_x_is_the_one_coordinate_at_n1_in_point_stage_and_partials():
    # one rule in both entries: a list or tuple holds the coordinates, and a bare
    # array is the one coordinate at n = 1
    fn = make_fn("affine", 1)
    params = WeightParams(lam=2.0, gamma=1.0, mu=0.3, t0=0.0, x0=(0.1,))
    t, x = np.zeros(2), np.array([0.1, 0.2])
    bare = WeightFamily(fn, 0.0).point_stage(t, x, params)
    listed = WeightFamily(fn, 0.0).point_stage(t, [x], params)
    assert _bits(_leaves(bare.values)) == _bits(_leaves(listed.values))
    assert bare["rho"][(0, 0)].shape == (2,)
    jet = multi_indices(1).jet2
    want = fn.partials(t, [x], jet)
    assert _bits(_leaves(fn.partials(t, x, jet))) == _bits(_leaves(want)) == _bits(_leaves(bare["rho"]))


def test_frame_psi_is_one_at_center_on_level_set():
    # rho vanishes at the center, so psi there is exactly one
    rho = make_fn("char_linear", 1)  # t - x, zero at (0, 0)
    params = WeightParams(lam=2.0, gamma=3.0, mu=0.1, t0=0.0, x0=(0.0,))
    fr = _frame(rho, 0.0, [0.0], params)
    assert fr.psi == pytest.approx(1.0, abs=1e-15)


def test_frame_mu_zero_collapses_phi_to_psi(rho_trig):
    params = WeightParams(lam=2.0, gamma=1.5, mu=0.0, t0=0.0, x0=(0.0,))
    for t, x in [(0.3, 0.4), (-0.2, 0.1)]:
        fr = _frame(rho_trig, t, [x], params)
        assert fr.phi == fr.psi


def test_frame_exp_example():
    # rho = t, gamma = 2, mu = 0, lam = 1 at t = 1: ell = e^2, theta = e^(e^2)
    rho = make_fn("affine", 1, c0=0.0, ct=1.0, cx1=0.0)
    params = WeightParams(lam=1.0, gamma=2.0, mu=0.0, t0=0.0, x0=(0.0,))
    fr = _frame(rho, 1.0, [0.3], params)
    assert fr.ell == pytest.approx(math.exp(2.0), rel=1e-14)
    assert fr.theta == pytest.approx(math.exp(math.exp(2.0)), rel=1e-12)


def test_frame_overflow_raises_range_error():
    rho = make_fn("affine", 1, c0=0.0, ct=1.0, cx1=0.0)
    params = WeightParams(lam=1000.0, gamma=2.0, mu=0.0, t0=0.0, x0=(0.0,))
    with pytest.raises(RangeError, match="lam\\*phi"):
        _frame(rho, 1.0, [0.0], params)


def _parent_frame(family, t, x, params):
    """The frame as ``WeightFamily.frame`` built it before frames took rho's jet
    from the point stage: rho's evaluators called directly, then the chain rule."""
    x = tuple(float(v) for v in np.atleast_1d(x))
    a, rho = multi_indices(family.n), family.rho
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    e = lambda alpha: float(rho._evaluator(alpha)(t, *xa, *rho.param_values))
    hess = np.zeros((a.n, a.n))
    for j in range(a.n):
        hess[j, j] = e(a.xx[j][j])
        for k in range(j + 1, a.n):
            hess[j, k] = hess[k, j] = e(a.xx[j][k])
    rho_jet = Jet2.make(
        e(a.zero), e(a.t), np.array([e(a.x[j]) for j in range(a.n)]), e(a.tt),
        np.array([e(a.tx[j]) for j in range(a.n)]), hess,
    )
    psi_jet = jet_exp(jet_scale(rho_jet, params.gamma))
    q_jet = Jet2.make(
        _q_partial(t, x, params.t0, params.x0, (0,) * (family.n + 1)),
        2.0 * (t - params.t0),
        2.0 * (np.array(x) - np.array(params.x0)),
        2.0,
        np.zeros(family.n),
        2.0 * np.eye(family.n),
    )
    phi_jet = jet_add(psi_jet, jet_scale(q_jet, -params.mu))
    ell_jet = jet_scale(phi_jet, params.lam)
    theta = math.exp(ell_jet.value)
    varrho_value = float(family.varrho_partials(t, x, [a.zero])[a.zero])
    lap_ell = float(np.trace(ell_jet.hess_xx))
    psi_val = psi_jet.value
    Psi = lap_ell - ell_jet.hess_tt + 2.0 * params.lam * params.gamma * psi_val * varrho_value + 6.0 * params.lam * params.mu
    return CarlemanFrame(psi_jet, phi_jet, ell_jet, theta, Psi)


def _frame_bits(value):
    if isinstance(value, (CarlemanFrame, Jet2)):
        return tuple((f.name, _frame_bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    return type(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_frames_from_rho_jet_equal_the_parent_frame_bit_for_bit(n):
    from carleman_lab.cli import _CASE_DRAWS, _draw_identity_case
    from carleman_lab.identities import identity_case

    u = uniform_stream(5, 30 * _CASE_DRAWS[n]).reshape(30, -1)
    vr_fn = make_fn("quadratic", n, c0=0.5, ct=0.3, qtt=0.2, cx1=-0.1, qx1=0.4)
    names = set()
    for i, row in enumerate(u):
        rho, varrho, w, params, t, x = _draw_identity_case(row, n)
        varrho = vr_fn if i % 2 else varrho
        family = WeightFamily(rho, varrho)
        want = _frame_bits(_parent_frame(family, t, x, params))
        # identity-check's route (the point stage's rho jet) and ucp-decay's (rho.jet2)
        assert _frame_bits(identity_case(w, family, params, t, x).frame) == want
        assert _frame_bits(_frame(rho, t, x, params, varrho)) == want
        # and the rho jets the two routes start from
        point_jet = Jet2.from_partials(family.point_stage(t, x, params)["rho"])
        assert _frame_bits(point_jet) == _frame_bits(rho.jet2(t, x))
        names.add(rho.name)
    assert names == {"trig_product", "quadratic", "affine"}


def test_weight_params_validation():
    with pytest.raises(ConfigurationError):
        WeightParams(lam=0.0, gamma=1.0, mu=0.0, t0=0.0, x0=(0.0,))
    with pytest.raises(ConfigurationError):
        WeightParams(lam=1.0, gamma=1.0, mu=-0.1, t0=0.0, x0=(0.0,))


# ---------------------------------------------------------------------------
# structure matrix
# ---------------------------------------------------------------------------


def test_build_M_derivative_free_level_function():
    jet = make_fn("char_linear", 1).jet2(0.0, [0.0])  # t - x
    m = build_M(jet, 2.0)
    assert np.allclose(m, [[-2.0, 0.0], [0.0, 2.0]], atol=0.0)


def test_build_M_quadratic_level_function():
    jet = make_fn("quadratic", 1, qtt=1.0, qx1=-1.0).jet2(0.3, [0.4])  # t^2/2 - x^2/2
    m = build_M(jet, 0.0)
    assert np.allclose(m, [[1.0, 0.0], [0.0, -1.0]], atol=0.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_build_M_shift_linearity(vr, c):
    jet = make_fn("trig_product", 1, amp=0.4).jet2(0.2, [0.3])
    m1 = build_M(jet, vr)
    m2 = build_M(jet, vr + c)
    shift = m2 - m1
    assert np.allclose(shift, np.diag([-c, c]), atol=1e-12 * max(1.0, abs(c)))


def test_jacobi_matches_numpy():
    u = uniform_stream(13, 18).reshape(2, 9)
    for row in u:
        a = row.reshape(3, 3)
        a = a + a.T
        ours = jacobi_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_jacobi_requires_exact_symmetry():
    with pytest.raises(ConfigurationError):
        jacobi_eigenvalues(np.array([[1.0, 2.0], [2.0000001, 1.0]]))


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------


def test_d1_vanishes_at_center(rho_trig, varrho_quad, params):
    dq = _point_D(rho_trig, params.t0, list(params.x0), params, varrho_quad)
    assert dq.d1 == pytest.approx(0.0, abs=1e-14)


def test_d2_zero_on_characteristic_level_set():
    # rho = t - x has rho_t^2 = |grad rho|^2 and a derivative-free jet, so both
    # d2 routes vanish identically for constant varrho
    rho = make_fn("char_linear", 1)
    for vr in (0.0, 1.3, -2.0):
        for gamma in (0.7, 2.0, 5.0):
            params = WeightParams(lam=2.0, gamma=gamma, mu=0.2, t0=0.0, x0=(0.0,))
            dq = _point_D(rho, 0.15, [0.35], params, vr)
            assert dq.d2_matrix == pytest.approx(0.0, abs=1e-12)
            assert dq.d2_divergence == pytest.approx(0.0, abs=1e-12)


def test_mu_zero_kills_d1_and_d3(rho_trig, varrho_quad):
    params = WeightParams(lam=2.0, gamma=1.5, mu=0.0, t0=0.0, x0=(0.0,))
    dq = _point_D(rho_trig, 0.25, [0.15], params, varrho_quad)
    assert dq.d1 == 0.0
    assert dq.d3 == 0.0


def test_d2_dual_forms_agree_500_samples():
    u = draw_uniform(17, 500 * 8).reshape(500, 8)
    worst = 0.0
    for row in u:
        gamma = 0.5 + 7.5 * row[0]
        amp = (0.05 + 0.15 * row[1]) / gamma
        rho = make_fn("trig_product", 1, amp=amp, wt=0.5 + row[2], wx1=0.5 + row[3], pt=row[4], px1=row[5])
        vr = -2.0 + 4.0 * row[6]
        params = WeightParams(lam=2.0, gamma=gamma, mu=0.3, t0=0.0, x0=(0.0,))
        t, x = 0.6 * (row[7] - 0.5), 0.3
        dq = _point_D(rho, t, [x], params, vr)
        denom = max(abs(dq.d2_matrix), abs(dq.d2_divergence))
        if denom > 0:
            worst = max(worst, abs(dq.d2_matrix - dq.d2_divergence) / denom)
    assert worst <= 1e-9


def test_quadratic_fit_recovers_leading_coefficient(rho_trig, varrho_quad, params):
    fam = WeightFamily(rho_trig, varrho_quad)
    lambdas = np.array([16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    t, x = 0.37, [0.51]
    a_vals = [float(fam.quantities(t, x, replace(params, lam=lv))["a"]) for lv in lambdas]
    q0 = fam.quantities(t, x, params)
    direct = float(q0["p"]) + float(q0["d1"])
    fit = float(npoly.polyfit(lambdas / 512.0, a_vals, 2)[2]) / 512.0**2
    assert abs(fit - direct) <= 1e-6 * abs(direct)


def test_cubic_fit_recovers_leading_coefficient(rho_trig, varrho_quad, params):
    fam = WeightFamily(rho_trig, varrho_quad)
    lambdas = np.array([16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    t, x = 0.37, [0.51]
    b_vals = [float(fam.quantities(t, x, replace(params, lam=lv))["b"]) for lv in lambdas]
    dq = _point_D(rho_trig, t, x, params, varrho_quad)
    direct = dq.d2_matrix + dq.d3
    fit = float(npoly.polyfit(lambdas / 512.0, b_vals, 3)[3]) / 512.0**3
    assert abs(fit - direct) <= 1e-5 * abs(direct)


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------


def _radial_jet_at_2_0():
    return make_fn("radial_norm", 2).jet2(0.0, [2.0, 0.0])


def test_psd_certificate_flat_graph():
    jet = make_fn("affine", 2, c0=0.0, ct=0.0, cx1=1.0, cx2=0.0).jet2(0.0, [0.5, 0.5])
    cert = psd_certificate(jet, seed=1, tangent_samples=50)
    assert cert.tau == 1.0
    assert cert.passed


def test_psd_certificate_radial_graph():
    jet = _radial_jet_at_2_0()
    assert np.allclose(sorted(np.linalg.eigvalsh(jet.hess_xx)), [0.0, 0.5], atol=1e-12)
    cert = psd_certificate(jet, seed=3, tangent_samples=50)
    assert cert.tau == 1.0
    assert cert.min_eigenvalue >= 1e-9
    assert cert.tangent_min_quadform >= -1e-9
    assert cert.tangent_checks == 50


def test_psd_certificate_doubling_hits_first_power_above_three():
    jet = Jet2.make(0.0, 0.0, [1.0, 0.0], 0.0, [0.0, 0.0], [[0.0, 0.0], [0.0, 3.0]])
    cert = psd_certificate(jet, seed=1, tangent_samples=50)
    assert cert.tau == 4.0
    # the floor check of the search, computed here: 4 is the first power of two it clears
    cleared = [float(jacobi_eigenvalues(np.eye(2) - jet.hess_xx / tau)[0]) >= EIG_FLOOR for tau in (1.0, 2.0, 4.0)]
    assert cleared == [False, False, True]


def test_psd_certificate_reverification_with_independent_eigensolver():
    jet = _radial_jet_at_2_0()
    cert = psd_certificate(jet, seed=5, tangent_samples=50)
    ref = float(np.linalg.eigvalsh(np.eye(2) - jet.hess_xx / cert.tau)[0])
    assert ref >= 1e-9
    assert abs(ref - cert.min_eigenvalue) <= 1e-12


def test_psd_certificate_requires_unit_gradient():
    jet = Jet2.make(0.0, 0.0, [2.0, 0.0], 0.0, [0.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(ConfigurationError, match="grad"):
        psd_certificate(jet, seed=0, tangent_samples=50)


# ---------------------------------------------------------------------------
# assumption presets
# ---------------------------------------------------------------------------


def _jet(rho_t, rho_tt, hess, grad_x=(0.0,), hess_tx=None):
    n = len(grad_x)
    return Jet2.make(0.0, rho_t, list(grad_x), rho_tt, hess_tx or [0.0] * n, hess)


def test_assumption_a21_zero_matrix_boundary_case_passes():
    # rho_tt = varrho and flat spatial curvature give the zero matrix
    jet = _jet(rho_t=1.0, rho_tt=1.0, hess=[[-1.0]])
    rep = assumption_check(jet, 1.0, "A2.1", c0=1.0, b1_norm=0.0)
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
    assert rep.passed


def test_assumption_a22_diagonal_arithmetic():
    # M(varrho) = 2 I and penalty 3 |rho_t| b1^2 = 1: min eigenvalue 1 > 0
    jet = _jet(rho_t=1.0, rho_tt=4.0, hess=[[0.0]])
    rep = assumption_check(jet, 2.0, "A2.2", c0=0.0, b1_norm=math.sqrt(1.0 / 3.0))
    assert rep.min_eigenvalue == pytest.approx(1.0, rel=1e-12)
    assert not rep.rho_t_required
    assert rep.passed


def test_assumption_a23_negative_eigenvalue_fails_with_report():
    jet = _jet(rho_t=1.0, rho_tt=0.0, hess=[[0.0]])  # M(1) = diag(-1, 1)
    rep = assumption_check(jet, 1.0, "A2.3", c0=0.5, b1_norm=0.0)
    assert rep.min_eigenvalue == pytest.approx(-1.0, rel=1e-12)
    assert not rep.matrix_ok
    assert not rep.passed
    assert rep.rho_t_ok


def test_assumption_c0_flag():
    jet = _jet(rho_t=0.2, rho_tt=3.0, hess=[[1.0]])
    rep = assumption_check(jet, 1.0, "A2.1", c0=1.0, b1_norm=0.0)
    assert not rep.rho_t_ok and not rep.passed
    assert rep.matrix_ok


def test_assumption_unknown_preset():
    jet = _jet(1.0, 0.0, [[0.0]])
    with pytest.raises(ConfigurationError):
        assumption_check(jet, 0.0, "A9.9", c0=0.0, b1_norm=0.0)
    assert set(ASSUMPTION_PRESETS) == {"A2.1", "A2.2", "A2.3"}

