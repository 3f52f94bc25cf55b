import math
from dataclasses import replace

import numpy as np
import pytest

from carleman_lab.fields import Jet2, make_fn, make_grid, multi_indices
from carleman_lab.weights import CarlemanFrame, PsiDerivatives, WeightFamily, WeightParams, eval_VN
from carleman_lab.identities import (
    CutoffSpec,
    RegionSpec,
    StatisticsError,
    SupportError,
    assemble,
    conjugation_residual,
    identity_case,
    inequality_gap,
    qv_check,
)
from carleman_lab import solver as S

from conftest import W_SMOOTH, draw_uniform


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------


def test_cutoff_flat_outside_band():
    cut = CutoffSpec(c2=0.5, eps=0.3)
    assert cut.chi(0.4) == 0.0 and cut.chi_d1(0.4) == 0.0 and cut.chi_d2(0.4) == 0.0
    assert cut.chi(0.9) == 1.0 and cut.chi_d1(0.9) == 0.0 and cut.chi_d2(0.9) == 0.0
    mid = cut.chi(0.65)
    assert 0.0 < mid < 1.0


def test_cutoff_c2_matching_and_derivative_maxima():
    cut = CutoffSpec(c2=0.5, eps=0.2)
    s = np.linspace(0.5, 0.7, 2001)
    d1 = cut.chi_d1(s)
    d2 = cut.chi_d2(s)
    # max |chi'| and max |chi''| of the smoothstep over the band, in phi units
    m1, m2 = 1.875 / cut.eps, (10.0 / math.sqrt(3.0)) / cut.eps**2
    assert np.max(np.abs(d1)) <= m1 * (1 + 1e-9)
    assert np.max(np.abs(d2)) <= m2 * (1 + 1e-9)
    # C^2 at both seams: derivatives decay to zero at the ends
    assert abs(cut.chi_d1(0.5 + 1e-9)) < 1e-6
    assert abs(cut.chi_d2(0.7 - 1e-7)) < 1e-2 * m2


def test_cutoff_validation():
    with pytest.raises(Exception):
        CutoffSpec(c2=1.5, eps=0.1)
    with pytest.raises(Exception):
        CutoffSpec(c2=0.5, eps=0.0)


# ---------------------------------------------------------------------------
# pointwise identity
# ---------------------------------------------------------------------------


def test_identity_zero_w_is_exactly_zero(family, params):
    wz = make_fn("quadratic", 1, c0=0.0, ct=0.0, qtt=0.0, cx1=0.0, qx1=0.0)
    rep = identity_case(wz, family, params, 0.3, [0.4]).report
    assert rep.relative_residual == 0.0 and rep.lhs == 0.0 and rep.rhs == 0.0


def test_identity_constant_w_at_flat_weight_point():
    # with grad ell = ell_t = 0 at the point, only the weight bookkeeping acts
    rho = make_fn("quadratic", 1, c0=0.0, ct=0.0, qtt=0.5, cx1=0.0, qx1=0.5)
    params = WeightParams(lam=2.0, gamma=1.0, mu=0.0, t0=0.0, x0=(0.0,))
    fam = WeightFamily(rho, 0.3)
    w1 = make_fn("quadratic", 1, c0=1.0, ct=0.0, qtt=0.0, cx1=0.0, qx1=0.0)
    fr = CarlemanFrame.make(0.0, [0.0], rho.jet2(0.0, [0.0]), params, 0.3)
    assert abs(fr.ell_jet.grad_t) < 1e-14 and abs(fr.ell_jet.grad_x[0]) < 1e-14
    rep = identity_case(w1, fam, params, 0.0, [0.0]).report
    assert rep.relative_residual <= 1e-9


def test_identity_200_random_cases(family, params):
    u = draw_uniform(23, 200 * 6).reshape(200, 6)
    worst = 0.0
    for row in u:
        pp = WeightParams(
            lam=1.0 + 15.0 * row[0],
            gamma=1.0 + 3.0 * row[1],
            mu=row[2],
            t0=0.4 * (row[3] - 0.5),
            x0=(0.4 * (row[4] - 0.5),),
        )
        w = make_fn("exp_quadratic", 1, **dict(W_SMOOTH, amp=0.5 + row[5]))
        rep = identity_case(w, family, pp, 0.6 * (row[0] - 0.5), [0.6 * (row[1] - 0.5)]).report
        worst = max(worst, rep.relative_residual)
    assert worst <= 1e-8


def test_identity_both_sides_nontrivial(family, params, w_smooth):
    rep = identity_case(w_smooth, family, params, 0.37, [0.51]).report
    assert abs(rep.lhs) > 1.0
    assert rep.relative_residual <= 1e-12


def test_quadratic_term_regrouping(family, params, w_smooth):
    # the four derivative terms regroup exactly into the characteristic square
    # plus the structure-matrix form plus the mu terms
    out = assemble(family, params, 0.37, [0.51], w_smooth)
    lhs = float(out["e_terms"])
    rhs = float(out["qf_char"] + out["qf_mat"] + out["mu_terms"])
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_identity_in_two_dimensions():
    rho = make_fn("trig_product", 2, amp=0.1, wt=1.2, wx1=0.8, wx2=0.6, pt=0.1, px1=0.3, px2=0.15)
    w = make_fn("exp_quadratic", 2, amp=1.1, att=-0.3, bt=0.1, ax1=-0.2, ax2=-0.25, bx1=0.1, bx2=-0.05)
    fam = WeightFamily(rho, 0.7)
    params = WeightParams(lam=2.0, gamma=1.3, mu=0.2, t0=0.0, x0=(0.1, -0.2))
    rep = identity_case(w, fam, params, 0.3, [0.4, 0.25]).report
    assert rep.relative_residual <= 1e-12


# ---------------------------------------------------------------------------
# flux vector and time density
# ---------------------------------------------------------------------------


def test_eval_vn_zero_for_zero_v(family, params):
    fr = CarlemanFrame.make(0.3, [0.4], family.rho.jet2(0.3, [0.4]), params, family.varrho.value(0.3, [0.4]))
    v = Jet2.make(0.0, 0.0, [0.0], 0.0, [0.0], [[0.0]])
    psi_d = PsiDerivatives(value=fr.Psi, grad_t=0.3, grad_x=np.array([0.2]))
    V, N = eval_VN(v, fr, psi_d, a=1.0)
    assert np.all(V == 0.0) and N == 0.0


def test_eval_vn_zero_weight_factors():
    # grad ell = ell_t = 0 and Psi = 0 kill every flux term
    rho = make_fn("quadratic", 1, c0=0.0, ct=0.0, qtt=0.5, cx1=0.0, qx1=0.5)
    params = WeightParams(lam=2.0, gamma=1.0, mu=0.0, t0=0.0, x0=(0.0,))
    fr = CarlemanFrame.make(0.0, [0.0], rho.jet2(0.0, [0.0]), params, 0.0)
    v = Jet2.make(1.2, 0.7, [0.4], 0.1, [0.2], [[0.3]])
    psi_d = PsiDerivatives(value=0.0, grad_t=0.0, grad_x=np.array([0.0]))
    V, _ = eval_VN(v, fr, psi_d, a=0.0)
    assert np.allclose(V, 0.0, atol=1e-14)


def test_vn_time_derivative_consistent_with_assembly(family, params, w_smooth):
    # finite difference of the pointwise time density against the assembled dt_N
    h = 1e-5
    n_plus = identity_case(w_smooth, family, params, 0.37 + h, [0.51]).N
    n_minus = identity_case(w_smooth, family, params, 0.37 - h, [0.51]).N
    out = assemble(family, params, 0.37, [0.51], w_smooth)
    fd = (n_plus - n_minus) / (2 * h)
    assert abs(fd - float(out["dt_N"])) <= 1e-6 * max(1.0, abs(fd))


def test_vn_divergence_consistent_with_assembly(family, params, w_smooth):
    h = 1e-5
    v_plus = identity_case(w_smooth, family, params, 0.37, [0.51 + h]).V
    v_minus = identity_case(w_smooth, family, params, 0.37, [0.51 - h]).V
    out = assemble(family, params, 0.37, [0.51], w_smooth)
    fd = (v_plus[0] - v_minus[0]) / (2 * h)
    assert abs(fd - float(out["div_V"])) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# conjugation and cutoff identities
# ---------------------------------------------------------------------------


def _transition_setup():
    rho = make_fn("trig_product", 1, amp=0.08, wt=1.1, wx1=0.9, pt=0.2, px1=0.4)
    fam = WeightFamily(rho, 0.4)
    cutoff = CutoffSpec(c2=0.5, eps=0.3)
    return rho, fam, cutoff


def test_conjugation_chi_one_region(w_smooth):
    rho, fam, cutoff = _transition_setup()
    params = WeightParams(lam=2.0, gamma=1.5, mu=0.0, t0=0.0, x0=(0.0,))
    # phi = psi ~ 1 > c2 + eps: chi is identically one there
    conj, cut = conjugation_residual(w_smooth, fam, params, cutoff, 0.1, [0.1])
    assert cut.relative_residual == 0.0
    assert conj.relative_residual <= 1e-12


def test_cutoff_chi_zero_region(w_smooth):
    rho, fam, cutoff = _transition_setup()
    # mu large pushes phi below c2: chi and all its derivatives vanish
    params = WeightParams(lam=2.0, gamma=1.5, mu=3.0, t0=0.0, x0=(0.0,))
    out = assemble(fam, params, 0.5, [0.45], w_smooth, cutoff=cutoff)
    assert float(out["quant"]["phi"]) < cutoff.c2
    assert float(out["w"]["v"]) == 0.0 and float(out["w"]["tt"]) == 0.0


def test_conjugation_and_cutoff_random_transition_points(w_smooth):
    rho, fam, cutoff = _transition_setup()
    u = draw_uniform(29, 100 * 4).reshape(100, 4)
    worst = 0.0
    found = 0
    for row in u:
        t, x = 0.5 * (row[0] - 0.5), 0.5 * (row[1] - 0.5)
        psi = float(fam.quantities(t, [x], WeightParams(lam=1.0, gamma=1.5, mu=0.0, t0=0.0, x0=(0.0,)))["phi"])
        q = t**2 + x**2
        target = cutoff.c2 + (0.2 + 0.6 * row[2]) * cutoff.eps
        if q < 1e-8 or psi <= target:
            continue
        params = WeightParams(lam=1.0 + 3.0 * row[3], gamma=1.5, mu=(psi - target) / q, t0=0.0, x0=(0.0,))
        conj, cut = conjugation_residual(w_smooth, fam, params, cutoff, t, [x])
        worst = max(worst, conj.relative_residual, cut.relative_residual)
        found += 1
    assert found >= 50
    assert worst <= 1e-8


def _parent_lambda_free(family, params, t, xs, u_fn, cutoff=None):
    """``lambda_free`` as it was before a point stayed on Python floats: every
    coordinate became a float array, a 0-d one at a point."""
    from carleman_lab.identities import LambdaFree, _w_derivatives

    t = np.asarray(t, dtype=float)
    xs = [np.asarray(v, dtype=float) for v in xs]
    point = family.point_stage(t, xs, params)
    return LambdaFree(point, *_w_derivatives(u_fn, cutoff, point, params.mu, t, xs, family.n))


def _leaves(value, path=()):
    """(path, bits) of every number in a nested assembly, in order."""
    if isinstance(value, dict):
        return [leaf for k, v in value.items() for leaf in _leaves(v, path + (k,))]
    if isinstance(value, (list, tuple)):
        return [leaf for k, v in enumerate(value) for leaf in _leaves(v, path + (k,))]
    return [(path, None if value is None else np.asarray(value, dtype=float).tobytes())]


@pytest.mark.parametrize("with_cutoff", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_assemble_at_a_float_point_equals_the_zero_d_array_route(n, with_cutoff):
    from carleman_lab.cli import _CASE_DRAWS, _draw_identity_case, _stream
    from carleman_lab.identities import lambda_free

    checked = 0
    for row in _stream(3, 30 * _CASE_DRAWS[n], tag=1).reshape(30, -1):
        rho, varrho, w, params, t, x = _draw_identity_case(row, n)
        fam, cutoff = WeightFamily(rho, varrho), None
        if with_cutoff:
            # a band around phi, so that chi and both of its derivatives are nonzero at the point
            phi = fam.phi(t, x, params)
            if not 0.3 < phi < 1.2:
                continue
            cutoff = CutoffSpec(c2=phi - 0.25, eps=0.5)
        assert type(lambda_free(fam, params, t, x, w, cutoff).point["d1"]) is float
        got = assemble(fam, params, t, x, w, cutoff=cutoff)
        want = assemble(fam, params, t, x, w, cutoff=cutoff, base=_parent_lambda_free(fam, params, t, x, w, cutoff))
        assert _leaves(got) == _leaves(want)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# quadratic variation bookkeeping
# ---------------------------------------------------------------------------


def _qv_grid():
    return make_grid([(-1.0, 1.0)], dx=0.05, dt=2e-4, t_max=0.02)


def _qv(grid, co, u0, paths, seed, family=None, params=None):
    """``qv_check`` of u0 sampled at the nodes under the samplers of ``co``."""
    return qv_check(grid, S.make_samplers(co, grid), grid.sample(u0, 0.0), None, paths, seed, family, params)


def test_qv_zero_noise_is_exact_zero():
    grid = _qv_grid()
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.3)
    rep = _qv(grid, S.Coefficients(), u0, paths=100, seed=1)
    assert rep.empirical == 0.0 and rep.predicted == 0.0 and rep.relative_error == 0.0


def test_qv_matches_compensator():
    grid = _qv_grid()
    u0 = make_fn("standing_wave", 1)
    rep = _qv(grid, S.Coefficients(b1=0.2, b2=1.0), u0, paths=100, seed=2)
    assert rep.relative_error <= 0.05


def test_qv_frozen_coefficient_oracle():
    # b1 = 0, b2 = 1 over a short horizon: QV is close to int u0^2 dt
    grid = make_grid([(-1.0, 1.0)], dx=0.05, dt=1e-4, t_max=0.01)
    u0 = make_fn("standing_wave", 1)
    rep = _qv(grid, S.Coefficients(b2=1.0), u0, paths=120, seed=3)
    mesh = grid.meshgrid()
    u0_sq = np.asarray(u0.d(np.zeros(grid.shape), list(mesh), (0, 0)), dtype=float) ** 2
    frozen = float(np.sum(u0_sq)) * grid.cell_volume * grid.t_max
    assert abs(rep.empirical - frozen) <= 0.10 * frozen


def test_qv_standard_error_halves_with_doubled_paths():
    grid = make_grid([(-1.0, 1.0)], dx=0.1, dt=5e-4, t_max=0.05)
    u0 = make_fn("standing_wave", 1)
    co = S.Coefficients(b1=0.5, b2=0.5)
    rep1 = _qv(grid, co, u0, paths=100, seed=4)
    rep2 = _qv(grid, co, u0, paths=400, seed=4)
    ratio = rep1.standard_error / rep2.standard_error
    assert 1.2 <= ratio / math.sqrt(2.0) * math.sqrt(2.0) <= 2.8  # se(100)/se(400) ~ 2
    # and the documented halved-paths factor band
    rep_half = _qv(grid, co, u0, paths=200, seed=4)
    assert 1.2 <= rep1.standard_error / rep_half.standard_error <= 1.8


def test_qv_weighted_by_theta():
    grid = _qv_grid()
    rho = make_fn("char_linear", 1)
    fam = WeightFamily(rho)
    params = WeightParams(lam=0.5, gamma=1.0, mu=0.0, t0=0.0, x0=(0.0,))
    u0 = make_fn("standing_wave", 1)
    rep = _qv(grid, S.Coefficients(b1=0.2, b2=1.0), u0, paths=100, seed=5, family=fam, params=params)
    assert rep.relative_error <= 0.05
    assert rep.predicted > 0.0


def test_qv_requires_enough_paths():
    grid = _qv_grid()
    u0 = make_fn("standing_wave", 1)
    with pytest.raises(StatisticsError):
        _qv(grid, S.Coefficients(b1=0.2), u0, paths=10, seed=1)


# ---------------------------------------------------------------------------
# inequality scans
# ---------------------------------------------------------------------------


def _t42_setup(lambdas=(8.0, 16.0, 32.0, 64.0)):
    rho = make_fn("char_linear", 1)
    fam = WeightFamily(rho, 0.0)
    u_fn = make_fn("bump4", 1, amp=1.0, tc=0.0, rt=0.024, cx1=0.06, rx1=0.024)
    params = WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0,))
    region = RegionSpec(t_lo=-0.08, t_hi=0.08, nt=81, x_lo=(-0.02,), x_hi=(0.15,), nx=87)
    cutoff = CutoffSpec(c2=0.65, eps=0.1)
    return fam, u_fn, params, list(lambdas), region, cutoff


# the scan options at the values the inequality-scan subcommand takes when its config omits them
_SCAN_OPTIONS = dict(cutoff=None, c0=1.0, c1=1.0, b1=1.0, b2=0.0, paths=0, seed=0)


def _gap(preset, u_fn, fam, params, lambdas, region, **options):
    """``inequality_gap`` with each option not given at ``_SCAN_OPTIONS``."""
    return inequality_gap(preset, u_fn, fam, params, lambdas, region, **{**_SCAN_OPTIONS, **options})


def test_gap_zero_for_zero_field():
    fam, _, params, lambdas, region, cutoff = _t42_setup()
    zero = make_fn("bump4", 1, amp=0.0, tc=0.0, rt=0.024, cx1=0.06, rx1=0.024)
    scan = _gap("T4.2", zero, fam, params, lambdas, region, cutoff=cutoff)
    assert all(r.gap_scaled == 0.0 for r in scan.rows)


def test_gap_t42_nonnegative_and_monotone():
    fam, u_fn, params, lambdas, region, cutoff = _t42_setup()
    scan = _gap("T4.2", u_fn, fam, params, lambdas, region, cutoff=cutoff, c0=1.0, c1=1.0, b1=1.0)
    gaps = [r.gap for r in scan.rows]
    assert all(g >= 0.0 for g in gaps)
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))
    assert scan.margins["vt_margin"] > 0.0
    assert scan.margins["v_margin"] > 0.0
    assert scan.margins["structure_min_eig"] >= 0.0


def test_gap_quadratic_homogeneity_exact():
    fam, u_fn, params, lambdas, region, cutoff = _t42_setup(lambdas=(8.0,))
    scan = _gap("T4.2", u_fn, fam, params, lambdas, region, cutoff=cutoff)
    expect, actual = scan.homogeneity_pair
    assert abs(actual - expect) <= 1e-10 * abs(expect)


def test_gap_t32_remainder_is_subcubic():
    fam, u_fn, params, _, region, cutoff = _t42_setup()
    fam = WeightFamily(make_fn("char_linear", 1), 0.3)
    scan = _gap("T3.2", u_fn, fam, replace(params, mu=0.2), [8.0, 16.0, 32.0, 64.0], region, cutoff=cutoff)
    # the remainder is O(lam^2): dividing by lam^3 must vanish as lam grows
    ratios = [abs(r.gap_scaled) / r.lam**3 for r in scan.rows]
    assert ratios[-1] <= 0.5 * ratios[0]
    # the exact identity backs every row: both sides integrated on the scan's mesh at its lam
    T, Xs = region.mesh()
    for r in scan.rows:
        out = assemble(fam, replace(params, mu=0.2, lam=r.lam), T, Xs, u_fn, cutoff=cutoff)
        lhs, rhs = float(np.sum(out["identity_lhs"])), float(np.sum(out["identity_rhs"]))
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs), abs(rhs))


def test_gap_t51_runs_and_reports_margins():
    rho = make_fn("quadratic", 1, c0=0.0, ct=1.0, qtt=3.0, cx1=-1.0, qx1=1.0)
    fam = WeightFamily(rho, 1.5)
    u_fn = make_fn("bump4", 1, amp=1.0, tc=0.0, rt=0.02, cx1=0.08, rx1=0.02)
    params = WeightParams(lam=8.0, gamma=1.0, mu=0.05, t0=0.0, x0=(0.0,))
    region = RegionSpec(t_lo=-0.06, t_hi=0.06, nt=61, x_lo=(0.0,), x_hi=(0.16,), nx=81)
    scan = _gap("T5.1", u_fn, fam, params, [8.0, 16.0], region, c1=0.5, b1=0.5)
    assert len(scan.rows) == 2
    assert all(np.isfinite(r.gap_scaled) for r in scan.rows)


def test_gap_t62_cone_preset_positive():
    alpha = 0.9
    rho = make_fn("cone_level", 1, a=alpha, t0=0.0, cx1=0.0)
    fam = WeightFamily(rho, 2.0)
    u_fn = make_fn("bump4", 1, amp=1.0, tc=3.2, rt=0.15, cx1=0.0, rx1=0.15)
    params = WeightParams(lam=8.0, gamma=1.0, mu=0.0, t0=0.0, x0=(0.0,))
    region = RegionSpec(t_lo=2.9, t_hi=3.5, nt=61, x_lo=(-0.35,), x_hi=(0.35,), nx=71)
    scan = _gap("T6.2", u_fn, fam, params, [8.0, 16.0], region, c1=4.0, b1=4.0)
    assert all(r.gap_scaled > 0.0 for r in scan.rows)


def test_gap_t62_rejects_nonzero_mu():
    fam, u_fn, params, lambdas, region, cutoff = _t42_setup()
    with pytest.raises(Exception, match="mu"):
        _gap("T6.2", u_fn, fam, params, lambdas, region)


def test_gap_support_error_when_bump_touches_boundary():
    fam, _, params, lambdas, _, cutoff = _t42_setup()
    u_fn = make_fn("bump4", 1, amp=1.0, tc=0.0, rt=0.5, cx1=0.06, rx1=0.5)
    region = RegionSpec(t_lo=-0.08, t_hi=0.08, nt=41, x_lo=(-0.02,), x_hi=(0.15,), nx=41)
    with pytest.raises(SupportError):
        _gap("T4.2", u_fn, fam, params, lambdas, region, cutoff=cutoff)


def test_gap_monte_carlo_mode_close_to_surrogate():
    fam, u_fn, params, _, region, cutoff = _t42_setup()
    det = _gap("T4.2", u_fn, fam, params, [8.0], region, cutoff=cutoff)
    mc = _gap("T4.2", u_fn, fam, params, [8.0], region, cutoff=cutoff, paths=160, seed=9)
    d, m = det.rows[0].components["qv"], mc.rows[0].components["qv"]
    assert abs(m - d) <= 0.25 * abs(d)
    assert mc.rows[0].gap_scaled >= 0.0


def _record_calls(monkeypatch, name) -> list:
    """Wrap identities.<name> so every call appends its keyword arguments."""
    from carleman_lab import identities

    calls = []
    original = getattr(identities, name)

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, name, recording)
    return calls


def test_gap_takes_one_first_order_pass_per_lambda_plus_the_doubled_field(monkeypatch):
    from carleman_lab import identities
    from carleman_lab.weights import PointStage

    assembled = _record_calls(monkeypatch, "assemble")
    passes = []
    original = identities._first_order

    def recording(point, stage, params, th, w):
        out = original(point, stage, params, th, w)
        passes.append((params.lam, w["v"], out))
        return out

    monkeypatch.setattr(identities, "_first_order", recording)
    stages = []
    original_stage = PointStage.lambda_stage

    def recording_stage(self, lam):
        stages.append(lam)
        return original_stage(self, lam)

    monkeypatch.setattr(PointStage, "lambda_stage", recording_stage)
    fam, u_fn, params, lambdas, region, cutoff = _t42_setup()
    _gap("T4.2", u_fn, fam, params, lambdas, region, cutoff=cutoff)
    assert len(lambdas) == 4 and assembled == []
    # one lam stage per lam; the doubled field reuses the first lam's stage
    assert stages == lambdas
    assert [lam for lam, _, _ in passes] == lambdas[:1] + lambdas
    # the second pass takes w doubled, and no pass forms a second-order jet of v
    assert np.array_equal(passes[1][1], 2.0 * passes[0][1])
    assert all(not {"vtt", "vtx", "vxx"} & out.keys() for _, _, out in passes)


def test_inequality_gap_builds_the_lambda_free_stage_once(monkeypatch):
    w_calls = _record_calls(monkeypatch, "_w_derivatives")
    fam, u_fn, params, lambdas, region, cutoff = _t42_setup()
    _gap("T4.2", u_fn, fam, params, lambdas, region, cutoff=cutoff)
    # five first-order passes (four lambdas and the doubled field) share one lam-free part
    assert len(w_calls) == 1


def _structure_min_eig_per_node(point, params, vr, support_mask) -> float:
    """The per-node loop _structure_min_eig replaced: one matrix and one Jacobi solve per node."""
    from carleman_lab.identities import multi_indices
    from carleman_lab.weights import jacobi_eigenvalues

    n = len(point.xs)
    A = multi_indices(n)
    rj, psi0 = point["rho"], point["psi"][A.zero]
    idx = np.argwhere(support_mask)
    worst = math.inf
    for flat in idx[:: max(1, len(idx) // 2000)]:
        sel = tuple(flat)
        m = np.zeros((1 + n, 1 + n))
        m[0, 0] = rj[A.tt][sel] - vr[sel]
        for j in range(n):
            m[0, 1 + j] = m[1 + j, 0] = -rj[A.tx[j]][sel]
            for k in range(j, n):
                m[1 + j, 1 + k] = m[1 + k, 1 + j] = rj[A.xx[j][k]][sel] + (vr[sel] if j == k else 0.0)
        scaled = 2.0 * params.gamma * psi0[sel] * m + params.mu * np.eye(1 + n)
        worst = min(worst, float(jacobi_eigenvalues(scaled)[0]))
    return worst


@pytest.mark.parametrize("n", [1, 2])
def test_structure_min_eig_equals_the_per_node_loop(n, varrho_quad):
    from carleman_lab.identities import _structure_min_eig, lambda_free

    # rho's jets vary from node to node, so the matrices do too
    rho = make_fn("trig_product", n, amp=0.1, wt=1.1, wx1=0.9, pt=0.2, px1=0.4)
    fam = WeightFamily(rho, varrho_quad if n == 1 else 0.8)
    params = WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0,) * n)
    region = RegionSpec(t_lo=-0.1, t_hi=0.1, nt=21 if n == 1 else 9, x_lo=(-0.1,) * n, x_hi=(0.1,) * n, nx=41 if n == 1 else 11)
    T, Xs = region.mesh()
    base = lambda_free(fam, params, T, Xs, make_fn("exp_quadratic", n))
    zero = multi_indices(n).zero
    vr = np.broadcast_to(fam.varrho_partials(T, Xs, [zero])[zero], T.shape)
    mask = np.abs(base.w["v"]) > 0.0
    want = _structure_min_eig_per_node(base.point, params, vr, mask)
    assert np.asarray(_structure_min_eig(base.point, params, vr, mask)).tobytes() == np.asarray(want).tobytes()


def test_gap_samples_each_brownian_path_once(monkeypatch):
    calls = _record_calls(monkeypatch, "sample_brownian")
    fam, u_fn, params, _, region, cutoff = _t42_setup()
    _gap("T4.2", u_fn, fam, params, [8.0, 16.0], region, cutoff=cutoff, paths=7, seed=3)
    assert [c["stream"] for c in calls] == list(range(7))
