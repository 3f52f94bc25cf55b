"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with `pytest -s` or `-v` to
see them); tolerances are pinned here, not configurable.
"""

import csv
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly

from carleman_lab.fields import make_fn, make_grid, sample_brownian, uniform_stream
from carleman_lab.weights import (
    EIG_FLOOR,
    WeightFamily,
    WeightParams,
    eval_D,
    jacobi_eigenvalues,
    psd_certificate,
)
from carleman_lab.identities import (
    CutoffSpec,
    RegionSpec,
    conjugation_residual,
    identity_case,
    inequality_gap,
)
from carleman_lab import solver as S
from carleman_lab.propagation import SupportSet, run_propagation
from carleman_lab.cones import ConeSpec, c3_constant, membership, vertex
from carleman_lab.cli import run as cli_run

from oracles import leapfrog_reference, scalar_noise_second_moment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def _ok(k, name, detail):
    print(f"ACCEPTANCE {k} {name}: PASS ({detail})")


def _random_case(row, n=1):
    gamma = 1.0 + 3.0 * row[0]
    lam = 1.0 + 15.0 * row[1]
    mu = row[2]
    amp = (0.05 + 0.15 * row[3]) / gamma
    rho = make_fn("trig_product", 1, amp=amp, wt=0.5 + row[4], wx1=0.5 + row[5], pt=row[6], px1=row[7])
    w = make_fn(
        "exp_quadratic", 1,
        amp=0.5 + 1.5 * row[8], att=-0.5 + 0.8 * row[9], bt=-0.3 + 0.6 * row[10],
        ax1=-0.5 + 0.8 * row[11], bx1=-0.3 + 0.6 * row[12],
    )
    varrho = -2.0 + 4.0 * row[13]
    params = WeightParams(
        lam=lam, gamma=gamma, mu=mu, t0=0.4 * (row[14] - 0.5), x0=(0.4 * (row[15] - 0.5),)
    )
    t, x = 0.6 * (row[16] - 0.5), 0.6 * (row[17] - 0.5)
    return rho, varrho, w, params, t, x


def test_criterion_1_pointwise_identity_200_cases():
    started = time.perf_counter()
    u = uniform_stream(101, 200 * 18).reshape(200, 18)
    worst = 0.0
    for row in u:
        rho, varrho, w, params, t, x = _random_case(row)
        fam = WeightFamily(rho, varrho)
        rep = identity_case(w, fam, params, t, [x]).report
        worst = max(worst, rep.relative_residual)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed <= 10.0
    _ok(1, "pointwise identity", f"max rel residual {worst:.3e} in {elapsed:.2f}s")


def test_criterion_2_d2_dual_forms_500_samples():
    u = uniform_stream(103, 500 * 18).reshape(500, 18)
    worst = 0.0
    for row in u:
        rho, varrho, _, params, t, x = _random_case(row)
        params = replace(params, gamma=0.5 + 7.5 * row[0])
        dq = eval_D(WeightFamily(rho, varrho).point_stage(t, [x], params))
        denom = max(abs(dq.d2_matrix), abs(dq.d2_divergence))
        if denom > 0.0:
            worst = max(worst, abs(dq.d2_matrix - dq.d2_divergence) / denom)
    assert worst <= 1e-9
    _ok(2, "d2 dual-form equivalence", f"max rel disagreement {worst:.3e}")


def test_criterion_3_lambda_expansion_coefficients():
    u = uniform_stream(105, 50 * 18).reshape(50, 18)
    lambdas = np.array([16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    worst_a = worst_b = 0.0
    for row in u:
        rho, varrho, _, params, t, x = _random_case(row)
        fam = WeightFamily(rho, varrho)
        a_vals = [float(fam.quantities(t, [x], replace(params, lam=lv))["a"]) for lv in lambdas]
        b_vals = [float(fam.quantities(t, [x], replace(params, lam=lv))["b"]) for lv in lambdas]
        q0 = fam.quantities(t, [x], params)
        dq = eval_D(fam.point_stage(t, [x], params))
        a_direct = float(q0["p"]) + dq.d1
        b_direct = dq.d2_matrix + dq.d3
        a_fit = float(npoly.polyfit(lambdas / 512.0, a_vals, 2)[2]) / 512.0**2
        b_fit = float(npoly.polyfit(lambdas / 512.0, b_vals, 3)[3]) / 512.0**3
        worst_a = max(worst_a, abs(a_fit - a_direct) / max(1e-300, abs(a_direct)))
        worst_b = max(worst_b, abs(b_fit - b_direct) / max(1e-300, abs(b_direct)))
    assert worst_a <= 1e-6
    assert worst_b <= 1e-5
    _ok(3, "expansion coefficients", f"quadratic {worst_a:.3e}, cubic {worst_b:.3e}")


def test_criterion_4_conjugation_and_cutoff_identities():
    cutoff = CutoffSpec(c2=0.5, eps=0.3)
    u = uniform_stream(107, 400 * 19).reshape(400, 19)
    worst = 0.0
    found = 0
    for row in u:
        rho, varrho, w, params, t, x = _random_case(row[:18])
        fam = WeightFamily(rho, varrho)
        psi = float(fam.quantities(t, [x], replace(params, mu=0.0))["phi"])
        q = (t - params.t0) ** 2 + (x - params.x0[0]) ** 2
        target = cutoff.c2 + (0.15 + 0.7 * row[18]) * cutoff.eps
        if q < 1e-8 or psi <= target or (psi - target) / q > 4.0:
            continue
        params = replace(params, mu=(psi - target) / q)
        conj, cut = conjugation_residual(w, fam, params, cutoff, t, [x])
        worst = max(worst, conj.relative_residual, cut.relative_residual)
        found += 1
        if found == 100:
            break
    assert found == 100
    assert worst <= 1e-8
    _ok(4, "conjugation and cutoff identities", f"max rel residual {worst:.3e} on {found} points")


def test_criterion_5_psd_certificate_radial_graph():
    g = make_fn("radial_norm", 2)
    jet = g.jet2(0.0, [2.0, 0.0])
    # tau at or below one half fails the floor; tau = 1 clears it
    assert float(jacobi_eigenvalues(np.eye(2) - jet.hess_xx / 0.5)[0]) < EIG_FLOOR
    cert = psd_certificate(jet, seed=11, tangent_samples=50)
    assert cert.tau == 1.0
    assert cert.min_eigenvalue >= 1e-9
    assert cert.tangent_checks == 50
    assert cert.tangent_min_quadform >= -1e-9
    _ok(5, "psd certificate", f"tau {cert.tau}, min eig {cert.min_eigenvalue:.3e}, tangent {cert.tangent_min_quadform:.3e}")


def test_criterion_6_cone_geometry():
    assert c3_constant(0.5, 1.0) == 4097.0
    alpha, c1 = 0.5, 1.0
    c3 = 4097.0
    x0 = np.array([0.0])
    x1 = np.array([2.0 * math.sqrt(c3)])
    t2, x2 = vertex(0.0, x0, x1, alpha, c3)
    r1 = alpha * t2**2 - float((x2[0] - x0[0]) ** 2)
    r2 = 0.5 * alpha * t2**2 - float((x2[0] - x1[0]) ** 2) - c3
    scale = max(1.0, alpha * t2**2, c3)
    assert abs(r1) <= 1e-9 * scale and abs(r2) <= 1e-9 * scale
    q0 = ConeSpec("Q0", 0.0, tuple(x0), alpha, 0.0)
    q1 = ConeSpec("Q1", 0.0, tuple(x1), alpha, c3)
    kmax = math.sqrt(1.5) - 1.0
    draws = uniform_stream(109, 20)
    for uval in draws:
        ktilde = (2.0 * uval - 1.0) * 0.98 * kmax
        x = x1 + ktilde * (x0 - x1)
        assert membership(t2, x, q1) == "inside"
        assert membership(t2, x, q0) == "outside"
    _ok(6, "cone geometry", f"c3 4097 exact, vertex residuals ({r1:.2e}, {r2:.2e}), 20 witnesses")


def test_criterion_7_finite_propagation_speed_monte_carlo():
    started = time.perf_counter()
    grid = make_grid([(-1.5, 1.5)], dx=0.005, dt=0.0025, t_max=0.5)
    support = SupportSet(balls=(((0.0,), 0.2),))
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    trace = run_propagation(
        grid, support, grid.sample(u0, 0.0), None, S.make_samplers(S.Coefficients(b1=0.5), grid),
        paths=200, seed=0, stride=None, halo_cells=3,
    )
    elapsed = time.perf_counter() - started
    ratio = float(np.max(trace.outside_mean)) / trace.total_initial
    assert ratio <= 1e-6
    assert elapsed <= 120.0
    _ok(7, "finite propagation speed", f"outside/initial {ratio:.3e} over 200 paths in {elapsed:.1f}s")


def _snapshots(k, state):
    return state.u, state.ut


def test_criterion_8_solver_validation():
    # spatial order two on the boundary-compatible standing mode
    u0 = make_fn("standing_wave", 1)

    def l2err(dx):
        g = make_grid([(-1.0, 1.0)], dx=dx, dt=dx / 4, t_max=0.4)
        s = S.make_samplers(S.Coefficients(), g)
        init = S.initial_state(g, g.sample(u0, 0.0), None, s)
        _, (u, _) = S.solve(init, s, g, [sample_brownian(1, g.dt, g.t_max)], _snapshots, stride=g.num_steps, support_guard=False)
        exact = u0.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((u[0, -1] - exact) ** 2)) * g.cell_volume)

    order = math.log2(l2err(0.04) / l2err(0.02))
    assert 1.7 <= order <= 2.3

    # zero-noise reduction to the leapfrog reference
    g = make_grid([(-1.0, 1.0)], dx=0.01, dt=0.0025, t_max=0.5)
    s = S.make_samplers(S.Coefficients(), g)
    init = S.initial_state(g, g.sample(u0, 0.0), None, s)
    _, (u, _) = S.solve(init, s, g, [sample_brownian(3, g.dt, g.t_max)], _snapshots, stride=g.num_steps, support_guard=False)
    _, (ref_u, _) = leapfrog_reference(init, g)
    dev = float(np.max(np.abs(u[0, -1] - ref_u[0, -1])))
    assert dev <= 1e-10

    # scalar multiplicative-noise second moment
    emp, exact = scalar_noise_second_moment(1.0, 1.0, 1.0, 1e-3, 10_000, 42)
    rel = abs(emp - exact) / exact
    assert rel <= 0.10
    _ok(8, "solver validation", f"order {order:.2f}, leapfrog dev {dev:.2e}, moment rel {rel:.3f}")


def test_criterion_9_inequality_scan_local_ucp_preset():
    rho = make_fn("char_linear", 1)
    fam = WeightFamily(rho, 0.0)
    u_fn = make_fn("bump4", 1, amp=1.0, tc=0.0, rt=0.024, cx1=0.06, rx1=0.024)
    params = WeightParams(lam=8.0, gamma=2.0, mu=0.01, t0=0.0, x0=(0.0,))
    region = RegionSpec(t_lo=-0.08, t_hi=0.08, nt=81, x_lo=(-0.02,), x_hi=(0.15,), nx=87)
    cutoff = CutoffSpec(c2=0.65, eps=0.1)
    scan = inequality_gap(
        "T4.2", u_fn, fam, params, [8.0, 16.0, 32.0, 64.0], region,
        cutoff=cutoff, c0=1.0, c1=1.0, b1=1.0, b2=0.0, paths=0, seed=0,
    )
    assert all(r.gap_scaled >= 0.0 for r in scan.rows)
    expect, actual = scan.homogeneity_pair
    hom_rel = abs(actual - expect) / max(1e-300, abs(expect))
    assert hom_rel <= 1e-10
    gaps = [r.gap_scaled for r in scan.rows]
    _ok(9, "inequality scan", f"gaps >= 0 at lam 8..64 (min {min(gaps):.3e}), homogeneity rel {hom_rel:.1e}")


def test_criterion_10_subcommand_determinism(tmp_path):
    def columns_without_wall_time(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time_s")
        return [[c for i, c in enumerate(r) if i != drop] for r in rows]

    checked = 0
    for sub, cfg in [("geometry", "geometry.json"), ("ucp-decay", "ucp_decay.json"), ("qv-check", "qv_check.json")]:
        out1, out2 = tmp_path / f"{sub}-a", tmp_path / f"{sub}-b"
        assert cli_run(str(CONFIG_DIR / cfg), sub, out_dir=str(out1)) == 0
        assert cli_run(str(CONFIG_DIR / cfg), sub, out_dir=str(out2)) == 0
        a = columns_without_wall_time(out1 / f"{sub}.csv")
        b = columns_without_wall_time(out2 / f"{sub}.csv")
        assert a == b
        checked += 1
    _ok(10, "determinism", f"{checked} subcommands byte-identical modulo wall time")
