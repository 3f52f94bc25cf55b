import math

import numpy as np
import pytest

from carleman_lab.fields import ConfigurationError, make_fn, make_grid, sample_brownian
from carleman_lab import solver as S


def _grid(dx=0.01, dt=None, t_max=0.5, half_width=1.0):
    return make_grid([(-half_width, half_width)], dx=dx, dt=dt or dx / 4, t_max=t_max)


def _final_state(path):
    u, ut = path.snapshots[-1]
    return S.WaveState(u=u, ut=ut, time=path.times[-1])


def test_zero_data_stays_zero():
    g = _grid(dx=0.05, t_max=0.25)
    init = S.initial_state(g, None, None)
    path = S.solve(init, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max))
    assert all(np.all(u == 0.0) and np.all(ut == 0.0) for u, ut in path.snapshots)


def test_same_seed_reproduces_path_bitwise():
    g = _grid(dx=0.02, t_max=0.2, half_width=1.5)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    co = S.Coefficients(b1=0.5)
    init = S.initial_state(g, u0, None, co)
    p1 = S.solve(init, co, g, sample_brownian(7, g.dt, g.t_max))
    p2 = S.solve(init, co, g, sample_brownian(7, g.dt, g.t_max))
    for (u1, ut1), (u2, ut2) in zip(p1.snapshots, p2.snapshots):
        assert np.array_equal(u1, u2) and np.array_equal(ut1, ut2)


def test_manufactured_standing_wave_l2_error_bound():
    # deterministic free wave; boundary-compatible standing mode
    u0 = make_fn("standing_wave", 1)
    co = S.Coefficients()
    g = _grid(dx=0.01, t_max=0.5)
    init = S.initial_state(g, u0, None, co)
    path = S.solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    exact = u0.d(np.full(g.shape, 0.5), list(g.meshgrid()), (0, 0))
    err = math.sqrt(float(np.sum((_final_state(path).u - exact) ** 2)) * g.cell_volume)
    assert err <= 10.0 * (g.dx**2 + g.dt)


def test_spatial_order_two():
    u0 = make_fn("standing_wave", 1)
    co = S.Coefficients()

    def l2err(dx):
        g = _grid(dx=dx, t_max=0.4)
        init = S.initial_state(g, u0, None, co)
        path = S.solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u0.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((_final_state(path).u - exact) ** 2)) * g.cell_volume)

    e1, e2 = l2err(0.04), l2err(0.02)
    order = math.log2(e1 / e2)
    assert 1.7 <= order <= 2.3


def test_temporal_order_one_with_damping():
    u_exact = make_fn("standing_wave", 1)
    base = S.Coefficients(a1=-1.0, a3=0.5)
    forcing = S.manufactured_forcing(u_exact, base)
    co = S.Coefficients(a1=-1.0, a3=0.5, g=forcing)

    def terr(dt):
        g = _grid(dx=0.005, dt=dt, t_max=0.4)
        init = S.initial_state(g, u_exact, None, co)
        path = S.solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u_exact.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((_final_state(path).u - exact) ** 2)) * g.cell_volume)

    order = math.log2(terr(0.004) / terr(0.002))
    assert 0.7 <= order <= 1.3


def test_refinement_halving_dt_first_order_factor():
    u_exact = make_fn("standing_wave", 1)
    base = S.Coefficients(a1=-1.0, a3=0.5)
    co = S.Coefficients(a1=-1.0, a3=0.5, g=S.manufactured_forcing(u_exact, base))

    def final(dt):
        g = _grid(dx=0.005, dt=dt, t_max=0.4)
        init = S.initial_state(g, u_exact, None, co)
        path = S.solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        return _final_state(path).u

    f1, f2, f4 = final(0.004), final(0.002), final(0.001)
    ratio = float(np.max(np.abs(f1 - f2)) / np.max(np.abs(f2 - f4)))
    assert 1.5 <= ratio <= 2.5


def test_zero_noise_matches_leapfrog_reference():
    g = _grid(dx=0.01, dt=0.0025, t_max=0.5)
    u0 = make_fn("standing_wave", 1)
    init = S.initial_state(g, u0, None)
    path = S.solve(init, S.Coefficients(), g, sample_brownian(3, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    ref = S.leapfrog_reference(init, g)
    scale = float(np.max(np.abs(ref.snapshots[-1][0])))
    assert float(np.max(np.abs(path.snapshots[-1][0] - ref.snapshots[-1][0]))) <= 1e-10 * max(1.0, scale)


def test_scalar_mode_second_moment_matches_exponential():
    emp, exact = S.scalar_noise_second_moment(1.0, 1.0, 1.0, 1e-3, 10_000, 42)
    assert abs(emp - exact) <= 0.10 * exact


def test_solve_linearity_per_path():
    g = _grid(dx=0.01, dt=0.005, t_max=0.3, half_width=1.5)
    co = S.Coefficients(b1=0.5)
    bump_a = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    bump_b = make_fn("space_bump4", 1, amp=0.5, cx1=0.1, rx1=0.15)
    bp = sample_brownian(9, g.dt, g.t_max)
    pa = S.solve(S.initial_state(g, bump_a, None, co), co, g, bp, stride=g.num_steps)
    pb = S.solve(S.initial_state(g, bump_b, None, co), co, g, bp, stride=g.num_steps)
    both = S.initial_state(g, bump_a, None, co)
    other = S.initial_state(g, bump_b, None, co)
    both.u = both.u + other.u
    both.ut = both.ut + other.ut
    pc = S.solve(both, co, g, bp, stride=g.num_steps)
    diff = np.max(np.abs(pc.snapshots[-1][0] - pa.snapshots[-1][0] - pb.snapshots[-1][0]))
    assert diff <= 1e-10 * max(1.0, float(np.max(np.abs(pc.snapshots[-1][0]))))


def test_manufactured_forcing_free_wave_is_zero():
    u = make_fn("standing_wave", 1)
    g = S.manufactured_forcing(u, S.Coefficients())
    pts = np.linspace(-0.9, 0.9, 7)
    for x in pts:
        assert abs(g.value(0.3, [float(x)])) <= 1e-12


def test_manufactured_forcing_quadratic_time():
    # u = t^2: g = 2 - a1 2t - a3 t^2
    u = make_fn("quadratic", 1, c0=0.0, ct=0.0, qtt=2.0, cx1=0.0, qx1=0.0)
    co = S.Coefficients(a1=0.7, a3=-0.4)
    g = S.manufactured_forcing(u, co)
    for t in (0.0, 0.5, 1.3):
        expected = 2.0 - 0.7 * 2.0 * t - (-0.4) * t**2
        assert g.value(t, [0.2]) == pytest.approx(expected, rel=1e-12)


def test_manufactured_forcing_a3_shift_is_linear():
    u = make_fn("standing_wave", 1)
    g0 = S.manufactured_forcing(u, S.Coefficients())
    g1 = S.manufactured_forcing(u, S.Coefficients(a3=1.5))
    for t, x in [(0.1, 0.2), (0.4, -0.3)]:
        shift = g1.value(t, [x]) - g0.value(t, [x])
        assert shift == pytest.approx(-1.5 * u.value(t, [x]), rel=1e-12, abs=1e-14)


def test_total_energy_examples():
    g = _grid(dx=0.25, dt=0.0625, t_max=0.25, half_width=1.0)
    zero = S.WaveState(u=np.zeros(g.shape), ut=np.zeros(g.shape), time=0.0)
    assert S.total_energy(zero, g) == 0.0
    # u = 0, u_t = 1 on the whole box: energy = measure / 2
    ones = S.WaveState(u=np.zeros(g.shape), ut=np.ones(g.shape), time=0.0)
    assert S.total_energy(ones, g) == pytest.approx(0.5 * g.num_nodes * g.cell_volume)


def test_free_wave_energy_drift_below_one_percent():
    g = make_grid([(-1.0, 1.0)], dx=0.005, dt=0.00125, t_max=1.0)
    u0 = make_fn("standing_wave", 1)
    init = S.initial_state(g, u0, None)
    path = S.solve(init, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    e0 = S.total_energy(S.WaveState(*path.snapshots[0], path.times[0]), g)
    e1 = S.total_energy(S.WaveState(*path.snapshots[-1], path.times[-1]), g)
    assert abs(e1 - e0) / e0 <= 0.01


def test_blow_up_reports_step_index():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.1, t_max=2.0, cfl=1.0)
    u0 = make_fn("space_bump4", 1, amp=1e150, cx1=0.0, rx1=0.4)
    init = S.initial_state(g, u0, None)
    co = S.Coefficients(a3=1e10)
    with np.errstate(over="ignore"), pytest.raises(S.BlowUpError, match="step"):
        S.solve(init, co, g, sample_brownian(1, g.dt, g.t_max), support_guard=False)


def test_support_reach_raises_propagation_error():
    # bump close to the wall: physical speed reaches it before t_max
    g = make_grid([(-1.0, 1.0)], dx=0.02, dt=0.01, t_max=0.8)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.5, rx1=0.3)
    init = S.initial_state(g, u0, None)
    with pytest.raises(S.PropagationError):
        S.solve(init, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max), stride=5)


def test_noise_step_size_guard():
    g = make_grid([(-1.0, 1.0)], dx=0.5, dt=0.25, t_max=0.5)
    init = S.initial_state(g, None, None)
    with pytest.raises(ConfigurationError, match="guard"):
        S.solve(init, S.Coefficients(b1=2.0), g, sample_brownian(1, g.dt, g.t_max))


def test_boundary_ring_precondition():
    g = make_grid([(-1.0, 1.0)], dx=0.25, dt=0.125, t_max=0.25)
    bad = S.WaveState(u=np.ones(g.shape), ut=np.zeros(g.shape), time=0.0)
    with pytest.raises(ConfigurationError, match="boundary ring"):
        S.solve(bad, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max))


def test_two_dimensional_spatial_order():
    # sin(pi x) sin(pi y) cos(sqrt(2) pi t) expressed through the trig family
    u2 = make_fn(
        "trig_product", 2,
        amp=1.0, wt=math.sqrt(2.0) * math.pi, pt=math.pi / 2,
        wx1=math.pi, px1=-math.pi / 2, wx2=math.pi, px2=-math.pi / 2,
    )
    co = S.Coefficients()

    def l2err(dx):
        g = make_grid([(-1.0, 1.0), (-1.0, 1.0)], dx=dx, dt=dx / 4, t_max=0.2)
        init = S.initial_state(g, u2, None, co)
        path = S.solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u2.d(np.full(g.shape, 0.2), list(g.meshgrid()), (0, 0, 0))
        return math.sqrt(float(np.sum((path.snapshots[-1][0] - exact) ** 2)) * g.cell_volume)

    order = math.log2(l2err(0.1) / l2err(0.05))
    assert 1.7 <= order <= 2.3


def test_step_matches_solve_single_step():
    g = make_grid([(-1.0, 1.0)], dx=0.05, dt=0.0125, t_max=0.0125)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.3)
    co = S.Coefficients(b1=0.3, b2=0.1)
    init = S.initial_state(g, u0, None, co)
    bp = sample_brownian(5, g.dt, g.t_max)
    stepped = S.step(init, co, float(bp.increments[0]), g)
    solved = S.solve(init, co, g, bp)
    assert np.array_equal(stepped.u, solved.snapshots[-1][0])
    assert np.array_equal(stepped.ut, solved.snapshots[-1][1])


@pytest.mark.parametrize("n", [1, 2])
def test_ensemble_rows_equal_single_path_solves(n):
    g = make_grid([(-1.0, 1.0)] * n, dx=0.1, dt=0.025, t_max=0.5)
    bump = make_fn("space_bump4", n, amp=1.0, **{f"{k}{j + 1}": v for j in range(n) for k, v in (("cx", 0.0), ("rx", 0.4))})
    b1 = make_fn("affine", n, c0=0.3, ct=0.5, **{f"cx{j + 1}": 0.0 for j in range(n)})  # 0.3 + 0.5 t
    co = S.Coefficients(a1=-0.2, a2=(0.3,) * n, a3=0.4, b1=b1, b2=0.2, f=0.05, g=0.1, b1_bound=0.55)
    init = S.initial_state(g, bump, None, co)
    paths = [sample_brownian(11, g.dt, g.t_max, stream=p) for p in range(4)]
    # 20 steps at stride 3: the final state is recorded again at t_max
    batch = S.solve(init, co, g, paths, stride=3, support_guard=False)
    assert batch.snapshots[0][0].shape == (4,) + g.shape
    for p, bp in enumerate(paths):
        single = S.solve(init, co, g, bp, stride=3, support_guard=False)
        assert batch.times == single.times
        for (ub, utb), (us, uts) in zip(batch.snapshots, single.snapshots):
            assert np.array_equal(ub[p], us) and np.array_equal(utb[p], uts)


def test_ensemble_blow_up_names_the_path():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.05, t_max=0.5)
    init = S.initial_state(g, make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.4), None)
    paths = [sample_brownian(1, g.dt, g.t_max, stream=p) for p in range(3)]
    paths[2] = S.BrownianPath(seed=1, dt=g.dt, t_max=g.t_max, increments=np.full(g.num_steps, 1e300), stream=2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(S.BlowUpError, match="on path 2 at step"):
        S.solve(init, S.Coefficients(b2=1.0), g, paths, support_guard=False)
