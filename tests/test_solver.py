import math

import numpy as np
import pytest

from carleman_lab.fields import (
    ConfigurationError,
    gradient_array,
    laplacian_array,
    make_fn,
    make_grid,
    sample_brownian,
    zero_ring,
)
from carleman_lab import solver as S


def _grid(dx=0.01, dt=None, t_max=0.5, half_width=1.0):
    return make_grid([(-half_width, half_width)], dx=dx, dt=dt or dx / 4, t_max=t_max)


def _snapshots(k, state):
    return state.u, state.ut


def _solve(init, co, g, bp, **kwargs):
    """One path's record times and recorded u and u_t, without the path axis."""
    times, (u, ut) = S.solve(init, co, g, [bp], _snapshots, **kwargs)
    return times, u[0], ut[0]


def test_zero_data_stays_zero():
    g = _grid(dx=0.05, t_max=0.25)
    init = S.initial_state(g, None, None)
    _, u, ut = _solve(init, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max))
    assert np.all(u == 0.0) and np.all(ut == 0.0)


def test_same_seed_reproduces_path_bitwise():
    g = _grid(dx=0.02, t_max=0.2, half_width=1.5)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    co = S.Coefficients(b1=0.5)
    init = S.initial_state(g, u0, None, co)
    _, u1, ut1 = _solve(init, co, g, sample_brownian(7, g.dt, g.t_max))
    _, u2, ut2 = _solve(init, co, g, sample_brownian(7, g.dt, g.t_max))
    assert np.array_equal(u1, u2) and np.array_equal(ut1, ut2)


def test_manufactured_standing_wave_l2_error_bound():
    # deterministic free wave; boundary-compatible standing mode
    u0 = make_fn("standing_wave", 1)
    co = S.Coefficients()
    g = _grid(dx=0.01, t_max=0.5)
    init = S.initial_state(g, u0, None, co)
    _, u, _ = _solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    exact = u0.d(np.full(g.shape, 0.5), list(g.meshgrid()), (0, 0))
    err = math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)
    assert err <= 10.0 * (g.dx**2 + g.dt)


def test_spatial_order_two():
    u0 = make_fn("standing_wave", 1)
    co = S.Coefficients()

    def l2err(dx):
        g = _grid(dx=dx, t_max=0.4)
        init = S.initial_state(g, u0, None, co)
        _, u, _ = _solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u0.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)

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
        _, u, _ = _solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u_exact.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)

    order = math.log2(terr(0.004) / terr(0.002))
    assert 0.7 <= order <= 1.3


def test_refinement_halving_dt_first_order_factor():
    u_exact = make_fn("standing_wave", 1)
    base = S.Coefficients(a1=-1.0, a3=0.5)
    co = S.Coefficients(a1=-1.0, a3=0.5, g=S.manufactured_forcing(u_exact, base))

    def final(dt):
        g = _grid(dx=0.005, dt=dt, t_max=0.4)
        init = S.initial_state(g, u_exact, None, co)
        _, u, _ = _solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        return u[-1]

    f1, f2, f4 = final(0.004), final(0.002), final(0.001)
    ratio = float(np.max(np.abs(f1 - f2)) / np.max(np.abs(f2 - f4)))
    assert 1.5 <= ratio <= 2.5


def test_zero_noise_matches_leapfrog_reference():
    g = _grid(dx=0.01, dt=0.0025, t_max=0.5)
    u0 = make_fn("standing_wave", 1)
    init = S.initial_state(g, u0, None)
    _, u, _ = _solve(init, S.Coefficients(), g, sample_brownian(3, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    _, (ref_u, _) = S.leapfrog_reference(init, g)
    scale = float(np.max(np.abs(ref_u[0, -1])))
    assert float(np.max(np.abs(u[-1] - ref_u[0, -1]))) <= 1e-10 * max(1.0, scale)


def test_scalar_mode_second_moment_matches_exponential():
    emp, exact = S.scalar_noise_second_moment(1.0, 1.0, 1.0, 1e-3, 10_000, 42)
    assert abs(emp - exact) <= 0.10 * exact


def test_solve_linearity_per_path():
    g = _grid(dx=0.01, dt=0.005, t_max=0.3, half_width=1.5)
    co = S.Coefficients(b1=0.5)
    bump_a = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    bump_b = make_fn("space_bump4", 1, amp=0.5, cx1=0.1, rx1=0.15)
    bp = sample_brownian(9, g.dt, g.t_max)
    _, ua, _ = _solve(S.initial_state(g, bump_a, None, co), co, g, bp, stride=g.num_steps)
    _, ub, _ = _solve(S.initial_state(g, bump_b, None, co), co, g, bp, stride=g.num_steps)
    both = S.initial_state(g, bump_a, None, co)
    other = S.initial_state(g, bump_b, None, co)
    both.u = both.u + other.u
    both.ut = both.ut + other.ut
    _, uc, _ = _solve(both, co, g, bp, stride=g.num_steps)
    diff = np.max(np.abs(uc[-1] - ua[-1] - ub[-1]))
    assert diff <= 1e-10 * max(1.0, float(np.max(np.abs(uc[-1]))))


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
    times, u, ut = _solve(init, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    e0 = S.total_energy(S.WaveState(u[0], ut[0], times[0]), g)
    e1 = S.total_energy(S.WaveState(u[-1], ut[-1], times[-1]), g)
    assert abs(e1 - e0) / e0 <= 0.01


def test_blow_up_reports_step_index():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.1, t_max=2.0, cfl=1.0)
    u0 = make_fn("space_bump4", 1, amp=1e150, cx1=0.0, rx1=0.4)
    init = S.initial_state(g, u0, None)
    co = S.Coefficients(a3=1e10)
    with np.errstate(over="ignore"), pytest.raises(S.BlowUpError, match="step"):
        _solve(init, co, g, sample_brownian(1, g.dt, g.t_max), support_guard=False)


def test_support_reach_raises_propagation_error():
    # bump close to the wall: physical speed reaches it before t_max
    g = make_grid([(-1.0, 1.0)], dx=0.02, dt=0.01, t_max=0.8)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.5, rx1=0.3)
    init = S.initial_state(g, u0, None)
    with pytest.raises(S.PropagationError):
        _solve(init, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max), stride=5)


def test_noise_step_size_guard():
    g = make_grid([(-1.0, 1.0)], dx=0.5, dt=0.25, t_max=0.5)
    init = S.initial_state(g, None, None)
    with pytest.raises(ConfigurationError, match="guard"):
        _solve(init, S.Coefficients(b1=2.0), g, sample_brownian(1, g.dt, g.t_max))


def test_boundary_ring_precondition():
    g = make_grid([(-1.0, 1.0)], dx=0.25, dt=0.125, t_max=0.25)
    bad = S.WaveState(u=np.ones(g.shape), ut=np.zeros(g.shape), time=0.0)
    with pytest.raises(ConfigurationError, match="boundary ring"):
        _solve(bad, S.Coefficients(), g, sample_brownian(1, g.dt, g.t_max))


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
        _, u, _ = _solve(init, co, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u2.d(np.full(g.shape, 0.2), list(g.meshgrid()), (0, 0, 0))
        return math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)

    order = math.log2(l2err(0.1) / l2err(0.05))
    assert 1.7 <= order <= 2.3


def test_step_matches_solve_single_step():
    g = make_grid([(-1.0, 1.0)], dx=0.05, dt=0.0125, t_max=0.0125)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.3)
    co = S.Coefficients(b1=0.3, b2=0.1)
    init = S.initial_state(g, u0, None, co)
    bp = sample_brownian(5, g.dt, g.t_max)
    stepped = S.step(init, co, float(bp.increments[0]), g)
    _, u, ut = _solve(init, co, g, bp)
    assert np.array_equal(stepped.u, u[-1])
    assert np.array_equal(stepped.ut, ut[-1])


@pytest.mark.parametrize("n", [1, 2])
def test_ensemble_rows_equal_single_path_solves(n):
    g = make_grid([(-1.0, 1.0)] * n, dx=0.1, dt=0.025, t_max=0.5)
    bump = make_fn("space_bump4", n, amp=1.0, **{f"{k}{j + 1}": v for j in range(n) for k, v in (("cx", 0.0), ("rx", 0.4))})
    b1 = make_fn("affine", n, c0=0.3, ct=0.5, **{f"cx{j + 1}": 0.0 for j in range(n)})  # 0.3 + 0.5 t
    co = S.Coefficients(a1=-0.2, a2=(0.3,) * n, a3=0.4, b1=b1, b2=0.2, f=0.05, g=0.1, b1_bound=0.55)
    init = S.initial_state(g, bump, None, co)
    paths = [sample_brownian(11, g.dt, g.t_max, stream=p) for p in range(4)]
    # 20 steps at stride 3: the final state is recorded again at t_max
    times, (u, ut) = S.solve(init, co, g, paths, _snapshots, stride=3, support_guard=False)
    assert u.shape == (4, len(times)) + g.shape
    for p, bp in enumerate(paths):
        single_times, us, uts = _solve(init, co, g, bp, stride=3, support_guard=False)
        assert np.array_equal(times, single_times)
        assert np.array_equal(u[p], us) and np.array_equal(ut[p], uts)


def test_ensemble_blow_up_names_the_path():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.05, t_max=0.5)
    init = S.initial_state(g, make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.4), None)
    paths = [sample_brownian(1, g.dt, g.t_max, stream=p) for p in range(3)]
    paths[2] = S.BrownianPath(seed=1, dt=g.dt, t_max=g.t_max, increments=np.full(g.num_steps, 1e300), stream=2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(S.BlowUpError, match="on path 2 at step"):
        S.solve(init, S.Coefficients(b2=1.0), g, paths, _snapshots, support_guard=False)


# (n, coefficients, u0 amplitude, u1 amplitude, path with huge increments, its increment, message);
# the messages were recorded from the solver that checked u and u_t for finiteness after every step
BLOW_UPS = [
    (1, S.Coefficients(b2=1.0), 1.0, None, 2, 1e300, "non-finite field on path 2 at step 2 (t = 0.1)"),
    (2, S.Coefficients(b2=1.0), 1.0, None, 2, 1e300, "non-finite field on path 2 at step 2 (t = 0.1)"),
    # u starts at zero and the overflow starts in u_t, through b1 u_t dW
    (1, S.Coefficients(b1=1.0), None, 1.0, 1, 1e120, "non-finite field on path 1 at step 3 (t = 0.15000000000000002)"),
    (2, S.Coefficients(b1=1.0), None, 1.0, 1, 1e120, "non-finite field on path 1 at step 3 (t = 0.15000000000000002)"),
]


@pytest.mark.parametrize("n, co, amp0, amp1, hot, dw, message", BLOW_UPS)
def test_ensemble_blow_up_reports_the_recorded_path_and_step(n, co, amp0, amp1, hot, dw, message):
    g = make_grid([(-1.0, 1.0)] * n, dx=0.1, dt=0.05, t_max=0.5)

    def bump(amp):
        if amp is None:
            return None
        return make_fn("space_bump4", n, amp=amp, **{f"{k}{j + 1}": v for j in range(n) for k, v in (("cx", 0.0), ("rx", 0.4))})

    init = S.initial_state(g, bump(amp0), bump(amp1))
    paths = [sample_brownian(1, g.dt, g.t_max, stream=p) for p in range(3)]
    paths[hot] = S.BrownianPath(seed=1, dt=g.dt, t_max=g.t_max, increments=np.full(g.num_steps, dw), stream=hot)
    with np.errstate(all="ignore"), pytest.raises(S.BlowUpError) as info:
        S.solve(init, co, g, paths, _snapshots, support_guard=False)
    assert str(info.value) == message


def _textbook_step(u, ut, t, samplers, dw, grid):
    """ut + dt (lap u + a1 ut + a2 . grad u + a3 u + g) + (b1 ut + b2 u + f) dW and
    u + dt ut', with every term evaluated, zero or not, and the ring zeroed after."""
    drift = laplacian_array(u, grid.dx, grid.n) + samplers["a1"](t) * ut
    for j, a2j in enumerate(samplers["a2"]):
        drift = drift + a2j(t) * gradient_array(u, grid.dx, j - grid.n)
    drift = drift + samplers["a3"](t) * u + samplers["g"](t)
    ut_new = ut + grid.dt * drift + (samplers["b1"](t) * ut + samplers["b2"](t) * u + samplers["f"](t)) * dw
    u_new = u + grid.dt * ut_new
    zero_ring(u_new, grid.n)
    zero_ring(ut_new, grid.n)
    return u_new, ut_new


def _kernel_coefficients(case, n):
    if case == "all_zero":
        return S.Coefficients()
    if case == "b1_only":
        return S.Coefficients(b1=0.5)
    # space_bump4 is declared time independent, so its samplers hand out one cached array
    frozen = make_fn("space_bump4", n, amp=0.5, **{f"{k}{j + 1}": v for j in range(n) for k, v in (("cx", 0.1), ("rx", 0.6))})
    timed = make_fn("affine", n, c0=-0.1, ct=0.7, **{f"cx{j + 1}": 0.3 * (j + 1) for j in range(n)})
    a2 = (frozen, 0.3)[:n]
    return S.Coefficients(a1=-0.2, a2=a2, a3=timed, b1=frozen, b2=0.2, f=timed, g=frozen)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", ["mixed", "b1_only", "all_zero"])
def test_step_kernel_equals_the_textbook_expression_and_aliases_nothing(case, n):
    g = make_grid([(-1.0, 1.0)] * n, dx=0.2, dt=0.05, t_max=0.5)
    samplers = S.make_samplers(_kernel_coefficients(case, n), g)
    rng = np.random.default_rng(7)
    u, ut = (rng.standard_normal((3,) + g.shape) for _ in range(2))
    zero_ring(u, n)
    zero_ring(ut, n)
    dw = rng.standard_normal((3,) + (1,) * n)
    t = 0.3
    frozen = [s(t) for s in [samplers[k] for k in ("a1", "a3", "b1", "b2", "f", "g")] + samplers["a2"]]
    frozen = [a for a in frozen if isinstance(a, np.ndarray)]
    before = [a.copy() for a in (u, ut, dw, *frozen)]
    u_new, ut_new = S.step_arrays(u, ut, t, samplers, dw, g)
    u_ref, ut_ref = _textbook_step(u, ut, t, samplers, dw, g)
    assert np.array_equal(u_new, u_ref) and np.array_equal(ut_new, ut_ref)
    assert all(np.array_equal(a, b) for a, b in zip((u, ut, dw, *frozen), before))
    assert not np.shares_memory(u_new, ut_new)
    for out in (u_new, ut_new):
        assert not any(np.shares_memory(out, a) for a in (u, ut, dw, *frozen))
