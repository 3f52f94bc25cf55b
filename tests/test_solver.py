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

from oracles import leapfrog_reference, manufactured_forcing, scalar_noise_second_moment


def _grid(dx=0.01, dt=None, t_max=0.5, half_width=1.0):
    return make_grid([(-half_width, half_width)], dx=dx, dt=dt or dx / 4, t_max=t_max)


def _snapshots(k, state):
    return state.u, state.ut


def _state(g, u0, u1, samplers):
    """``initial_state`` of the AnalyticFns u0 and u1 (None is zero) sampled at the nodes."""
    return S.initial_state(g, *(None if fn is None else g.sample(fn, 0.0) for fn in (u0, u1)), samplers)


def _solve(init, samplers, g, bp, **kwargs):
    """One path's record times and recorded u and u_t, without the path axis."""
    times, (u, ut) = S.solve(init, samplers, g, [bp], _snapshots, **kwargs)
    return times, u[0], ut[0]


def test_zero_data_stays_zero():
    g = _grid(dx=0.05, t_max=0.25)
    s = S.make_samplers(S.Coefficients(), g)
    _, u, ut = _solve(S.initial_state(g, None, None, s), s, g, sample_brownian(1, g.dt, g.t_max))
    assert np.all(u == 0.0) and np.all(ut == 0.0)


def test_initial_state_leaves_the_arrays_it_is_given_unwritten():
    g = _grid(dx=0.1, t_max=0.2)
    u0, u1 = np.ones(g.shape), np.full(g.shape, 2.0)
    state = S.initial_state(g, u0, u1, S.make_samplers(S.Coefficients(a3=1.0), g))
    assert np.all(u0 == 1.0) and np.all(u1 == 2.0)
    # the state's copies have their boundary ring zeroed
    assert state.u[0] == 0.0 and state.ut[-1] == 0.0 and state.u[1] == 1.0


def test_same_seed_reproduces_path_bitwise():
    g = _grid(dx=0.02, t_max=0.2, half_width=1.5)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    s = S.make_samplers(S.Coefficients(b1=0.5), g)
    init = _state(g, u0, None, s)
    _, u1, ut1 = _solve(init, s, g, sample_brownian(7, g.dt, g.t_max))
    _, u2, ut2 = _solve(init, s, g, sample_brownian(7, g.dt, g.t_max))
    assert np.array_equal(u1, u2) and np.array_equal(ut1, ut2)


def test_manufactured_standing_wave_l2_error_bound():
    # deterministic free wave; boundary-compatible standing mode
    u0 = make_fn("standing_wave", 1)
    g = _grid(dx=0.01, t_max=0.5)
    s = S.make_samplers(S.Coefficients(), g)
    _, u, _ = _solve(_state(g, u0, None, s), s, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    exact = u0.d(np.full(g.shape, 0.5), list(g.meshgrid()), (0, 0))
    err = math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)
    assert err <= 10.0 * (g.dx**2 + g.dt)


def test_spatial_order_two():
    u0 = make_fn("standing_wave", 1)
    co = S.Coefficients()

    def l2err(dx):
        g = _grid(dx=dx, t_max=0.4)
        s = S.make_samplers(co, g)
        _, u, _ = _solve(_state(g, u0, None, s), s, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u0.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)

    e1, e2 = l2err(0.04), l2err(0.02)
    order = math.log2(e1 / e2)
    assert 1.7 <= order <= 2.3


def test_temporal_order_one_with_damping():
    u_exact = make_fn("standing_wave", 1)
    base = S.Coefficients(a1=-1.0, a3=0.5)
    forcing = manufactured_forcing(u_exact, base)
    co = S.Coefficients(a1=-1.0, a3=0.5, g=forcing)

    def terr(dt):
        g = _grid(dx=0.005, dt=dt, t_max=0.4)
        s = S.make_samplers(co, g)
        _, u, _ = _solve(_state(g, u_exact, None, s), s, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u_exact.d(np.full(g.shape, 0.4), list(g.meshgrid()), (0, 0))
        return math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)

    order = math.log2(terr(0.004) / terr(0.002))
    assert 0.7 <= order <= 1.3


def test_refinement_halving_dt_first_order_factor():
    u_exact = make_fn("standing_wave", 1)
    base = S.Coefficients(a1=-1.0, a3=0.5)
    co = S.Coefficients(a1=-1.0, a3=0.5, g=manufactured_forcing(u_exact, base))

    def final(dt):
        g = _grid(dx=0.005, dt=dt, t_max=0.4)
        s = S.make_samplers(co, g)
        _, u, _ = _solve(_state(g, u_exact, None, s), s, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        return u[-1]

    f1, f2, f4 = final(0.004), final(0.002), final(0.001)
    ratio = float(np.max(np.abs(f1 - f2)) / np.max(np.abs(f2 - f4)))
    assert 1.5 <= ratio <= 2.5


def test_zero_noise_matches_leapfrog_reference():
    g = _grid(dx=0.01, dt=0.0025, t_max=0.5)
    s = S.make_samplers(S.Coefficients(), g)
    init = _state(g, make_fn("standing_wave", 1), None, s)
    _, u, _ = _solve(init, s, g, sample_brownian(3, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    _, (ref_u, _) = leapfrog_reference(init, g)
    scale = float(np.max(np.abs(ref_u[0, -1])))
    assert float(np.max(np.abs(u[-1] - ref_u[0, -1]))) <= 1e-10 * max(1.0, scale)


def test_scalar_mode_second_moment_matches_exponential():
    emp, exact = scalar_noise_second_moment(1.0, 1.0, 1.0, 1e-3, 10_000, 42)
    assert abs(emp - exact) <= 0.10 * exact


def test_solve_linearity_per_path():
    g = _grid(dx=0.01, dt=0.005, t_max=0.3, half_width=1.5)
    s = S.make_samplers(S.Coefficients(b1=0.5), g)
    bump_a = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    bump_b = make_fn("space_bump4", 1, amp=0.5, cx1=0.1, rx1=0.15)
    bp = sample_brownian(9, g.dt, g.t_max)
    _, ua, _ = _solve(_state(g, bump_a, None, s), s, g, bp, stride=g.num_steps)
    _, ub, _ = _solve(_state(g, bump_b, None, s), s, g, bp, stride=g.num_steps)
    both = _state(g, bump_a, None, s)
    other = _state(g, bump_b, None, s)
    both.u = both.u + other.u
    both.ut = both.ut + other.ut
    _, uc, _ = _solve(both, s, g, bp, stride=g.num_steps)
    diff = np.max(np.abs(uc[-1] - ua[-1] - ub[-1]))
    assert diff <= 1e-10 * max(1.0, float(np.max(np.abs(uc[-1]))))


def test_manufactured_forcing_free_wave_is_zero():
    u = make_fn("standing_wave", 1)
    g = manufactured_forcing(u, S.Coefficients())
    pts = np.linspace(-0.9, 0.9, 7)
    for x in pts:
        assert abs(g.value(0.3, [float(x)])) <= 1e-12


def test_manufactured_forcing_quadratic_time():
    # u = t^2: g = 2 - a1 2t - a3 t^2
    u = make_fn("quadratic", 1, c0=0.0, ct=0.0, qtt=2.0, cx1=0.0, qx1=0.0)
    co = S.Coefficients(a1=0.7, a3=-0.4)
    g = manufactured_forcing(u, co)
    for t in (0.0, 0.5, 1.3):
        expected = 2.0 - 0.7 * 2.0 * t - (-0.4) * t**2
        assert g.value(t, [0.2]) == pytest.approx(expected, rel=1e-12)


def test_manufactured_forcing_a3_shift_is_linear():
    u = make_fn("standing_wave", 1)
    g0 = manufactured_forcing(u, S.Coefficients())
    g1 = manufactured_forcing(u, S.Coefficients(a3=1.5))
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
    s = S.make_samplers(S.Coefficients(), g)
    init = _state(g, make_fn("standing_wave", 1), None, s)
    times, u, ut = _solve(init, s, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
    e0 = S.total_energy(S.WaveState(u[0], ut[0], times[0]), g)
    e1 = S.total_energy(S.WaveState(u[-1], ut[-1], times[-1]), g)
    assert abs(e1 - e0) / e0 <= 0.01


def test_blow_up_reports_step_index():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.1, t_max=2.0, cfl=1.0)
    u0 = make_fn("space_bump4", 1, amp=1e150, cx1=0.0, rx1=0.4)
    s = S.make_samplers(S.Coefficients(a3=1e10), g)
    init = _state(g, u0, None, s)
    with np.errstate(over="ignore"), pytest.raises(S.BlowUpError, match="step"):
        _solve(init, s, g, sample_brownian(1, g.dt, g.t_max), support_guard=False)


def test_support_reach_raises_propagation_error():
    # bump close to the wall: physical speed reaches it before t_max
    g = make_grid([(-1.0, 1.0)], dx=0.02, dt=0.01, t_max=0.8)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.5, rx1=0.3)
    s = S.make_samplers(S.Coefficients(), g)
    with pytest.raises(S.PropagationError):
        _solve(_state(g, u0, None, s), s, g, sample_brownian(1, g.dt, g.t_max), stride=5)


def test_noise_step_size_guard():
    g = make_grid([(-1.0, 1.0)], dx=0.5, dt=0.25, t_max=0.5)
    with pytest.raises(ConfigurationError, match="guard"):
        S.make_samplers(S.Coefficients(b1=2.0), g)


def test_a2_with_more_entries_than_axes_is_refused():
    # an entry past the grid's axes would take its gradient along the path axis of a batch,
    # coupling the paths that solve keeps independent
    g = make_grid([(-1.0, 1.0)], dx=0.25, dt=0.125, t_max=0.25)
    with pytest.raises(ConfigurationError, match="a2 has 2 entries"):
        S.make_samplers(S.Coefficients(a2=(0.0, 0.5)), g)


def test_boundary_ring_precondition():
    g = make_grid([(-1.0, 1.0)], dx=0.25, dt=0.125, t_max=0.25)
    bad = S.WaveState(u=np.ones(g.shape), ut=np.zeros(g.shape), time=0.0)
    with pytest.raises(ConfigurationError, match="boundary ring"):
        _solve(bad, S.make_samplers(S.Coefficients(), g), g, sample_brownian(1, g.dt, g.t_max))


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
        s = S.make_samplers(co, g)
        _, u, _ = _solve(_state(g, u2, None, s), s, g, sample_brownian(1, g.dt, g.t_max), stride=g.num_steps, support_guard=False)
        exact = u2.d(np.full(g.shape, 0.2), list(g.meshgrid()), (0, 0, 0))
        return math.sqrt(float(np.sum((u[-1] - exact) ** 2)) * g.cell_volume)

    order = math.log2(l2err(0.1) / l2err(0.05))
    assert 1.7 <= order <= 2.3


@pytest.mark.parametrize("n", [1, 2])
def test_ensemble_rows_equal_single_path_solves(n):
    g = make_grid([(-1.0, 1.0)] * n, dx=0.1, dt=0.025, t_max=0.5)
    bump = make_fn("space_bump4", n, amp=1.0, **{f"{k}{j + 1}": v for j in range(n) for k, v in (("cx", 0.0), ("rx", 0.4))})
    b1 = make_fn("affine", n, c0=0.3, ct=0.5, **{f"cx{j + 1}": 0.0 for j in range(n)})  # 0.3 + 0.5 t
    s = S.make_samplers(S.Coefficients(a1=-0.2, a2=(0.3,) * n, a3=0.4, b1=b1, b2=0.2, f=0.05, g=0.1, b1_bound=0.55), g)
    init = _state(g, bump, None, s)
    paths = [sample_brownian(11, g.dt, g.t_max, stream=p) for p in range(4)]
    # 20 steps at stride 3: the last step is recorded although 3 does not divide it
    times, (u, ut) = S.solve(init, s, g, paths, _snapshots, stride=3, support_guard=False)
    assert u.shape == (4, len(times)) + g.shape
    for p, bp in enumerate(paths):
        single_times, us, uts = _solve(init, s, g, bp, stride=3, support_guard=False)
        assert np.array_equal(times, single_times)
        assert np.array_equal(u[p], us) and np.array_equal(ut[p], uts)


@pytest.mark.parametrize("dt, t_max, stride", [
    (0.03, 0.33, 1),  # 11 * 0.03 rounds below 0.33
    (0.03, 0.33, 4),  # and 4 does not divide 11
    (0.025, 0.5, 3),  # 3 does not divide 20
    (0.025, 0.5, 5),
    (0.025, 0.5, 40),  # a stride past the horizon records steps 0 and 20 alone
])
def test_solve_records_step_zero_every_stride_and_the_last_step_once(dt, t_max, stride):
    g = make_grid([(-1.5, 1.5)], dx=0.03, dt=dt, t_max=t_max, cfl=1.0)
    s = S.make_samplers(S.Coefficients(), g)
    init = _state(g, make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2), None, s)
    times, u, _ = _solve(init, s, g, sample_brownian(1, g.dt, g.t_max), stride=stride)
    steps = sorted(set(range(0, g.num_steps + 1, stride)) | {g.num_steps})
    assert list(times) == [k * g.dt for k in steps]
    assert S.recorded_steps(g.num_steps, stride) == steps
    assert len(u) == len(steps)


def test_ensemble_blow_up_names_the_path():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.05, t_max=0.5)
    s = S.make_samplers(S.Coefficients(b2=1.0), g)
    init = _state(g, make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.4), None, s)
    paths = [sample_brownian(1, g.dt, g.t_max, stream=p) for p in range(3)]
    paths[2] = S.BrownianPath(dt=g.dt, increments=np.full(g.num_steps, 1e300), stream=2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(S.BlowUpError, match="on path 2 at step"):
        S.solve(init, s, g, paths, _snapshots, support_guard=False)


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

    s = S.make_samplers(co, g)
    init = _state(g, bump(amp0), bump(amp1), s)
    paths = [sample_brownian(1, g.dt, g.t_max, stream=p) for p in range(3)]
    paths[hot] = S.BrownianPath(dt=g.dt, increments=np.full(g.num_steps, dw), stream=hot)
    with np.errstate(all="ignore"), pytest.raises(S.BlowUpError) as info:
        S.solve(init, s, g, paths, _snapshots, support_guard=False)
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


# ---------------------------------------------------------------------------
# The box of live nodes: every recorded state equals the whole-grid march bit for bit
# ---------------------------------------------------------------------------


def _whole_interior(u, ut, grid):
    return tuple((1, m - 2) for m in grid.shape)


def _bump(n, amp, centre, radius):
    return make_fn("space_bump4", n, amp=amp, **{f"{k}{j + 1}": v for j in range(n) for k, v in (("cx", centre), ("rx", radius))})


def _counting_steps(monkeypatch) -> list:
    """Wrap step_arrays so that each call appends the size of the u it steps."""
    sizes = []
    original = S.step_arrays

    def counted(u, *args):
        sizes.append(u.size)
        return original(u, *args)

    monkeypatch.setattr(S, "step_arrays", counted)
    return sizes


def _bytes_of_every_record(init, samplers, g, paths, **kwargs):
    """The bytes of the record times and of each output of a reduce that keeps u,
    u_t, the row sums of u and a view of u at one node, for every path and record."""
    node = (slice(None),) + tuple(m // 3 for m in g.shape)

    def reduce(k, state):
        return state.u, state.ut, S.row_sums(state.u), state.u[node]

    times, outs = S.solve(init, samplers, g, paths, reduce, **kwargs)
    return [times.tobytes()] + [out.tobytes() for out in outs]


def _box_and_whole(monkeypatch, init, samplers, g, paths, **kwargs):
    """(bytes, node-steps) of the box march and of the march with the box forced to the whole interior."""
    sizes = _counting_steps(monkeypatch)
    box = _bytes_of_every_record(init, samplers, g, paths, **kwargs)
    box_steps = sum(sizes)
    sizes.clear()
    with monkeypatch.context() as patch:
        patch.setattr(S, "_live_box", _whole_interior)
        whole = _bytes_of_every_record(init, samplers, g, paths, **kwargs)
    assert sum(sizes) == len(paths) * g.num_nodes * g.num_steps
    return (box, box_steps), (whole, sum(sizes))


def _box_grid(n, half_width=1.0):
    # 41 nodes per axis at half width 1 in 1-D, 21 in 2-D; 40 and 16 steps
    if n == 1:
        return make_grid([(-half_width, half_width)], dx=0.05, dt=0.025, t_max=1.0)
    return make_grid([(-half_width, half_width)] * 2, dx=0.1, dt=0.05, t_max=0.8)


BOX_COEFFICIENTS = {
    "free": lambda n: S.Coefficients(),
    "noise": lambda n: S.Coefficients(b1=0.5, b2=-0.3),
    # frozen arrays of both signs and a negative b1: -0.0 products at zero nodes
    "frozen": lambda n: S.Coefficients(
        a1=_bump(n, -0.7, 0.2, 0.9),
        a2=tuple(_bump(n, 0.4 * (-1) ** j, -0.1, 0.8) for j in range(n)),
        a3=_bump(n, 2.0, 0.3, 0.5),
        b1=-0.4,
        b2=_bump(n, -1.5, -0.2, 0.6),
    ),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coeffs", sorted(BOX_COEFFICIENTS))
@pytest.mark.parametrize("data", ["u0", "u1", "both"])
def test_box_march_equals_the_whole_grid_march_bit_for_bit(monkeypatch, n, coeffs, data):
    # the box reaches the boundary ring on one side first, and then on every side
    g = _box_grid(n, half_width=1.5)
    s = S.make_samplers(BOX_COEFFICIENTS[coeffs](n), g)
    assert S._keeps_zero(s)
    # compact data; the negative u1 holds -0.0 off its support
    u0 = _bump(n, 1.0, 0.3, 0.2) if data != "u1" else None
    u1 = _bump(n, -2.0, 0.25, 0.15) if data != "u0" else None
    init = _state(g, u0, u1, s)
    paths = [sample_brownian(5, g.dt, g.t_max, stream=p) for p in range(3)]
    with np.errstate(all="ignore"):
        (box, box_steps), (whole, whole_steps) = _box_and_whole(monkeypatch, init, s, g, paths, stride=3, support_guard=False)
    assert box == whole
    assert box_steps < whole_steps


@pytest.mark.parametrize("n", [1, 2])
def test_box_march_of_all_zero_data_is_all_positive_zero(monkeypatch, n):
    g = _box_grid(n)
    s = S.make_samplers(BOX_COEFFICIENTS["frozen"](n), g)
    init = S.initial_state(g, None, None, s)
    paths = [sample_brownian(2, g.dt, g.t_max, stream=p) for p in range(2)]
    (box, box_steps), (whole, whole_steps) = _box_and_whole(monkeypatch, init, s, g, paths, stride=4)
    assert box == whole
    assert set(box[1]) == {0}  # every u is +0.0, not -0.0
    assert box_steps < 0.8 * whole_steps


@pytest.mark.parametrize("coeffs", [
    S.Coefficients(f=0.05),
    S.Coefficients(g=_bump(1, 1.0, -0.8, 0.1)),
    # 0.3 + 0.5 t depends on time
    S.Coefficients(b1=make_fn("affine", 1, c0=0.3, ct=0.5, cx1=0.0), b1_bound=0.8),
])
def test_a_source_or_a_time_dependent_coefficient_marches_the_whole_grid(monkeypatch, coeffs):
    g = _box_grid(1)
    s = S.make_samplers(coeffs, g)
    assert not S._keeps_zero(s)
    sizes = _counting_steps(monkeypatch)
    _solve(_state(g, _bump(1, 1.0, 0.3, 0.2), None, s), s, g, sample_brownian(3, g.dt, g.t_max), support_guard=False)
    assert sizes == [g.num_nodes] * g.num_steps


def test_the_box_grows_one_node_per_step_after_a_whole_grid_first_step(monkeypatch):
    g = _box_grid(1, half_width=2.0)
    s = S.make_samplers(S.Coefficients(b1=0.5), g)
    init = _state(g, _bump(1, 1.0, 0.3, 0.2), None, s)
    sizes = _counting_steps(monkeypatch)
    _solve(init, s, g, sample_brownian(3, g.dt, g.t_max), support_guard=False)
    # u0 is nonzero on nodes 42 .. 49 and, after the half step, u_t on 41 .. 50; the first
    # step, on the whole grid, leaves the box 41 .. 50
    assert sizes[0] == g.num_nodes
    assert sizes[1] == (50 - 41 + 1) + 2 * (1 + S.BOX_MARGIN)
    # re-embedded once per BOX_MARGIN steps until the working arrays hold the grid
    assert sizes[1 + S.BOX_MARGIN] > sizes[S.BOX_MARGIN] == sizes[1]
    assert sizes[1:] == sorted(sizes[1:]) and sizes[-1] == g.num_nodes
    assert sum(sizes) < 0.8 * g.num_nodes * g.num_steps


def test_an_infinite_frozen_coefficient_far_from_the_data_keeps_its_blow_up():
    # inf * 0 = NaN appears at the inf node on the first step, which is taken on the whole
    # grid; the message is the one the whole-grid march raised
    g = _box_grid(1)
    s = S.make_samplers(S.Coefficients(b1=0.5), g)
    a3 = np.zeros(g.shape)
    a3[3] = np.inf
    s["a3"] = lambda t: a3
    paths = [sample_brownian(4, g.dt, g.t_max, stream=p) for p in range(2, 5)]
    with np.errstate(all="ignore"), pytest.raises(S.BlowUpError) as info:
        init = _state(g, _bump(1, 1.0, 0.3, 0.2), None, s)
        S.solve(init, s, g, paths, _snapshots, support_guard=False)
    assert str(info.value) == "non-finite field on path 2 at step 1 (t = 0.025)"


@pytest.mark.parametrize("u0", ["bump", "standing_wave"])
def test_a_reduce_that_returns_views_keeps_its_own_steps_values(u0):
    # ucp-decay's reduce returns state.u[mid], a view: no state is written after its
    # reduce, on the box (bump) and on the whole grid (standing wave) alike
    g = _box_grid(1)
    s = S.make_samplers(S.Coefficients(b1=0.5), g)
    fn = _bump(1, 1.0, 0.3, 0.2) if u0 == "bump" else make_fn("standing_wave", 1)
    init = _state(g, fn, None, s)
    node = (slice(None), 26)
    paths = [sample_brownian(6, g.dt, g.t_max, stream=p) for p in range(3)]
    _, (views, ut_views) = S.solve(init, s, g, paths, lambda k, st: (st.u[node], st.ut), stride=2, support_guard=False)
    _, (copies, ut_copies) = S.solve(
        init, s, g, paths, lambda k, st: (st.u[node].copy(), st.ut.copy()), stride=2, support_guard=False
    )
    assert views.tobytes() == copies.tobytes() and ut_views.tobytes() == ut_copies.tobytes()
    assert len(set(views[0].tolist())) > 2


def test_ring_max_takes_every_boundary_slab():
    arr = np.zeros((2, 7, 6))
    arr[0, 1, 3] = -4.0   # inside two layers of the x1 = lo edge
    arr[1, 4, 4] = 3.0    # inside two layers of the x2 = hi edge
    arr[1, 3, 2] = 9.0    # interior: not counted
    assert S._ring_max(arr, 2, 2).tolist() == [4.0, 3.0]
    assert S._ring_max(arr, 2, 1).tolist() == [0.0, 0.0]
    assert float(S._ring_max(arr[1], 2, 3)) == 9.0
