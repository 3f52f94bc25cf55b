import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.fields import ConfigurationError, make_fn, make_grid, sample_brownian
from carleman_lab import solver as S
from carleman_lab.propagation import (
    EnergyTrace,
    Mollifier,
    SupportSet,
    contains,
    distance_to_set,
    local_energy,
    outside_energy,
    run_propagation,
)


BALL = SupportSet(balls=(((0.0,), 0.2),))


def test_distance_inside_is_zero():
    assert distance_to_set(np.array([[0.1]]), BALL)[0] == 0.0
    assert distance_to_set(np.array([[0.0]]), BALL)[0] == 0.0


def test_distance_to_ball_example():
    assert distance_to_set(np.array([[0.5]]), BALL)[0] == pytest.approx(0.3, abs=1e-15)


def test_distance_two_components_takes_min():
    two = SupportSet(balls=(((0.0,), 0.2), ((1.0,), 0.1)))
    assert distance_to_set(np.array([[0.6]]), two)[0] == pytest.approx(0.3, abs=1e-12)


def test_distance_to_box():
    box = SupportSet(boxes=(((-0.1, -0.1), (0.1, 0.1)),))
    assert distance_to_set(np.array([[0.4, 0.0]]), box)[0] == pytest.approx(0.3, abs=1e-15)
    assert distance_to_set(np.array([[0.2, 0.2]]), box)[0] == pytest.approx(np.sqrt(2) * 0.1, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
def test_distance_is_lipschitz_one(x1, y1, x2, y2):
    two = SupportSet(balls=(((0.3, -0.2), 0.25),), boxes=(((-1.0, -1.0), (-0.5, -0.5)),))
    a = np.array([[x1, y1]])
    b = np.array([[x2, y2]])
    da, db = distance_to_set(a, two)[0], distance_to_set(b, two)[0]
    assert abs(da - db) <= np.linalg.norm(a - b) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1.5, allow_nan=False), st.floats(0, 1.5, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_inflations_are_monotone(r, s, x):
    lo, hi = min(r, s), max(r, s)
    if contains(np.array([[x]]), BALL, lo)[0]:
        assert contains(np.array([[x]]), BALL, hi)[0]


def test_mollifier_four_conditions_on_dense_sample():
    m = Mollifier()
    s = np.linspace(-5.0, 5.0, 10_000)
    vals = m(s)
    assert m(0.0) == 0.0
    assert np.all(vals[s > 0] > 0.0)
    assert np.all(vals[s <= 0] == 0.0)
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-15)
    assert np.all(m.derivative(s) >= 0.0)


def test_local_energy_zero_state():
    g = make_grid([(-1.0, 1.0)], dx=0.1, dt=0.05, t_max=0.1)
    state = S.WaveState(u=np.zeros(g.shape), ut=np.zeros(g.shape), time=0.0)
    assert local_energy(state, BALL, 0.0, g) == 0.0


def test_local_energy_vanishes_when_mass_inside_cone():
    g = make_grid([(-1.0, 1.0)], dx=0.01, dt=0.005, t_max=0.1)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    init = S.initial_state(g, u0, None)
    # d_K - t <= 0 on the support (and on its one-cell stencil spill), so the
    # mollified weight vanishes identically
    wide = SupportSet(balls=(((0.0,), 0.3),))
    assert local_energy(init, wide, 0.0, g) == 0.0
    assert local_energy(init, BALL, 0.1, g) == 0.0


def test_local_energy_weight_at_unit_distance():
    g = make_grid([(-2.0, 2.0)], dx=0.01, dt=0.005, t_max=0.1)
    point_mass = SupportSet(balls=(((-1.5,), 1e-9),))
    # concentrate u_t = 1 on a narrow bump at distance ~1 from the support
    u1 = make_fn("space_bump4", 1, amp=1.0, cx1=-0.5, rx1=0.04)
    init = S.initial_state(g, None, u1)
    e = local_energy(init, point_mass, 0.0, g)
    m = Mollifier()
    dens = 0.5 * float(np.sum(init.ut**2) * g.cell_volume)
    # weight within [rho_m(0.92), rho_m(1.08)] window of the bump support
    assert m(0.92) * dens <= e <= m(1.08) * dens


def test_run_propagation_zero_data_trace_is_zero():
    g = make_grid([(-1.0, 1.0)], dx=0.05, dt=0.025, t_max=0.2)
    zero = make_fn("space_bump4", 1, amp=0.0, cx1=0.0, rx1=0.2)
    trace = run_propagation(g, BALL, zero, None, S.Coefficients(b1=0.5), paths=3, seed=1)
    assert np.all(trace.mean == 0.0)
    assert np.all(trace.outside_mean == 0.0)
    assert trace.gronwall_constant == 0.0


def test_run_propagation_rejects_data_outside_support():
    g = make_grid([(-1.0, 1.0)], dx=0.05, dt=0.025, t_max=0.2)
    wide = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.5)
    with pytest.raises(ConfigurationError, match="supported"):
        run_propagation(g, BALL, wide, None, S.Coefficients(), paths=2, seed=1)


def _snapshots(k, state):
    return state.u, state.ut


def test_deterministic_dalembert_support_bound():
    # free wave from a bump in |x| <= 0.2: at t = 0.5 the energy beyond 0.75
    # is scheme leakage only
    g = make_grid([(-1.5, 1.5)], dx=0.005, dt=0.0025, t_max=0.5)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    init = S.initial_state(g, u0, None)
    _, (us, uts) = S.solve(init, S.Coefficients(), g, [sample_brownian(1, g.dt, g.t_max)], _snapshots, stride=g.num_steps)
    u, ut = us[0, -1], uts[0, -1]
    state = S.WaveState(u=u, ut=ut, time=0.5)
    total = S.total_energy(init, g)
    x = g.meshgrid()[0]
    mask = np.abs(x) > 0.75
    beyond = 0.5 * float(np.sum(S.energy_density(u, ut, g)[mask])) * g.cell_volume
    assert beyond <= 1e-8 * total


def test_noisy_propagation_outside_energy_small():
    g = make_grid([(-1.5, 1.5)], dx=0.01, dt=0.005, t_max=0.4)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    trace = run_propagation(g, BALL, u0, None, S.Coefficients(b1=0.5), paths=40, seed=3)
    ratio = float(np.max(trace.outside_mean)) / trace.total_initial
    assert ratio <= 1e-6
    assert isinstance(trace, EnergyTrace)
    assert np.all(trace.standard_error >= 0.0)


def test_gronwall_witness_positive_when_support_exceeds_k():
    # a deliberate witness run: K strictly smaller than the data support, so
    # the trace starts positive and the growth constant is finite
    g = make_grid([(-1.5, 1.5)], dx=0.01, dt=0.005, t_max=0.3)
    small_k = SupportSet(balls=(((0.0,), 0.05),))
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    # an amplifying zero-order term makes the weighted energy grow, so the
    # growth constant is strictly positive and finite
    trace = run_propagation(
        g, small_k, u0, None, S.Coefficients(a1=2.0, b1=0.3), paths=5, seed=5, require_support=False
    )
    assert trace.mean[0] > 0.0
    assert np.isfinite(trace.gronwall_constant)
    assert trace.gronwall_constant > 0.0


def test_two_dimensional_propagation_outside_energy_small():
    g = make_grid([(-1.0, 1.0), (-1.0, 1.0)], dx=0.025, dt=0.0125, t_max=0.25)
    k2 = SupportSet(balls=(((0.0, 0.0), 0.2),))
    bump = make_fn("space_bump4", 2, amp=1.0, cx1=0.0, cx2=0.0, rx1=0.2, rx2=0.2)
    trace = run_propagation(g, k2, bump, None, S.Coefficients(b1=0.5), paths=5, seed=2)
    assert float(np.max(trace.outside_mean)) / trace.total_initial <= 1e-6


def test_outside_energy_halo_monotone():
    g = make_grid([(-1.5, 1.5)], dx=0.01, dt=0.005, t_max=0.2)
    u0 = make_fn("space_bump4", 1, amp=1.0, cx1=0.0, rx1=0.2)
    init = S.initial_state(g, u0, None)
    e0 = outside_energy(init, BALL, 0.0, g, halo_cells=0)
    e3 = outside_energy(init, BALL, 0.0, g, halo_cells=3)
    assert e3 <= e0
