import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.cones import (
    ConeSpec,
    GeometryError,
    c3_branches,
    c3_constant,
    cone_cross_offset,
    cone_time_offset,
    membership,
    steps_for_radius,
    sweep_cover,
    vertex,
)
from carleman_lab.fields import ConfigurationError


K_FRAC = math.sqrt(1.5) - 1.0


def test_c3_at_alpha_one_oracle_value():
    assert c3_constant(1.0, 1.0) == 513.0


def test_c3_at_alpha_half():
    assert c3_constant(0.5, 1.0) == 4097.0


def test_c3_branch_homogeneity_in_c1():
    b_small = c3_branches(0.7, 1.0)
    b_big = c3_branches(0.7, 2.0)
    assert b_small[0] / b_big[0] == pytest.approx(16.0, rel=1e-14)
    assert b_small[1] / b_big[1] == pytest.approx(16.0, rel=1e-14)


def test_c3_domain_validation():
    with pytest.raises(ConfigurationError):
        c3_constant(1.5, 1.0)
    with pytest.raises(ConfigurationError):
        c3_constant(0.5, 0.0)


def test_vertex_alpha_one_oracle():
    c3 = 513.0
    x0 = np.array([0.0, 0.0])
    x1 = np.array([2.0 * math.sqrt(c3), 0.0])
    t2, x2 = vertex(0.0, x0, x1, 1.0, c3)
    assert t2 == pytest.approx(2.0 * math.sqrt(c3) * (2.0 - math.sqrt(1.5)), rel=1e-12)
    # both defining equations hold to 1e-9 relative
    r1 = 1.0 * t2**2 - float(np.sum((x2 - x0) ** 2))
    r2 = 0.5 * t2**2 - float(np.sum((x2 - x1) ** 2)) - c3
    scale = max(1.0, t2**2, c3)
    assert abs(r1) <= 1e-9 * scale and abs(r2) <= 1e-9 * scale


def test_vertex_interpolation_fraction():
    c3 = c3_constant(0.8, 1.5)
    x0, x1 = np.array([0.0]), np.array([2.0 * math.sqrt(c3)])
    _, x2 = vertex(0.0, x0, x1, 0.8, c3)
    frac = float((x2[0] - x1[0]) / (x0[0] - x1[0]))
    assert frac == pytest.approx(K_FRAC, rel=1e-12)


def test_vertex_translation_invariance():
    alpha, c1 = 0.6, 1.2
    c3 = c3_constant(alpha, c1)
    x0 = np.array([0.0])
    x1 = x0 + 2.0 * math.sqrt(c3)
    t2a, x2a = vertex(0.0, x0, x1, alpha, c3)
    shift = 3.7
    t2b, x2b = vertex(1.5, x0 + shift, x1 + shift, alpha, c3)
    assert (t2b - 1.5) == pytest.approx(t2a - 0.0, rel=1e-12)
    assert float(np.abs((x1 + shift) - x2b)[0]) == pytest.approx(float(np.abs(x1 - x2a)[0]), rel=1e-12)
    assert cone_time_offset(alpha, c3) == pytest.approx(t2a, rel=1e-12)
    assert cone_cross_offset(c3) == pytest.approx(float(np.abs(x1 - x2a)[0]), rel=1e-12)


def test_vertex_requires_separation():
    with pytest.raises(GeometryError, match="4 c3"):
        vertex(0.0, np.array([0.0]), np.array([1.0]), 0.5, c3_constant(0.5, 1.0))


def test_membership_apex_is_boundary():
    q0 = ConeSpec("Q0", 0.0, (0.0,), 0.5, 0.0)
    assert membership(0.0, [0.0], q0) == "boundary"


def test_membership_before_apex_time_is_outside():
    q0 = ConeSpec("Q0", 1.0, (0.0,), 0.5, 0.0)
    q1 = ConeSpec("Q1", 1.0, (3.0,), 0.5, 2.0)
    assert membership(0.5, [0.0], q0) == "outside"
    assert membership(0.5, [3.0], q1) == "outside"


def test_membership_witness_segment():
    alpha, c1 = 0.9, 2.0
    c3 = c3_constant(alpha, c1)
    x0 = np.array([0.0])
    x1 = np.array([2.0 * math.sqrt(c3)])
    t2, _ = vertex(0.0, x0, x1, alpha, c3)
    q0 = ConeSpec("Q0", 0.0, tuple(x0), alpha, 0.0)
    q1 = ConeSpec("Q1", 0.0, tuple(x1), alpha, c3)
    for ktilde in np.linspace(-0.98 * K_FRAC, 0.98 * K_FRAC, 20):
        x = x1 + ktilde * (x0 - x1)
        assert membership(t2, x, q1) == "inside"
        assert membership(t2, x, q0) == "outside"


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 6.0, allow_nan=False), st.floats(-4.0, 4.0, allow_nan=False))
def test_membership_consistency(t, x):
    cone = ConeSpec("Q0", 0.0, (0.5,), 0.7, 0.0)
    cls = membership(t, [x], cone)
    val = cone.value(t, [x])
    if cls == "inside":
        assert val > 0.0 and t >= 0.0
    elif cls == "boundary":
        assert abs(val) <= 1e-10 * max(1.0, abs(val)) + 1e-6 or t <= 1e-10


def test_vertex_minimality_dense_sampling():
    alpha, c1 = 0.9, 2.0
    c3 = c3_constant(alpha, c1)
    x0 = np.array([0.0])
    x1 = np.array([2.0 * math.sqrt(c3)])
    t2, _ = vertex(0.0, x0, x1, alpha, c3)
    q1 = ConeSpec("Q1", 0.0, tuple(x1), alpha, c3)
    # sample the Q0 boundary densely; the intersection with closure(Q1) never
    # dips below t2 - 1e-6
    ts = np.linspace(0.5 * t2, 2.0 * t2, 100_000)
    hit_times = []
    for s in (-1.0, 1.0):
        xs = x0[0] + s * math.sqrt(alpha) * ts
        vals = alpha * ts**2  # on the boundary |x - x0|^2 = alpha t^2
        q1_vals = 0.5 * alpha * ts**2 - (xs - x1[0]) ** 2 - c3
        mask = q1_vals >= -1e-12 * max(1.0, c3)
        if mask.any():
            hit_times.append(float(np.min(ts[mask])))
    assert min(hit_times) >= t2 - 1e-6


def test_sweep_radius_schedule():
    alpha, c1 = 0.9, 2.0
    c3 = c3_constant(alpha, c1)
    t0_off = cone_time_offset(alpha, c3)
    x0_off = cone_cross_offset(c3)
    states = sweep_cover(alpha, c1, target_t=3.0 * t0_off, mesh=5e-3, direction=[1.0])
    for k, s in enumerate(states, start=1):
        assert s.step == k
        assert s.radius_offset == pytest.approx(k * x0_off, rel=1e-12)
        assert s.min_sample_time >= t0_off - 1e-6
        assert s.samples_checked > 0


def test_steps_for_radius_arithmetic():
    alpha, c1 = 0.9, 2.0
    c3 = c3_constant(alpha, c1)
    t0_off = cone_time_offset(alpha, c3)
    x0_off = cone_cross_offset(c3)
    base = math.sqrt(alpha) * t0_off
    for extra in (0.5, 1.0, 2.5, 7.3):
        r = base + extra * x0_off
        assert steps_for_radius(r, alpha, c1) == math.ceil(extra - 1e-12)


def test_sweep_rejects_small_target():
    with pytest.raises(GeometryError):
        sweep_cover(0.9, 2.0, target_t=0.1, mesh=1e-2, direction=[1.0])


def test_sweep_two_dimensional():
    states = sweep_cover(0.9, 2.0, target_t=2.0 * cone_time_offset(0.9, c3_constant(0.9, 2.0)), mesh=3e-2, direction=[1.0, 0.0])
    assert len(states) >= 1
    assert all(s.samples_checked > 0 for s in states)


def test_cone_spec_validation():
    with pytest.raises(ConfigurationError):
        ConeSpec("Q2", 0.0, (0.0,), 0.5, 0.0)
    with pytest.raises(ConfigurationError):
        ConeSpec("Q0", 0.0, (0.0,), 1.5, 0.0)
    with pytest.raises(ConfigurationError):
        ConeSpec("Q1", 0.0, (0.0,), 0.5, -1.0)
