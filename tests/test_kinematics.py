import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import relmech as rm
from relmech.errors import (
    ConstraintUnreachable,
    DimensionMismatch,
    NonMonotoneTime,
    ProjectiveInfinity,
    ZeroTimeVelocity,
    ZeroVector,
)

from conftest import CHART_FIELDS, chart_field, random_point, random_state, same_bits

LN2 = math.log(2.0)


# -- projection to three-velocities -----------------------------------------

def test_three_from_four_examples():
    s = rm.FourState(np.zeros(4), np.array([2.0, 1.0, 0.0, 0.0]))
    npt.assert_array_equal(rm.three_from_four(s).v, [0.5, 0.0, 0.0])
    s = rm.FourState(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    npt.assert_array_equal(rm.three_from_four(s).v, [0.0, 0.0, 0.0])
    s = rm.FourState(np.zeros(4), np.array([-1.0, 0.5, 0.0, 0.0]))
    npt.assert_array_equal(rm.three_from_four(s).v, [-0.5, 0.0, 0.0])


def test_three_from_four_zero_time():
    with pytest.raises(ZeroTimeVelocity):
        rm.three_from_four(rm.FourState(np.zeros(4), np.array([0.0, 1.0, 0, 0])))


def test_three_from_four_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = rng.standard_normal(4)
        u[0] = math.copysign(1.0 + abs(u[0]), u[0])
        x = rng.uniform(-1, 1, 4)
        base = rm.three_from_four(rm.FourState(x, u)).v
        # power-of-two scaling is exact in binary floating point
        half = rm.three_from_four(rm.FourState(x, 0.5 * u)).v
        npt.assert_array_equal(half, base)
        # generic factors can shift the quotient by an ulp
        tripled = rm.three_from_four(rm.FourState(x, -3.0 * u)).v
        npt.assert_allclose(tripled, base, rtol=5e-16, atol=0)


# -- lift to four-velocities --------------------------------------------------

def test_four_from_three_rest(mink_gf):
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))
    npt.assert_array_equal(rm.four_from_three(t, mink_gf, 1).u, [1, 0, 0, 0])


def test_four_from_three_derived_case(mink_gf):
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0.0, 0.0]))
    s = rm.four_from_three(t, mink_gf, 1)
    npt.assert_allclose(s.u, [1.25, 0.75, 0.0, 0.0], rtol=1e-15)
    npt.assert_allclose(rm.g_value(mink_gf, s.x, s.u), 1.0, rtol=1e-14)


def test_four_from_three_branches(mink_gf):
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0.0, 0.0]))
    down = rm.four_from_three(t, mink_gf, -1)
    npt.assert_allclose(down.u, [-1.25, -0.75, 0.0, 0.0], rtol=1e-15)


def test_four_from_three_null_unreachable(mink_gf):
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ConstraintUnreachable):
        rm.four_from_three(t, mink_gf, 1)


def test_round_trip_minkowski_and_schwarzschild(mink, schw):
    rng = np.random.default_rng(1)
    for metric in (mink, schw):
        gf = rm.GTensorField.from_metric(metric)
        for _ in range(1000):
            x = random_point(metric, rng)
            g = rm.metric_at(metric, x)
            # sub-shell three-velocity: frame components with summed squares
            # below 1 stay inside the local light cone
            d = np.diag(g)
            v = rng.uniform(-0.5, 0.5, 3) * np.sqrt(d[0] / np.abs(d[1:]))
            t = rm.ThreeVelocity(x[0], x[1:], v)
            sign = 1 if rng.random() < 0.5 else -1
            s = rm.four_from_three(t, gf, sign)
            assert abs(rm.g_value(gf, s.x, s.u) - 1.0) <= 1e-12
            back = rm.three_from_four(s)
            npt.assert_allclose(back.v, v, rtol=1e-12, atol=1e-12)


# -- projective chart transitions ---------------------------------------------

def test_projective_identity_chart():
    ident = rm.ChartTransition(map=lambda x: x.copy(), jacobian=lambda x: np.eye(4))
    t = rm.ThreeVelocity(0.3, np.array([1.0, 2.0, 3.0]), np.array([0.1, -0.2, 0.5]))
    out = rm.projective_transform(ident, t)
    npt.assert_array_equal(out.v, t.v)
    npt.assert_array_equal(out.point, t.point)


def test_projective_boost_rest_state():
    boost = rm.lorentz_boost_transition(LN2)
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))
    out = rm.projective_transform(boost, t)
    npt.assert_allclose(out.v, [-0.6, 0.0, 0.0], rtol=1e-15)


def test_projective_light_speed_invariant():
    boost = rm.lorentz_boost_transition(0.83)
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    out = rm.projective_transform(boost, t)
    npt.assert_allclose(out.v, [1.0, 0.0, 0.0], rtol=1e-15)


def test_projective_singular_jacobian_rejected():
    squash = rm.ChartTransition(map=lambda x: 0.0 * x,
                                jacobian=lambda x: np.zeros((4, 4)))
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))
    with pytest.raises(rm.DomainError):
        rm.projective_transform(squash, t)


def test_three_velocity_entries_must_be_finite():
    with pytest.raises(ValueError):
        rm.ThreeVelocity(0.0, np.zeros(3), np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        rm.ThreeVelocity(np.nan, np.zeros(3), np.zeros(3))
    # each field, with each non-finite value, in any slot
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            rm.ThreeVelocity(bad, np.zeros(3), np.zeros(3))
        for k in range(3):
            with pytest.raises(ValueError, match="must be finite"):
                rm.ThreeVelocity(0.0, np.insert(np.zeros(2), k, bad), np.zeros(3))
            with pytest.raises(ValueError, match="must be finite"):
                rm.ThreeVelocity(0.0, np.zeros(3), np.insert(np.zeros(2), k, bad))
    # the shape check comes first; finite extremes pass
    with pytest.raises(DimensionMismatch):
        rm.ThreeVelocity(np.nan, np.zeros(2), np.zeros(3))
    t = rm.ThreeVelocity(-1.7e308, np.full(3, 1.7e308), np.array([5e-324, -0.0, 1.0]))
    assert t.q0 == -1.7e308 and np.all(t.q == 1.7e308)


def test_projective_infinity_raised():
    alpha = LN2
    # denominator ch - v1 sh vanishes at v1 = coth(alpha)
    t = rm.ThreeVelocity(0.0, np.zeros(3),
                         np.array([1.0 / math.tanh(alpha), 0.0, 0.0]))
    with pytest.raises(ProjectiveInfinity):
        rm.projective_transform(rm.lorentz_boost_transition(alpha), t)


# -- closed-form boost ---------------------------------------------------------

def test_boost_three_identity():
    v = np.array([0.1, 0.2, 0.3])
    npt.assert_array_equal(rm.boost_three(0.0, v), v)


def test_boost_three_derived_cases():
    npt.assert_allclose(rm.boost_three(LN2, np.zeros(3)), [-0.6, 0, 0], rtol=1e-15)
    npt.assert_allclose(rm.boost_three(LN2, np.array([0.0, 0.5, 0.0])),
                        [-0.6, 0.4, 0.0], rtol=1e-15)


def test_boost_three_agrees_with_projective():
    rng = np.random.default_rng(2)
    for _ in range(300):
        alpha = rng.uniform(-2, 2)
        v = rng.uniform(-0.9, 0.9, 3)
        out = rm.boost_three(alpha, v)
        chart = rm.projective_transform(
            rm.lorentz_boost_transition(alpha),
            rm.ThreeVelocity(0.0, np.zeros(3), v))
        npt.assert_allclose(out, chart.v, atol=1e-14)


@given(alpha=st.floats(-2, 2), beta=st.floats(-2, 2),
       v1=st.floats(-0.9, 0.9), v2=st.floats(-0.9, 0.9), v3=st.floats(-0.9, 0.9))
@settings(max_examples=300, deadline=None)
def test_boost_rapidity_additivity(alpha, beta, v1, v2, v3):
    v = np.array([v1, v2, v3])
    two_step = rm.boost_three(alpha, rm.boost_three(beta, v))
    one_step = rm.boost_three(alpha + beta, v)
    npt.assert_allclose(two_step, one_step, atol=1e-10)


def test_boost_commutes_with_projection():
    # linear action on four-velocities, projective action on three-velocities
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = rng.standard_normal(4)
        u[0] = math.copysign(1.0 + abs(u[0]), u[0])
        u[1:] *= 0.5  # keep timelike and away from the projective horizon
        alpha = rng.uniform(-1.5, 1.5)
        left = rm.three_from_four(rm.FourState(np.zeros(4), rm.boost_four(alpha, u)))
        right = rm.projective_transform(
            rm.lorentz_boost_transition(alpha),
            rm.three_from_four(rm.FourState(np.zeros(4), u)))
        npt.assert_allclose(left.v, right.v, atol=1e-12)


# -- jet equivalence -----------------------------------------------------------

def test_same_jet_examples():
    assert rm.same_jet(np.array([1.0, 2, 0, 0]), np.array([-2.0, -4, 0, 0]))
    assert not rm.same_jet(np.array([1.0, 0, 0, 0]),
                           np.array([1.0, 1e-3, 0, 0]), tol=1e-9)
    assert rm.same_jet(np.array([3.0, 6, 9, 12]), np.array([1.0, 2, 3, 4]))


def test_same_jet_zero_rejected():
    with pytest.raises(ZeroVector):
        rm.same_jet(np.zeros(4), np.ones(4))


@given(r=st.floats(min_value=-100, max_value=100).filter(lambda r: abs(r) > 1e-6),
       seed=st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_same_jet_scaling_property(r, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(4) + 0.1
    assert rm.same_jet(u, r * u)


def test_same_jet_detects_orthogonal_perturbation():
    rng = np.random.default_rng(4)
    tol = 1e-10
    for _ in range(100):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        e = rng.standard_normal(4)
        e -= (e @ u) * u
        e /= np.linalg.norm(e)
        w = u + 10 * math.sqrt(tol) * e
        assert not rm.same_jet(u, w, tol=tol)


# -- lifting chart-time solutions ---------------------------------------------

def test_lift_rest_particle(mink_gf):
    q0s = np.linspace(0.0, 1.0, 11)
    samples = [rm.ThreeVelocity(q0, np.zeros(3), np.zeros(3)) for q0 in q0s]
    traj = rm.lift_three_solution(samples, mink_gf, 1)
    npt.assert_allclose(traj.tau, q0s, atol=1e-15)
    npt.assert_allclose(traj.x[:, 0], q0s, atol=0)
    assert np.all(traj.x[:, 1:] == 0.0)
    assert traj.max_constraint_drift <= 1e-12


def test_lift_constant_velocity_time_dilation(mink_gf):
    q0s = np.linspace(0.0, 1.0, 101)
    samples = [rm.ThreeVelocity(q0, np.array([0.6 * q0, 0.0, 0.0]),
                                np.array([0.6, 0.0, 0.0])) for q0 in q0s]
    traj = rm.lift_three_solution(samples, mink_gf, 1)
    # constant integrand: trapezoid is exact, tau(1) = sqrt(1 - 0.36)
    npt.assert_allclose(traj.tau[-1], 0.8, rtol=1e-12)
    assert traj.max_constraint_drift <= 1e-12


def test_lift_rejects_decreasing_time(mink_gf):
    samples = [rm.ThreeVelocity(1.0, np.zeros(3), np.zeros(3)),
               rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))]
    with pytest.raises(NonMonotoneTime):
        rm.lift_three_solution(samples, mink_gf, 1)


def test_lift_negative_branch_keeps_tau_increasing(mink_gf):
    q0s = np.linspace(0.0, 1.0, 21)
    samples = [rm.ThreeVelocity(q0, np.array([0.3 * q0, 0, 0]),
                                np.array([0.3, 0, 0])) for q0 in q0s]
    traj = rm.lift_three_solution(samples, mink_gf, -1)
    assert np.all(np.diff(traj.tau) > 0)
    assert np.all(traj.u[:, 0] < 0)
    assert traj.max_constraint_drift <= 1e-12


def _reference_lift(samples, gfield, sign=1):
    """``lift_three_solution`` as a per-sample loop of ``four_from_three`` and
    ``g_value``, as it stood before the batched lift; kept as the reference."""
    pts = [s if isinstance(s, rm.ThreeVelocity) else rm.ThreeVelocity(*s)
           for s in samples]
    if not pts:
        raise ValueError("need at least one sample")
    q0s = np.array([p.q0 for p in pts])
    if q0s.size > 1 and not np.all(np.diff(q0s) > 0.0):
        raise NonMonotoneTime("chart time samples must be strictly increasing")

    states = [rm.four_from_three(p, gfield, sign) for p in pts]
    dtau_dq0 = np.array([1.0 / s.u[0] for s in states])

    tau = np.zeros(q0s.size)
    if q0s.size > 1:
        increments = 0.5 * (dtau_dq0[1:] + dtau_dq0[:-1]) * np.diff(q0s)
        tau[1:] = np.cumsum(increments)

    xs = np.stack([s.x for s in states])
    us = np.stack([s.u for s in states])
    gs = np.array([rm.g_value(gfield, s.x, s.u) for s in states])

    if sign < 0 and q0s.size > 1:
        tau, xs, us, gs = tau[::-1].copy(), xs[::-1].copy(), us[::-1].copy(), gs[::-1].copy()
    return tau, xs, us, gs, float(np.max(np.abs(gs - 1.0)))


def _chart_samples(metric, gfield, rng, count):
    """``count`` three-velocity samples at increasing chart times."""
    q0s = np.cumsum(rng.uniform(0.01, 0.5, count)) - 1.0
    out = []
    for q0 in q0s:
        x, u = random_state(metric, gfield, rng)
        v = u[1:] / u[0]
        zeroed = np.where(rng.random(v.size) < 0.5, 0.0, v)
        if rng.random() < 0.2 and rm.g_value(gfield, x, np.concatenate(([1.0], zeroed))) > 0.05:
            v = zeroed
        out.append(rm.ThreeVelocity(q0, x[1:], v))
    return out


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("field", CHART_FIELDS)
def test_lift_bits_equal_per_sample_loop(request, field, sign):
    metric, gf = chart_field(request, field)
    rng = np.random.default_rng([sign + 1, CHART_FIELDS.index(field)])
    for count in (1, 2, 57):
        samples = _chart_samples(metric, gf, rng, count)
        traj = rm.lift_three_solution(samples, gf, sign)
        got = (traj.tau, traj.x, traj.u, traj.G, traj.max_constraint_drift)
        for a, b in zip(got, _reference_lift(samples, gf, sign)):
            assert same_bits(a, b)


def _raises_as_reference(samples, gfield, sign=1):
    with pytest.raises(Exception) as expected:
        _reference_lift(samples, gfield, sign)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        rm.lift_three_solution(samples, gfield, sign)
    return expected.value


def test_lift_failures_equal_per_sample_loop(mink_gf, schw_gf):
    def at(q0, v, r=10.0):
        return rm.ThreeVelocity(q0, np.array([r, 1.2, 0.3]), np.asarray(v, float))

    still = [at(0.1 * k, [0.1, 0.0, 0.0]) for k in range(10)]
    # the first sample with Gbar <= 0 is named, with its own Gbar
    bad = list(still)
    bad[4] = at(0.4, [2.0, 0.0, 0.0])
    bad[7] = at(0.7, [0.0, 3.0, 0.0])
    assert isinstance(_raises_as_reference(bad, mink_gf), ConstraintUnreachable)
    assert isinstance(_raises_as_reference(bad, schw_gf, -1), ConstraintUnreachable)
    light = list(still)  # Gbar = 0 exactly, on the light cone
    light[3] = rm.ThreeVelocity(0.3, np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert isinstance(_raises_as_reference(light, mink_gf), ConstraintUnreachable)
    # Gbar <= 0 before a point outside the chart, and after it
    inside = list(bad)
    inside[6] = at(0.6, [0.1, 0.0, 0.0], r=1.0)
    assert isinstance(_raises_as_reference(inside, schw_gf), ConstraintUnreachable)
    inside[4] = still[4]
    assert isinstance(_raises_as_reference(inside, schw_gf), rm.DomainError)
    # a sign other than +-1, for good and bad samples alike
    assert isinstance(_raises_as_reference(still, mink_gf, 0), ValueError)
    assert isinstance(_raises_as_reference(bad, mink_gf, 0), ValueError)
    # samples of the wrong dimension: all of them, or one after a good one
    short = [rm.ThreeVelocity(0.1 * k, np.zeros(2), np.zeros(2)) for k in range(3)]
    assert isinstance(_raises_as_reference(short, mink_gf), DimensionMismatch)
    mixed = list(still)
    mixed[5] = rm.ThreeVelocity(0.5, np.zeros(2), np.zeros(2))
    assert isinstance(_raises_as_reference(mixed, mink_gf), DimensionMismatch)
    mixed[2] = at(0.2, [2.0, 0.0, 0.0])
    assert isinstance(_raises_as_reference(mixed, mink_gf), ConstraintUnreachable)
