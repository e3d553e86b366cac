import math
import re
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import relmech as rm
import relmech.lagrangian as lagrangian
from relmech.checks import sample_point, sample_velocity
from relmech.errors import (DimensionMismatch, DomainError, NonMonotoneTime, NonPositiveG,
                            SingularMetric, StepRejected)
from relmech.geometry import contract_all, faraday_at

from conftest import (CHART_FIELDS, KEPT_CASES, chart_field, in_threads, random_state,
                      same_bits, stage_states, two_region_fields)
from test_cli import _reference_three_velocity

X0 = np.zeros(4)


@pytest.fixture(scope="module")
def free_model(mink_gf):
    return rm.LagrangianModel(mink_gf, rm.zero_potential(4), mass=1.0, charge=0.0)


@pytest.fixture(scope="module")
def charged_model(mink_gf, uniform_b):
    return rm.LagrangianModel(mink_gf, uniform_b, mass=1.0, charge=1.0)


@pytest.fixture(scope="module")
def schw_model(schw_gf):
    return rm.LagrangianModel(schw_gf, rm.zero_potential(4), mass=1.0, charge=0.0)


# -- Lagrangian values ---------------------------------------------------------

def test_value_rest_particle(free_model):
    assert rm.lagrangian_value(free_model, X0, np.array([1.0, 0, 0, 0])) == 1.0


def test_value_degree_one(free_model):
    assert rm.lagrangian_value(free_model, X0, np.array([2.0, 0, 0, 0])) == 2.0


def test_value_with_constant_potential(mink_gf):
    pot = rm.PotentialField.from_function(4, lambda x: np.array([1.0, 0, 0, 0]))
    model = rm.LagrangianModel(mink_gf, pot, mass=1.0, charge=1.0)
    assert rm.lagrangian_value(model, X0, np.array([1.0, 0, 0, 0])) == 2.0


def test_value_rejects_nonpositive_form(free_model):
    with pytest.raises(NonPositiveG):
        rm.lagrangian_value(free_model, X0, np.array([1.0, 1.0, 0, 0]))


@given(r=st.floats(min_value=0.01, max_value=50.0), seed=st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_homogeneity_in_velocity(r, seed):
    gf = rm.GTensorField.from_metric(rm.minkowski())
    model = rm.LagrangianModel(gf, rm.uniform_field((0.1, 0, 0), (0, 0, 0.5)),
                               mass=1.3, charge=0.7)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, 4)
    u = 0.4 * rng.standard_normal(4)
    u[0] = math.copysign(1.0 + abs(u[0]), u[0])
    if rm.g_value(gf, x, u) <= 0.05:
        return
    base = rm.lagrangian_value(model, x, u)
    npt.assert_allclose(rm.lagrangian_value(model, x, r * u), r * base,
                        rtol=1e-12)


# -- reduced covector E ----------------------------------------------------------

def test_E_free_rest(free_model):
    e = rm.euler_lagrange_E(free_model, X0, np.array([1.0, 0, 0, 0]), np.zeros(4))
    npt.assert_array_equal(e, np.zeros(4))


def test_E_pure_acceleration(free_model):
    # constant metric: only the acceleration term survives, E = -eta a
    e = rm.euler_lagrange_E(free_model, X0, np.array([1.25, 0.75, 0, 0]),
                            np.array([0.0, 1.0, 0.0, 0.0]))
    npt.assert_allclose(e, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_E_vanishes_on_lorentz_force_solution(charged_model, mink_gf, uniform_b):
    u = np.array([1.25, 0.75, 0.0, 0.0])
    f = rm.faraday_at(uniform_b, X0)
    a = np.diag([1.0, -1, -1, -1]) @ f @ u
    e = rm.euler_lagrange_E(charged_model, X0, u, a)
    assert np.max(np.abs(e)) <= 1e-14


# -- full variational derivative -------------------------------------------------

def test_cal_E_zero_for_inertial_motion(free_model):
    res = rm.variational_derivative(free_model, X0, np.array([1.25, 0.75, 0, 0]),
                                    np.zeros(4))
    npt.assert_allclose(res.cal_E, np.zeros(4), atol=1e-15)
    assert res.G == 1.0


def test_projector_structure(mink_gf, schw_gf, n2_gfield):
    rng = np.random.default_rng(10)
    cases = [(rm.minkowski(), mink_gf), (rm.schwarzschild(1.0), schw_gf)]
    for metric, gf in cases:
        for _ in range(300):
            x, u = random_state(metric, gf, rng)
            gt = np.asarray(gf.value(x))
            g = float(contract_all(gt, u, 2))
            c = contract_all(gt, u, 1)
            proj = np.eye(4) - np.outer(u, c) / g
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-10
            assert np.max(np.abs(proj @ u)) <= 1e-10 * np.linalg.norm(u)


def test_cal_E_matches_direct_lagrange_form(charged_model, mink_gf, uniform_b):
    # independent expansion of d/dtau(dL/du) - dL/dx for the metric case N=1
    rng = np.random.default_rng(11)
    gf = mink_gf
    for _ in range(200):
        x = rng.uniform(-1, 1, 4)
        u = 0.4 * rng.standard_normal(4)
        u[0] = math.copysign(1.2 + abs(u[0]), u[0])
        g = rm.g_value(gf, x, u)
        if g <= 0.1:
            continue
        a = rng.standard_normal(4)
        res = rm.variational_derivative(charged_model, x, u, a)
        gt = np.asarray(gf.value(x))
        dg = np.asarray(gf.partials(x))
        c = gt @ u
        dg_full = np.einsum("lmn,m,n->l", dg, u, u)
        dg_tau = float(np.einsum("lmn,l,m,n->", dg, u, u, u)) + 2 * float(c @ a)
        dc_tau = np.einsum("lmn,l,n->m", dg, u, u) + gt @ a
        direct = (dg_full / (2 * math.sqrt(g))
                  - (dc_tau / math.sqrt(g) - 0.5 * c * dg_tau / g ** 1.5)
                  + rm.faraday_at(uniform_b, x) @ u)
        npt.assert_allclose(res.cal_E, direct, atol=1e-12)


def test_cal_E_against_action_variation():
    # finite-difference derivative of the action under a compact bump
    gf = rm.GTensorField.from_metric(rm.minkowski())
    pot = rm.uniform_field((0.2, 0.0, 0.0), (0.0, 0.0, 0.8))
    model = rm.LagrangianModel(gf, pot, mass=1.0, charge=1.0)

    def curve(t):
        return np.array([1.3 * t + 0.05 * t ** 2, 0.3 * t + 0.04 * t ** 3,
                         0.1 * t ** 2, 0.05 * t])

    def dcurve(t):
        return np.array([1.3 + 0.10 * t, 0.3 + 0.12 * t ** 2, 0.2 * t, 0.05])

    def ddcurve(t):
        return np.array([0.10, 0.24 * t, 0.2, 0.0])

    cdir = np.array([0.3, -0.7, 0.5, 0.2])
    taus = np.linspace(0.0, 1.0, 2001)
    wts = np.full(taus.size, 4.0)
    wts[0::2] = 2.0
    wts[0] = wts[-1] = 1.0
    wts *= (taus[1] - taus[0]) / 3.0

    def bump(t):
        return math.sin(math.pi * t) ** 2 * cdir

    def dbump(t):
        return 2 * math.sin(math.pi * t) * math.cos(math.pi * t) * math.pi * cdir

    def action(eps):
        return float(np.dot(wts, [
            rm.lagrangian_value(model, curve(t) + eps * bump(t),
                                dcurve(t) + eps * dbump(t)) for t in taus]))

    eps = 1e-6
    fd = (action(eps) - action(-eps)) / (2 * eps)
    analytic = float(np.dot(wts, [
        float(rm.variational_derivative(model, curve(t), dcurve(t),
                                        ddcurve(t)).cal_E @ bump(t))
        for t in taus]))
    npt.assert_allclose(fd, analytic, rtol=1e-6)


# -- reparameterization identity -------------------------------------------------

def test_noether_identity_schwarzschild(schw_model, schw, schw_gf):
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x, u = random_state(schw, schw_gf, rng)
        a = rng.standard_normal(4)
        assert rm.noether_residual(schw_model, x, u, a) <= 1e-10


def test_noether_identity_exact_at_rest(free_model):
    assert rm.noether_residual(free_model, X0, np.array([1.0, 0, 0, 0]),
                               np.zeros(4)) == 0.0


def test_noether_identity_n2(n2_gfield):
    model = rm.LagrangianModel(n2_gfield,
                               rm.uniform_field((0.3, 0, 0), (0, 0, 0.7)),
                               mass=1.0, charge=1.0)
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(1000):
        x = rng.uniform(-2, 2, 4)
        u = 0.5 * rng.standard_normal(4)
        u[0] = math.copysign(1.0 + abs(rng.standard_normal()), rng.standard_normal())
        if rm.g_value(n2_gfield, x, u) <= 0.1:
            continue
        a = rng.standard_normal(4)
        assert rm.noether_residual(model, x, u, a) <= 1e-9
        checked += 1
    assert checked > 500


def test_noether_identity_n2_hand_picked_point(n2_gfield):
    # one deterministic spot check against a fully explicit expansion
    model = rm.LagrangianModel(n2_gfield, rm.zero_potential(4), 1.0, 0.0)
    x = np.array([0.2, -0.4, 0.7, 0.1])
    u = np.array([1.3, 0.2, -0.1, 0.3])
    a = np.array([0.5, -0.2, 0.8, -0.4])
    res = rm.variational_derivative(model, x, u, a)
    gt = n2_gfield.value(x)
    g = float(np.einsum("abcd,a,b,c,d->", gt, u, u, u, u))
    c = np.einsum("abcd,b,c,d->a", gt, u, u, u)
    e_manual = (-3.0) * np.einsum("abcd,b,c,d->a", gt, a, u, u)
    npt.assert_allclose(res.E, e_manual, rtol=1e-12)
    cal_manual = (e_manual - (e_manual @ u) / g * c) * g ** (0.25 - 1.0)
    npt.assert_allclose(res.cal_E, cal_manual, rtol=1e-12)
    assert abs(res.cal_E @ u) <= 1e-12 * np.linalg.norm(res.cal_E) * np.linalg.norm(u)


# -- constraint --------------------------------------------------------------------

def test_constraint_examples(free_model, mink_gf):
    assert rm.constraint_value(free_model, X0, np.array([1.0, 0, 0, 0])) == 1.0
    assert rm.constraint_value(free_model, X0, np.zeros(4)) == 0.0
    eu_model = rm.LagrangianModel(rm.GTensorField.from_metric(rm.euclidean()),
                                  rm.zero_potential(4), 1.0, 0.0)
    npt.assert_allclose(
        rm.constraint_value(eu_model, X0, np.array([0.6, 0.8, 0.0, 0.0])), 1.0,
        rtol=1e-15)


# -- chart-local three-velocity picture ---------------------------------------------

def test_three_lagrangian_examples(free_model):
    rest = rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))
    assert rm.three_lagrangian_value(free_model, rest) == 1.0
    moving = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0, 0]))
    npt.assert_allclose(rm.three_lagrangian_value(free_model, moving), 0.8,
                        rtol=1e-15)
    null = rm.ThreeVelocity(0.0, np.zeros(3), np.array([1.0, 0, 0]))
    with pytest.raises(NonPositiveG):
        rm.three_lagrangian_value(free_model, null)


@pytest.mark.parametrize("metric", [rm.minkowski(), rm.schwarzschild(1.0)])
def test_three_lagrangian_value_is_the_lagrangian_at_unit_time_rate(metric):
    # at a nonzero charge, Lbar(q^0, q, v) = L(x, (1, v)) up to the order of
    # the coupling's sum: v . A_i + A_0 against (1, v) . A
    potential = rm.uniform_field((0.3, -0.2, 0.5), (1.0, 2.0, -0.7))
    model = rm.LagrangianModel(rm.GTensorField.from_metric(metric), potential, 1.3, 0.7)
    rng = np.random.default_rng(53)
    eps = float(np.finfo(float).eps)
    for _ in range(200):
        x = sample_point(metric, rng)
        u = sample_velocity(metric, x, rng)
        v = u[1:] / u[0]
        got = rm.three_lagrangian_value(model, rm.ThreeVelocity(x[0], x[1:], v))
        want = rm.lagrangian_value(model, x, np.concatenate(([1.0], v)))
        a = potential.value(x)
        scale = abs(want) + 0.7 * (abs(a[0]) + np.abs(v * a[1:]).sum())
        assert abs(got - want) <= 4 * eps * scale


def test_three_el_uniform_motion(free_model):
    t = rm.ThreeVelocity(0.0, np.array([1.0, 2.0, 3.0]), np.array([0.3, -0.2, 0.1]))
    out = rm.three_euler_lagrange(free_model, t, np.zeros(3))
    npt.assert_allclose(out, np.zeros(3), atol=1e-15)


def test_three_acceleration_circular_value(charged_model):
    # B = 1 along axis 3, v = (0.6, 0, 0): gamma dv/dq0 = B (v x zhat)-like
    # force, giving w = (0, 0.48, 0); cross-checked against the four-picture
    # where a = eta^{-1} F u has a^2 = 0.75 = gamma^2 w^2.
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0.0, 0.0]))
    w = rm.three_acceleration(charged_model, t)
    npt.assert_allclose(w, [0.0, 0.48, 0.0], atol=1e-14)
    resid = rm.three_euler_lagrange(charged_model, t, w)
    assert np.max(np.abs(resid)) <= 1e-14


def _three_acceleration_by_columns(model, t):
    """Reference solve: Ebar's coefficient matrix assembled column by column
    from n + 1 evaluations, since Ebar is affine in w."""
    n = t.v.size
    base = rm.three_euler_lagrange(model, t, np.zeros(n))
    mat = np.empty((n, n))
    for j in range(n):
        mat[:, j] = rm.three_euler_lagrange(model, t, np.eye(n)[j]) - base
    return np.linalg.solve(mat, -base), base


def test_three_acceleration_matches_column_construction(mink, mink_gf, schw,
                                                        schw_gf, n2_gfield):
    # the closed-form coefficient matrix on an N = 1 flat, an N = 1
    # x-dependent and an N = 2 form, all with a uniform E/B field
    field = rm.uniform_field((0.3, -0.2, 0.5), (0.1, 0.4, -0.7))
    rng = np.random.default_rng(17)
    for metric, gf in ((mink, mink_gf), (schw, schw_gf), (mink, n2_gfield)):
        model = rm.LagrangianModel(gf, field, mass=1.3, charge=0.7)
        for _ in range(200):
            x, u = random_state(metric, gf, rng)
            t = rm.ThreeVelocity(x[0], x[1:], u[1:] / u[0])
            w = rm.three_acceleration(model, t)
            ref, base = _three_acceleration_by_columns(model, t)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
            resid = rm.three_euler_lagrange(model, t, w)
            assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(base))


def test_three_el_consistent_with_full_derivative(charged_model, mink_gf):
    # lift (q0, q, v, w) to (x, u, a) with u0 = Gbar^(-1/2N) and a = du/dtau,
    # then calE_i must equal u0 * Ebar_i and calE_0 = -u0 v . Ebar
    rng = np.random.default_rng(14)
    gf = mink_gf
    for _ in range(300):
        q = rng.uniform(-1, 1, 3)
        v = rng.uniform(-0.6, 0.6, 3)
        w = rng.standard_normal(3)
        t = rm.ThreeVelocity(rng.uniform(-1, 1), q, v)
        x = t.point
        uhat = np.concatenate(([1.0], v))
        what = np.concatenate(([0.0], w))
        gbar = rm.g_value(gf, x, uhat)
        if gbar <= 0.05:
            continue
        gt = np.asarray(gf.value(x))
        dg = np.asarray(gf.partials(x))
        c = gt @ uhat
        dgbar_dx = np.einsum("lmn,m,n->l", dg, uhat, uhat)
        d0_gbar = dgbar_dx[0] + v @ dgbar_dx[1:] + 2.0 * float(c @ what)
        u0 = gbar ** -0.5
        d0_u0 = -0.5 * gbar ** -1.5 * d0_gbar
        u = u0 * uhat
        a = u0 * (d0_u0 * uhat + u0 * what)
        cal = rm.variational_derivative(charged_model, x, u, a).cal_E
        ebar = rm.three_euler_lagrange(charged_model, t, w)
        npt.assert_allclose(cal[1:], u0 * ebar, rtol=1e-9, atol=1e-12)
        npt.assert_allclose(cal[0], -u0 * float(v @ ebar), rtol=1e-9, atol=1e-12)


# -- determined equation and the two conservation statements -------------------------

def test_constraint_rate_identity(charged_model, n2_gfield):
    # d G / d tau = -(2N / (2N - 1)) u . E / mass, the relation that makes
    # solutions of E = 0 conserve the constraint
    models = [charged_model,
              rm.LagrangianModel(n2_gfield, rm.zero_potential(4), 1.0, 0.0)]
    rng = np.random.default_rng(16)
    for model in models:
        n2 = 2 * model.order_half
        gf = model.gfield
        for _ in range(200):
            x = rng.uniform(-1, 1, 4)
            u = 0.4 * rng.standard_normal(4)
            u[0] = math.copysign(1.3 + abs(u[0]), u[0])
            if rm.g_value(gf, x, u) <= 0.1:
                continue
            a = rng.standard_normal(4)
            e = rm.euler_lagrange_E(model, x, u, a)
            gt = np.asarray(gf.value(x))
            dg = np.asarray(gf.partials(x))
            c = contract_all(gt, u, n2 - 1)
            dg_tau = (float(contract_all(dg, u, n2) @ u)
                      + n2 * float(c @ a))
            lhs = float(u @ e) / model.mass
            rhs = -(n2 - 1) / n2 * dg_tau
            npt.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_four_acceleration_solves_E(charged_model):
    rng = np.random.default_rng(15)
    for _ in range(200):
        x = rng.uniform(-1, 1, 4)
        u = 0.4 * rng.standard_normal(4)
        u[0] = math.copysign(1.2 + abs(u[0]), u[0])
        if rm.g_value(charged_model.gfield, x, u) <= 0.1:
            continue
        a = rm.four_acceleration(charged_model, x, u)
        e = rm.euler_lagrange_E(charged_model, x, u, a)
        assert np.max(np.abs(e)) <= 1e-12


def _integrate_determined(model, x, u, dt, steps):
    """RK4 on the determined equation a = four_acceleration(x, u)."""
    for _ in range(steps):
        k1x, k1u = u, rm.four_acceleration(model, x, u)
        x2, u2 = x + 0.5 * dt * k1x, u + 0.5 * dt * k1u
        k2x, k2u = u2, rm.four_acceleration(model, x2, u2)
        x3, u3 = x + 0.5 * dt * k2x, u + 0.5 * dt * k2u
        k3x, k3u = u3, rm.four_acceleration(model, x3, u3)
        x4, u4 = x + dt * k3x, u + dt * k3u
        k4x, k4u = u4, rm.four_acceleration(model, x4, u4)
        x = x + (dt / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
        u = u + (dt / 6) * (k1u + 2 * k2u + 2 * k3u + k4u)
        yield x, u


def test_solutions_stay_on_shell(charged_model):
    # determined-equation solutions starting at G = 1 keep G = 1
    x = np.zeros(4)
    u = np.array([1.25, 0.75, 0.0, 0.0])
    worst = 0.0
    for x, u in _integrate_determined(charged_model, x, u, 1e-3, 10_000):
        worst = max(worst, abs(rm.constraint_value(charged_model, x, u) - 1.0))
    assert worst <= 1e-8


def test_on_shell_solutions_satisfy_reduced_equation(charged_model, mink_gf, uniform_b):
    # integrate the connection flow from the shell and evaluate E along it
    conn = rm.connection_from(rm.minkowski(), uniform_b, 1.0, 1.0)
    s0 = rm.FourState(np.zeros(4), np.array([1.25, 0.75, 0.0, 0.0]))
    traj = rm.integrate_geodesic(conn, mink_gf, s0, 1e-3, 10_000, "none", 100)
    worst = 0.0
    for k in range(len(traj)):
        a = rm.geodesic_rhs(conn, traj.x[k], traj.u[k])
        e = rm.euler_lagrange_E(charged_model, traj.x[k], traj.u[k], a)
        worst = max(worst, float(np.max(np.abs(e))))
    assert worst <= 1e-6


def test_n2_determined_flow_conserves_constraint(n2_gfield):
    model = rm.LagrangianModel(n2_gfield, rm.zero_potential(4), 1.0, 0.0)
    x = np.zeros(4)
    u = np.array([1.1, 0.2, -0.1, 0.15])
    u = u * rm.g_value(n2_gfield, x, u) ** -0.25
    assert abs(rm.g_value(n2_gfield, x, u) - 1.0) <= 1e-12
    worst = 0.0
    for x, u in _integrate_determined(model, x, u, 1e-3, 1000):
        worst = max(worst, abs(rm.g_value(n2_gfield, x, u) - 1.0))
    assert worst <= 1e-8


# -- the chart-local RHS against its reference form ------------------------------

def _reference_reduced_pieces(model, t):
    """``_reduced_pieces`` as it stood when every call evaluated G twice,
    kept verbatim as the reference for the bits of the one-pass helper."""
    gf = model.gfield
    x = t.point
    if x.size != gf.dim:
        raise DimensionMismatch(
            f"three-velocity lives in dimension {x.size}, model in {gf.dim}"
        )
    n2 = 2 * gf.order_half
    uhat = np.concatenate(([1.0], t.v))
    gt = np.asarray(gf.value(x), dtype=float)
    gbar = float(contract_all(gt, uhat, n2))
    if not gbar > 0.0:
        raise NonPositiveG(
            f"reduced form Gbar = {gbar:g} is not positive; the chart-local "
            "three-velocity picture breaks down here"
        )
    return x, uhat, gt, gbar, n2


def _reference_three_euler_lagrange(model, t, w):
    """``three_euler_lagrange`` before the shared helper, verbatim."""
    x, uhat, gt, gbar, n2 = _reference_reduced_pieces(model, t)
    w = np.asarray(w, dtype=float)
    if w.shape != t.v.shape:
        raise DimensionMismatch("w must match the shape of the three-velocity")
    what = np.concatenate(([0.0], w))

    dg = np.asarray(model.gfield.partials(x), dtype=float)
    g_red = contract_all(gt, uhat, n2 - 2)
    c = g_red @ uhat
    dgbar_coord = contract_all(dg, uhat, n2)
    # directional coordinate derivative along (1, v)
    dg_dir = dg[0] + np.tensordot(t.v, dg[1:], axes=(0, 0))
    dir_c = contract_all(dg_dir, uhat, n2 - 1)
    d0_c = dir_c + (n2 - 1) * (g_red @ what)
    d0_gbar = float(contract_all(dg_dir, uhat, n2)) + n2 * float(c @ what)

    e1 = 1.0 - 1.0 / n2
    momentum_rate = d0_c / gbar ** e1 - e1 * c * d0_gbar / gbar ** (e1 + 1.0)

    f = faraday_at(model.potential, x)
    force = f[1:, 1:] @ t.v + f[1:, 0]
    return (model.mass * (dgbar_coord[1:] / (n2 * gbar ** e1) - momentum_rate[1:])
            + model.charge * force)


def _reference_three_acceleration(model, t):
    """``three_acceleration`` before the shared helper, verbatim."""
    _, uhat, gt, gbar, n2 = _reference_reduced_pieces(model, t)
    base = _reference_three_euler_lagrange(model, t, np.zeros(t.v.size))
    g_red = contract_all(gt, uhat, n2 - 2)
    c = (g_red @ uhat)[1:]
    e1 = 1.0 - 1.0 / n2
    mat = -model.mass * ((n2 - 1) * g_red[1:, 1:] / gbar ** e1
                         - e1 * n2 * np.outer(c, c) / gbar ** (e1 + 1.0))
    return np.linalg.solve(mat, -base)


_CHART_POTENTIALS = {
    "zero": lambda: rm.zero_potential(4),
    "uniform": lambda: rm.uniform_field((0.3, -0.2, 0.5), (0.1, 0.4, -0.7)),
    "coulomb": lambda: rm.coulomb_potential(0.8, (5.0, 5.0, 5.0)),
}


@pytest.mark.parametrize("potential", sorted(_CHART_POTENTIALS))
@pytest.mark.parametrize("field", CHART_FIELDS)
def test_chart_local_rhs_bits_equal_reference(request, field, potential):
    # 1,000 states per field across the three potentials; a quarter of them
    # have zero velocity components or zero w, where signs of zeros show
    metric, gf = chart_field(request, field)
    model = rm.LagrangianModel(gf, _CHART_POTENTIALS[potential](), mass=1.3, charge=-0.7)
    rng = np.random.default_rng([CHART_FIELDS.index(field),
                                 sorted(_CHART_POTENTIALS).index(potential)])
    for k in range(334):
        x, u = random_state(metric, gf, rng)
        v = u[1:] / u[0]
        w = rng.standard_normal(3)
        if k % 4 == 0:
            zeroed = np.where(rng.random(3) < 0.5, 0.0, v)
            if rm.g_value(gf, x, np.concatenate(([1.0], zeroed))) > 0.05:
                v = zeroed
            w[rng.random(3) < 0.5] = 0.0
        if k % 8 == 0:
            w = np.zeros(3)
        t = rm.ThreeVelocity(x[0], x[1:], v)
        assert same_bits(rm.three_acceleration(model, t),
                         _reference_three_acceleration(model, t))
        assert same_bits(rm.three_euler_lagrange(model, t, w),
                         _reference_three_euler_lagrange(model, t, w))


def test_chart_local_rhs_bits_at_rest_and_origin(mink_gf, n2_gfield):
    # exact zeros everywhere: the outputs are zeros whose signs must match
    t = rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))
    for gf in (mink_gf, n2_gfield):
        for pot in (rm.zero_potential(4), rm.uniform_field((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))):
            for mass, charge in ((1.0, 0.0), (2.0, -1.0)):
                model = rm.LagrangianModel(gf, pot, mass=mass, charge=charge)
                assert same_bits(rm.three_acceleration(model, t),
                                 _reference_three_acceleration(model, t))
                for w in (np.zeros(3), np.array([0.0, -1.0, 0.0])):
                    assert same_bits(rm.three_euler_lagrange(model, t, w),
                                     _reference_three_euler_lagrange(model, t, w))


def test_chart_local_rhs_errors_equal_reference(free_model):
    # the dimension, Gbar and w-shape checks raise as they did, in the same order
    light = rm.ThreeVelocity(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    short = rm.ThreeVelocity(0.0, np.zeros(2), np.zeros(2))
    rest = rm.ThreeVelocity(0.0, np.zeros(3), np.zeros(3))
    cases = [(rm.three_acceleration, _reference_three_acceleration, (light,)),
             (rm.three_acceleration, _reference_three_acceleration, (short,)),
             (rm.three_euler_lagrange, _reference_three_euler_lagrange, (light, np.zeros(2))),
             (rm.three_euler_lagrange, _reference_three_euler_lagrange, (rest, np.zeros(2)))]
    for new, ref, args in cases:
        with pytest.raises(Exception) as expected:
            ref(free_model, *args)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            new(free_model, *args)


# -- the determined four-acceleration against its reference form ----------------

def _reference_four_acceleration(model, x, u):
    """``four_acceleration`` as it stood with its own right-hand side, kept
    verbatim as the reference for the bits of the one through E at a = 0."""
    g, dg_full, dg_first, g_red, _ = lagrangian._velocity_form_pieces(model, x, u)
    lagrangian._require_positive(g)
    n2 = 2 * model.order_half
    f = faraday_at(model.potential, np.asarray(x, float))
    rhs = (model.mass * (dg_full / n2 - dg_first)
           + model.charge * g ** (1.0 - 1.0 / n2) * (f @ u))
    return np.linalg.solve(model.mass * (n2 - 1) * g_red, rhs)


@pytest.mark.parametrize("potential", sorted(_CHART_POTENTIALS))
@pytest.mark.parametrize("field", CHART_FIELDS)
def test_four_acceleration_bits_equal_reference(request, field, potential):
    # 200 seeded states per field and potential over four mass/charge pairs,
    # a quarter of them with zeroed velocity components, and the message of
    # every state where G <= 0
    metric, gf = chart_field(request, field)
    pot = _CHART_POTENTIALS[potential]()
    models = [rm.LagrangianModel(gf, pot, mass=mass, charge=charge)
              for mass, charge in ((1.0, 0.0), (1.0, 1.0), (1.7, -0.4), (0.3, 2.5))]
    rng = np.random.default_rng([7, CHART_FIELDS.index(field),
                                 sorted(_CHART_POTENTIALS).index(potential)])
    for k in range(200):
        x, u = random_state(metric, gf, rng)
        if k % 4 == 0:
            zeroed = np.where(rng.random(4) < 0.5, 0.0, u)
            if rm.g_value(gf, x, zeroed) > 0.05:
                u = zeroed
        model = models[k % len(models)]
        assert same_bits(rm.four_acceleration(model, x, u),
                         _reference_four_acceleration(model, x, u))
    model = models[1]
    for u in (np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])):
        x = random_state(metric, gf, rng)[0]
        if rm.g_value(gf, x, u) > 0.0:  # a spacelike u of the rank-4 form
            continue
        with pytest.raises(NonPositiveG) as expected:
            _reference_four_acceleration(model, x, u)
        with pytest.raises(NonPositiveG, match=re.escape(str(expected.value))):
            rm.four_acceleration(model, x, u)


def _counted_model(model):
    """``model`` with counters on G's value and partials and the potential's partials."""
    counts = {"value": 0, "partials": 0, "potential.partials": 0}

    def counted(name, fn):
        def call(x):
            counts[name] += 1
            return fn(x)
        return call

    gf, pot = model.gfield, model.potential
    gfield = rm.GTensorField(gf.dim, gf.order_half, counted("value", gf.value),
                             counted("partials", gf.partials))
    potential = rm.PotentialField(pot.dim, pot.value,
                                  counted("potential.partials", pot.partials))
    return rm.LagrangianModel(gfield, potential, model.mass, model.charge), counts


def test_three_acceleration_evaluates_each_field_once(charged_model, n2_gfield):
    t = rm.ThreeVelocity(0.2, np.array([0.1, -0.3, 0.4]), np.array([0.3, 0.1, -0.2]))
    for model in (charged_model, rm.LagrangianModel(n2_gfield, charged_model.potential)):
        counted, counts = _counted_model(model)
        rm.three_acceleration(counted, t)
        assert counts == {"value": 1, "partials": 1, "potential.partials": 1}
        counts.update(dict.fromkeys(counts, 0))
        rm.three_euler_lagrange(counted, t, np.ones(3))
        assert counts == {"value": 1, "partials": 1, "potential.partials": 1}


CHART_FIELD = rm.uniform_field((0.3, 0.1, 0.0), (0.0, 0.2, 1.0))


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_integrate_three_velocity_matches_reference_loop(mink_gf, sign, record_every):
    # a dt whose RK4 sum (dt/6)*6 misses dt: the chart time must advance by dt
    dt = 0.007640768989396792
    assert (dt / 6.0) * 6.0 != dt
    cfg = SimpleNamespace(mass=1.0, charge=1.0, x0=np.array([0.25, 0.0, 0.0, 0.0]),
                          v0=np.array([0.6, 0.1, 0.0]), dt=dt, steps=120, sign=sign,
                          every=record_every)
    want = _reference_three_velocity(cfg, mink_gf, CHART_FIELD)
    model = rm.LagrangianModel(mink_gf, CHART_FIELD, mass=1.0, charge=1.0)
    start = rm.ThreeVelocity(0.25, np.zeros(3), cfg.v0)
    traj = rm.integrate_three_velocity(model, start, dt, 120, sign, record_every)
    assert len(traj) == len(want) == (121 if record_every == 1 else 19)
    for name in ("tau", "x", "u", "G", "max_constraint_drift"):
        assert same_bits(getattr(traj, name), getattr(want, name)), name


@pytest.mark.parametrize("bad, message", [({"sign": 2}, "sign must be"),
                                          ({"record_every": 0}, "record_every must be")])
def test_integrate_three_velocity_rejects_arguments_before_a_stage(charged_model, monkeypatch,
                                                                   bad, message):
    calls = []
    monkeypatch.setattr(lagrangian, "_solve_three_acceleration",
                        lambda *args: calls.append(args))
    start = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.3, 0.0, 0.0]))
    with pytest.raises(ValueError, match=message):
        rm.integrate_three_velocity(charged_model, start, 0.01, 10, **bad)
    assert calls == []


def _walled_metric(x):
    # the chart ends at t = 0.3, checked where the metric is evaluated
    if x[0] > 0.3:
        raise DomainError(f"t = {x[0]:g} is past the wall")
    return np.diag([1.0, -1.0, -1.0, -1.0])


def test_integrate_three_velocity_failures_name_chart_time(mink_gf):
    # the three failures the command line reports, each naming the last good q^0
    nan_partials = rm.PotentialField(4, lambda x: np.zeros(4),
                                     lambda x: np.full((4, 4), np.nan))
    walled = rm.MetricField(4, _walled_metric, lambda x: np.zeros((4, 4, 4)))
    cases = [
        (rm.LagrangianModel(mink_gf, nan_partials), (0.5, (0.3, 0.0, 0.0)), 0.01, 10,
         StepRejected, "non-finite chart state (last good chart time q^0 = 0.5)"),
        (rm.LagrangianModel(rm.GTensorField.from_metric(walled), CHART_FIELD),
         (0.25, (0.6, 0.1, 0.0)), 0.01, 100, DomainError,
         "left the metric domain during step 5: t = 0.3 is past the wall "
         "(last good chart time q^0 = 0.29000000000000004)"),
        (rm.LagrangianModel(mink_gf, rm.uniform_field((50.0, 0.0, 0.0)), charge=-1.0),
         (0.0, (0.99, 0.0, 0.0)), 0.1, 20, NonPositiveG,
         "reduced form Gbar = -0.00339973 is not positive; the chart-local "
         "three-velocity picture breaks down here (last good chart time q^0 = 0)"),
    ]
    for model, (q0, v), dt, steps, error, message in cases:
        start = rm.ThreeVelocity(q0, np.zeros(3), np.array(v))
        with pytest.raises(error) as got:
            rm.integrate_three_velocity(model, start, dt, steps)
        assert str(got.value) == message


def test_integrate_three_velocity_singular_system_names_chart_time(schw):
    # on the polar axis g_33 = 0, so the 3 x 3 system for w is singular
    eb = rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03))
    model = rm.LagrangianModel(rm.GTensorField.from_metric(schw), eb, charge=0.5)
    start = rm.ThreeVelocity(0.0, np.array([10.0, 0.0, 0.0]), np.array([0.01, 0.0, 0.0]))
    with pytest.raises(SingularMetric) as got:
        rm.integrate_three_velocity(model, start, 0.25, 10)
    assert str(got.value) == ("chart-time system for w is singular "
                              "(last good chart time q^0 = 0)")


def test_generic_stage_tests_the_state_once(monkeypatch):
    # the right-hand side tests each stage's state, and the run lifts the RK4
    # core's own record: no ThreeVelocity is built during the run, on a G
    # field without a float form (each stage solves three_acceleration) or
    # on the float stage (which solves none)
    field = rm.uniform_field((0.0, 0.01, 0.0), (0.02, 0.0, 0.0))
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    formless = rm.MetricField(4, lambda x: eta.copy(), lambda x: np.zeros((4, 4, 4)))
    cases = [(formless, 4 * 20), (rm.minkowski(), 0)]
    start = rm.ThreeVelocity(0.0, [0.3, -0.2, 0.4], [0.0, 0.05, -0.02])
    built, stages = [0], [0]
    post_init, solve = rm.ThreeVelocity.__post_init__, lagrangian._solve_three_acceleration

    def counted_post_init(self):
        built[0] += 1
        post_init(self)

    def counted_solve(model, x, v):
        stages[0] += 1
        return solve(model, x, v)

    monkeypatch.setattr(rm.ThreeVelocity, "__post_init__", counted_post_init)
    monkeypatch.setattr(lagrangian, "_solve_three_acceleration", counted_solve)
    for metric, solves in cases:
        built[0] = stages[0] = 0
        model = rm.LagrangianModel(rm.GTensorField.from_metric(metric), field, 1.0, 0.5)
        rm.integrate_three_velocity(model, start, 0.01, 20)
        assert stages[0] == solves and built[0] == 0


def test_chart_time_that_stops_advancing_is_not_monotone(charged_model):
    # at q^0 = 1e20, q^0 + dt rounds back to q^0: the lift of the run's
    # record rejects it as lift_three_solution rejects such samples
    start = rm.ThreeVelocity(1e20, np.zeros(3), np.zeros(3))
    with pytest.raises(NonMonotoneTime) as got:
        rm.integrate_three_velocity(charged_model, start, 0.01, 5)
    assert str(got.value) == "chart time samples must be strictly increasing"


# -- F kept between stages -------------------------------------------------------

def _chart_stage(metric, potential):
    model = rm.LagrangianModel(rm.GTensorField.from_metric(metric), potential, 1.3, 0.7)
    return lagrangian._float_three_acceleration(model)


def _chart_states(points, seed, count):
    # half the three-velocity of a timelike u, so Gbar > 0 on every metric used here
    return [(x, [0.5 * ui / u[0] for ui in u[1:]]) for x, u in stage_states(points, seed, count)]


@pytest.mark.parametrize("case", sorted(KEPT_CASES))
def test_kept_faraday_blocks_keep_the_bits(case):
    # one stage called at a run of states gives, at each, the bits of a
    # stage built afresh and called once there
    metric, potential = KEPT_CASES[case]
    stage = _chart_stage(metric, potential)
    for x, v in _chart_states(metric, 5, 60):
        assert same_bits(np.array(stage(x, v)), np.array(_chart_stage(metric, potential)(x, v)))


def test_threads_sharing_a_chart_time_stage_get_the_serial_bits(schw, mink):
    # four threads share one stage, on the key objects of two uniform fields
    # in turn, and on Schwarzschild in a uniform field; whole runs too
    for metric, potential, points in (two_region_fields(mink) + (mink,),
                                      KEPT_CASES["schwarzschild-uniform"] + (schw,)):
        stage = _chart_stage(metric, potential)
        states = [_chart_states(points, seed, 25) for seed in range(4)]

        def calls(own):
            return lambda: [stage(x, v) for _ in range(40) for x, v in own]

        serial = [calls(own)() for own in states]
        for got, want in zip(in_threads([calls(own) for own in states]), serial):
            assert same_bits(np.array(got), np.array(want))
    model = rm.LagrangianModel(rm.GTensorField.from_metric(schw),
                               KEPT_CASES["schwarzschild-uniform"][1], 1.0, 0.7)
    starts = [rm.ThreeVelocity(0.0, [r, 1.2, 0.0], [0.01, 0.005, 0.002])
              for r in (8.0, 10.0, 12.0, 14.0)]

    def runs(start):
        return lambda: rm.integrate_three_velocity(model, start, 0.05, 100, 1, 7)

    serial = [runs(start)() for start in starts]
    for got, want in zip(in_threads([runs(start) for start in starts]), serial):
        assert same_bits(got.x, want.x) and same_bits(got.u, want.u)


def test_constant_fields_build_the_faraday_block_once(monkeypatch, mink_gf, uniform_b):
    # Minkowski in a uniform B field: one build of F[1:, 1:] per run, counted
    # as the np.array calls on its entries
    entries = faraday_at(uniform_b, X0)[1:, 1:].ravel().tolist()
    builds = [0]
    array = np.array

    def counted(obj, *args, **kwargs):
        builds[0] += isinstance(obj, list) and obj == entries
        return array(obj, *args, **kwargs)

    model = rm.LagrangianModel(mink_gf, uniform_b, 1.0, 0.5)
    start = rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0.0, 0.0]))
    monkeypatch.setattr(np, "array", counted)
    traj = rm.integrate_three_velocity(model, start, 0.01, 50)
    assert len(traj) == 51 and builds[0] == 1
