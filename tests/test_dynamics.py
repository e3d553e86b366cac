import dataclasses
import functools
import math

import numpy as np
import numpy.testing as npt
import pytest

import relmech as rm
import relmech.dynamics as dynamics
from relmech.errors import DomainError, NonPositiveG, SingularMetric, StepRejected

from conftest import (KEPT_CASES, counting_fields, counting_forms, generic,
                      in_threads, random_state, same_bits, shear_minkowski,
                      stage_acceleration, stage_states, two_region, two_region_fields)

X0 = np.zeros(4)
X_SCHW = np.array([0.0, 10.0, math.pi / 2, 0.0])


# -- connection construction ----------------------------------------------------

def test_flat_free_connection_vanishes(mink):
    conn = rm.connection_from(mink, rm.zero_potential(4), 1.0, 1.0)
    npt.assert_array_equal(conn.K(X0, np.array([1.0, 0.3, 0, 0])), np.zeros((4, 4)))


def test_soldering_component_by_hand(mink, uniform_b):
    # sigma^mu_lam = eta^{mu nu} F_{nu lam}; with F_12 = B: sigma^1_2 = -B
    conn = rm.connection_from(mink, uniform_b, 1.0, 1.0)
    sig = conn.soldering(X0, np.zeros(4))
    assert sig[1, 2] == -1.0
    assert sig[2, 1] == 1.0
    f = rm.faraday_at(uniform_b, X0)
    npt.assert_array_equal(sig, np.diag([1.0, -1, -1, -1]) @ f)


def test_pure_metric_connection(schw):
    conn = rm.connection_from(schw, rm.zero_potential(4), 1.0, 0.0)
    u = np.array([1.2, -0.1, 0.02, 0.03])
    c = rm.christoffel_at(schw, X_SCHW)
    npt.assert_allclose(conn.K(X_SCHW, u), np.einsum("lmn,n->ml", c, u),
                        atol=1e-15)


def test_decomposition_identity(schw, uniform_b):
    # K = metric symbols . u + soldering at every evaluated state
    conn = rm.connection_from(schw, uniform_b, 2.0, 0.7)
    rng = np.random.default_rng(0)
    gf = rm.GTensorField.from_metric(schw)
    for _ in range(100):
        x, u = random_state(schw, gf, rng)
        c = rm.christoffel_at(schw, x)
        lhs = conn.K(x, u)
        rhs = np.einsum("lmn,n->ml", c, u) + conn.soldering(x, u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_charge_to_mass_scaling(mink, uniform_b):
    base = rm.connection_from(mink, uniform_b, 1.0, 1.0)
    scaled = rm.connection_from(mink, uniform_b, 2.0, 1.0)
    u = np.array([1.25, 0.75, 0.0, 0.0])
    npt.assert_allclose(scaled.K(X0, u), 0.5 * base.K(X0, u), rtol=1e-15)


# -- hyperboloid preservation ------------------------------------------------------

def test_condition_levi_civita_and_charged(mink, schw, uniform_b):
    rng = np.random.default_rng(1)
    for metric in (mink, schw):
        gf = rm.GTensorField.from_metric(metric)
        pot = uniform_b if metric is mink else rm.zero_potential(4)
        for conn in (rm.levi_civita_connection(metric),
                     rm.connection_from(metric, uniform_b, 1.0, 1.0)):
            for _ in range(500):
                x, u = random_state(metric, gf, rng)
                res = rm.check_geodesic_condition(conn, metric, x, u)
                scale = rm.geodesic_condition_scale(conn, metric, x, u)
                assert abs(res) <= 1e-9 * scale


def test_condition_detects_bad_connection(mink):
    bad = rm.Connection(4, lambda x, u: np.eye(4))
    res = rm.check_geodesic_condition(bad, mink, X0, np.array([1.0, 0, 0, 0]))
    npt.assert_allclose(res, 2.0)


def test_soldering_residual(mink, schw, uniform_b):
    conn = rm.connection_from(schw, uniform_b, 1.0, 1.0)
    rng = np.random.default_rng(2)
    gf = rm.GTensorField.from_metric(schw)
    for _ in range(100):
        x, u = random_state(schw, gf, rng)
        assert abs(rm.soldering_residual(conn, schw, x, u)) <= 1e-12 * (
            1.0 + np.linalg.norm(u) ** 2)


def test_corrupted_soldering_drifts(mink, mink_gf):
    # a soldering term with u^T g sigma u != 0 must push G off the shell
    lc = rm.levi_civita_connection(mink)
    bad = rm.Connection(4, lambda x, u: lc.K(x, u) + 0.05 * np.eye(4))
    s0 = rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0]))
    traj = rm.integrate_geodesic(bad, mink_gf, s0, 1e-3, 10_000, "none", 1000)
    assert traj.max_constraint_drift >= 1e-3


# -- right-hand side ------------------------------------------------------------------

def test_rhs_free(mink):
    conn = rm.connection_from(mink, rm.zero_potential(4), 1.0, 1.0)
    npt.assert_array_equal(rm.geodesic_rhs(conn, X0, np.array([1.9, 0.2, 0, 0])),
                           np.zeros(4))


def test_rhs_magnetic_force(mink, uniform_b):
    conn = rm.connection_from(mink, uniform_b, 1.0, 1.0)
    a = rm.geodesic_rhs(conn, X0, np.array([1.25, 0.75, 0.0, 0.0]))
    npt.assert_allclose(a, [0.0, 0.0, 0.75, 0.0], atol=1e-15)


def circular_orbit_state(conn, r0):
    """Root-find the angular velocity that zeroes the radial acceleration."""
    x0 = np.array([0.0, r0, math.pi / 2, 0.0])
    f = 1.0 - 2.0 / r0

    def radial(omega):
        ut = 1.0 / math.sqrt(f - r0 * r0 * omega * omega)
        u = np.array([ut, 0.0, 0.0, ut * omega])
        return rm.geodesic_rhs(conn, x0, u)[1]

    lo, hi = 0.3 * r0 ** -1.5, 2.0 * r0 ** -1.5
    assert radial(lo) * radial(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radial(mid) * radial(lo) <= 0:
            hi = mid
        else:
            lo = mid
    omega = 0.5 * (lo + hi)
    ut = 1.0 / math.sqrt(f - r0 * r0 * omega * omega)
    return x0, np.array([ut, 0.0, 0.0, ut * omega]), omega


def test_rhs_circular_orbit_balance(schw):
    conn = rm.levi_civita_connection(schw)
    x0, u0, omega = circular_orbit_state(conn, 10.0)
    # the root-found angular velocity reproduces the closed form sqrt(M/r^3)
    npt.assert_allclose(omega, math.sqrt(1.0 / 1000.0), rtol=1e-10)
    assert abs(rm.geodesic_rhs(conn, x0, u0)[1]) <= 1e-12


# -- shell projection -----------------------------------------------------------------

def test_project_examples(mink_gf):
    npt.assert_array_equal(
        rm.project_to_shell(mink_gf, X0, np.array([2.0, 0, 0, 0])), [1, 0, 0, 0])
    u = np.array([1.25, 0.75, 0.0, 0.0])
    npt.assert_allclose(rm.project_to_shell(mink_gf, X0, u), u, rtol=1e-15)
    npt.assert_allclose(
        rm.project_to_shell(mink_gf, X0, np.array([2.5, 1.5, 0.0, 0.0])),
        [1.25, 0.75, 0.0, 0.0], rtol=1e-15)


def test_project_rejects_null(mink_gf):
    with pytest.raises(NonPositiveG):
        rm.project_to_shell(mink_gf, X0, np.array([1.0, 1.0, 0.0, 0.0]))


def test_project_n2(n2_gfield):
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = 0.3 * rng.standard_normal(4)
        u[0] = 1.5
        out = rm.project_to_shell(n2_gfield, X0, u)
        assert abs(rm.g_value(n2_gfield, X0, out) - 1.0) <= 1e-13


# -- integration ------------------------------------------------------------------------

def test_free_particle_straight_line(mink, mink_gf):
    conn = rm.connection_from(mink, rm.zero_potential(4), 1.0, 1.0)
    s0 = rm.FourState(X0, np.array([1.0, 0.0, 0.0, 0.0]))
    traj = rm.integrate_geodesic(conn, mink_gf, s0, 0.01, 1000, "none", 100)
    assert np.all(traj.u == np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.all(traj.G == 1.0)
    npt.assert_allclose(traj.x[:, 0], traj.tau, atol=1e-12)
    assert np.all(traj.x[:, 1:] == 0.0)


def test_magnetic_run_conserves_constraint_and_speed(mink, mink_gf, uniform_b):
    conn = rm.connection_from(mink, uniform_b, 1.0, 1.0)
    s0 = rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0]))
    traj = rm.integrate_geodesic(conn, mink_gf, s0, 1e-3, 10_000, "none", 100)
    assert traj.max_constraint_drift <= 1e-8
    speeds = np.hypot(traj.u[:, 1], traj.u[:, 2])
    assert np.max(np.abs(speeds - 0.75)) <= 1e-8
    # the time component is untouched by a magnetic field
    assert np.max(np.abs(traj.u[:, 0] - 1.25)) <= 1e-8


def test_fourth_order_constraint_convergence(schw, schw_gf):
    # nonlinear flow: halving dt must shrink the end drift by about 2^4
    conn = rm.levi_civita_connection(schw)
    x0 = np.array([0.0, 6.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.5, 0.2, 0.0, 0.11]))
    drifts = []
    for mult in (1, 2):
        traj = rm.integrate_geodesic(conn, schw_gf, rm.FourState(x0, u0),
                                     0.1 / mult, 300 * mult, "none", 300 * mult)
        drifts.append(abs(traj.G[-1] - 1.0))
    ratio = drifts[0] / drifts[1]
    assert 8.0 <= ratio <= 32.0, f"convergence ratio {ratio}"


def _shear_chart_error(picture, dt, steps):
    """Largest distance of a run in the shear chart, mapped to the flat chart,
    from the straight line it must follow there; and the RK4 bound for it."""
    eps = 0.3
    shear, to_flat = shear_minkowski(eps)
    gf = rm.GTensorField.from_metric(shear)
    x0 = np.array([0.0, 0.1, 0.2, -0.3])
    u0 = rm.project_to_shell(gf, x0, np.array([1.5, 0.4, 0.9, -0.2]))
    if picture == "geodesic":
        traj = rm.integrate_geodesic(rm.levi_civita_connection(shear), gf,
                                     rm.FourState(x0, u0), dt, steps)
    else:
        ham = rm.standard_hamiltonian(shear, rm.zero_potential(4), 1.0, 0.0)
        p0 = rm.on_shell_momentum(ham, x0, u0)
        traj = rm.integrate_hamiltonian(ham, rm.PhaseState(x0, p0), dt, steps)
    jac = np.eye(4)
    jac[1, 2] = eps * math.cos(x0[2])
    line = to_flat(x0) + traj.tau[:, None] * (jac @ u0)
    # 10 x the leading RK4 local error steps * (dt w)^5 / 120, w the rate of y
    bound = 10.0 * steps * (dt * abs(u0[2])) ** 5 / 120.0 * np.max(np.abs(line))
    return float(np.max(np.abs(to_flat(traj.x) - line))), bound


@pytest.mark.parametrize("picture", ["geodesic", "hamiltonian"])
def test_non_diagonal_chart_geodesics_are_straight_lines(picture):
    # flat space in the shear chart X = x + eps sin y: the metric is neither
    # diagonal nor constant, so inverse, connection and d g^-1 take the
    # general path; mapped back, every geodesic is a straight line
    err, bound = _shear_chart_error(picture, 0.1, 40)
    err_half, bound_half = _shear_chart_error(picture, 0.05, 80)
    assert err <= bound and err_half <= bound_half
    assert 12.0 <= err / err_half <= 20.0  # fourth order: 16


def test_reparameterization_same_worldline(schw, schw_gf):
    # doubling u traverses the same point set; velocities stay collinear
    conn = rm.levi_civita_connection(schw)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    import warnings
    t1 = rm.integrate_geodesic(conn, schw_gf, rm.FourState(x0, u0),
                               1e-3, 2000, "none", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-shell start G = 4 is intentional
        t2 = rm.integrate_geodesic(conn, schw_gf, rm.FourState(x0, 2.0 * u0),
                                   1e-3, 1000, "none", 1)
    npt.assert_allclose(t2.x, t1.x, atol=1e-8)
    for k in range(0, len(t2), 100):
        assert rm.same_jet(t1.u[k], t2.u[k], tol=1e-8)


def test_rescale_projection_pins_constraint(mink, mink_gf, uniform_b):
    conn = rm.connection_from(mink, uniform_b, 1.0, 1.0)
    s0 = rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0]))
    none = rm.integrate_geodesic(conn, mink_gf, s0, 1e-3, 2000, "none", 200)
    resc = rm.integrate_geodesic(conn, mink_gf, s0, 1e-3, 2000, "rescale", 200)
    assert resc.max_constraint_drift <= none.max_constraint_drift + 1e-15
    assert resc.max_constraint_drift <= 1e-13
    assert np.max(np.abs(resc.G - 1.0)) <= 1e-13


def test_domain_exit_raises_with_tau(schw, schw_gf):
    conn = rm.levi_civita_connection(schw)
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([2.0, -0.5, 0.0, 0.0]))
    with pytest.raises(DomainError) as err:
        rm.integrate_geodesic(conn, schw_gf, rm.FourState(x0, u0), 0.05, 10_000)
    assert err.value.tau is not None and err.value.tau >= 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_state_rejected(mink_gf):
    runaway = rm.Connection(4, lambda x, u: 1e154 * np.eye(4))
    s0 = rm.FourState(X0, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(StepRejected) as err:
        rm.integrate_geodesic(runaway, mink_gf, s0, 1.0, 50)
    assert err.value.tau is not None


def test_off_shell_start_warns(mink, mink_gf):
    conn = rm.connection_from(mink, rm.zero_potential(4), 1.0, 1.0)
    s0 = rm.FourState(X0, np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.warns(UserWarning, match="off the unit level set"):
        rm.integrate_geodesic(conn, mink_gf, s0, 0.1, 5)


def test_agreement_with_variational_derivative(mink, schw, uniform_b):
    # substituting the geodesic acceleration into the full variational
    # derivative must annihilate it at on-shell states
    rng = np.random.default_rng(5)
    for metric in (mink, schw):
        gf = rm.GTensorField.from_metric(metric)
        for pot in (rm.zero_potential(4), uniform_b):
            conn = rm.connection_from(metric, pot, 1.0, 1.0)
            model = rm.LagrangianModel(gf, pot, mass=1.0, charge=1.0)
            for _ in range(250):
                x, u = random_state(metric, gf, rng)
                u = rm.project_to_shell(gf, x, u)
                a = rm.geodesic_rhs(conn, x, u)
                res = rm.variational_derivative(model, x, u, a)
                scale = 1.0 + np.max(np.abs(res.E)) + np.max(np.abs(a))
                assert np.max(np.abs(res.cal_E)) <= 1e-9 * scale


def test_one_inversion_per_rhs_stage(mink, mink_gf, uniform_b, inversion_count):
    # the connection symbols and the soldering term share one inverse metric
    conn = rm.connection_from(mink, uniform_b, 1.0, 1.0)
    s0 = rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0]))
    rm.integrate_geodesic(generic(conn), mink_gf, s0, 1e-2, 25, "none", 5)
    assert inversion_count[0] == 4 * 25
    # a metric with a float form: one form read per stage, and no inversion
    counted, calls = counting_forms(mink)
    rm.integrate_geodesic(rm.connection_from(counted, uniform_b, 1.0, 1.0), mink_gf,
                          s0, 1e-2, 25, "none", 5)
    assert inversion_count[0] == 4 * 25
    assert calls == {"value": 0, "partials": 0, "form": 4 * 25}
    # a metric that declares no form: K at every stage, and no probe
    shear, calls = counting_fields(shear_minkowski(0.9)[0])
    rm.integrate_geodesic(rm.connection_from(shear, uniform_b, 1.0, 1.0),
                          rm.GTensorField.from_metric(shear_minkowski(0.9)[0]),
                          s0, 1e-2, 25, "none", 5)
    assert inversion_count[0] == 2 * 4 * 25
    assert calls == {"value": 4 * 25, "partials": 4 * 25}

    # G the metric's own form: still one form read per stage, and none more
    # for the monitor or the projection.  Over N steps that is g_value at
    # the start, then 4 N + 1 stages, the last step's settle evaluating a
    # first stage that no step uses.  The potential's form is read as K
    # reads the partials, once per stage.
    for projection in ("none", "rescale"):
        metric, calls = counting_forms(mink)
        potential, pot_calls = counting_forms(uniform_b)
        traj = rm.integrate_geodesic(rm.connection_from(metric, potential, 1.0, 1.0),
                                     rm.GTensorField.from_metric(metric), s0, 1e-2, 25,
                                     projection, 5)
        assert calls == {"value": 1, "partials": 0, "form": 1 + 4 * 25}
        assert pot_calls == {"value": 0, "partials": 0, "form": 1 + 4 * 25}
        want = rm.integrate_geodesic(rm.connection_from(mink, uniform_b, 1.0, 1.0),
                                     rm.GTensorField.from_metric(rm.minkowski()), s0,
                                     1e-2, 25, projection, 5)
        for got, ref in ((traj.x, want.x), (traj.u, want.u), (traj.G, want.G)):
            assert same_bits(got, ref)


def _reference_rk4(c, gfield, s0, dt, steps, projection="none", record_every=1,
                   acc=None):
    """The integrator as a hand-written loop over (x, u), before the shared
    RK4 core; kept as the reference for the integrator's outputs.  ``acc``
    is the stage acceleration, K(x, u) u unless given."""
    x = np.array(s0.x, dtype=float)
    u = np.array(s0.u, dtype=float)
    g0 = rm.g_value(gfield, x, u)
    taus = [0.0]
    xs = [x.copy()]
    us = [u.copy()]
    gs = [g0]
    drift = abs(g0 - 1.0)
    tau = 0.0

    if acc is None:
        def acc(xx, uu):
            return c.K(xx, uu) @ uu

    for k in range(1, steps + 1):
        try:
            k1x, k1u = u, acc(x, u)
            x2, u2 = x + 0.5 * dt * k1x, u + 0.5 * dt * k1u
            k2x, k2u = u2, acc(x2, u2)
            x3, u3 = x + 0.5 * dt * k2x, u + 0.5 * dt * k2u
            k3x, k3u = u3, acc(x3, u3)
            x4, u4 = x + dt * k3x, u + dt * k3u
            k4x, k4u = u4, acc(x4, u4)
        except DomainError as exc:
            raise DomainError(
                f"left the metric domain during step {k}: {exc}", tau=tau
            ) from exc
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise StepRejected(f"non-finite state after step {k}", tau=tau)
        try:
            if projection == "rescale":
                u = rm.project_to_shell(gfield, x, u)
            gk = rm.g_value(gfield, x, u)
        except DomainError as exc:
            raise DomainError(
                f"left the metric domain during step {k}: {exc}", tau=tau
            ) from exc
        tau = k * dt
        drift = max(drift, abs(gk - 1.0))
        if k % record_every == 0 or k == steps:
            taus.append(tau)
            xs.append(x.copy())
            us.append(u.copy())
            gs.append(gk)
    return np.asarray(taus), np.stack(xs), np.stack(us), np.asarray(gs), drift


def test_integrator_matches_reference_loop(schw, schw_gf, mink, mink_gf, uniform_b):
    u_schw = rm.project_to_shell(schw_gf, X_SCHW, np.array([1.1, -0.05, 0.0, 0.03]))
    cases = [(rm.levi_civita_connection(schw), schw_gf, rm.FourState(X_SCHW, u_schw)),
             (rm.connection_from(mink, uniform_b, 1.0, 1.0), mink_gf,
              rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0])))]
    for conn, gf, s0 in cases:
        for projection in ("none", "rescale"):
            traj = rm.integrate_geodesic(conn, gf, s0, 0.05, 200, projection, 7)
            taus, xs, us, gs, drift = _reference_rk4(conn, gf, s0, 0.05, 200,
                                                     projection, 7,
                                                     stage_acceleration(conn))
            assert len(traj) == 30
            npt.assert_array_equal(traj.tau, taus)
            npt.assert_array_equal(traj.x, xs)
            npt.assert_array_equal(traj.u, us)
            npt.assert_array_equal(traj.G, gs)
            assert traj.max_constraint_drift == drift


def test_generic_path_keeps_reference_bits(schw, schw_gf, mink, mink_gf, uniform_b):
    # where K is called at every stage the integrator has the reference's bits
    shear = shear_minkowski(0.9)[0]
    u_schw = rm.project_to_shell(schw_gf, X_SCHW, np.array([1.1, -0.05, 0.0, 0.03]))
    s_flat = rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0]))
    cases = [(generic(rm.levi_civita_connection(schw)), schw_gf,
              rm.FourState(X_SCHW, u_schw)),
             (generic(rm.connection_from(mink, uniform_b, 1.0, 1.0)), mink_gf, s_flat),
             (rm.connection_from(shear, uniform_b, 1.0, 1.0),
              rm.GTensorField.from_metric(shear), s_flat)]
    for conn, gf, s0 in cases:
        traj = rm.integrate_geodesic(conn, gf, s0, 0.05, 200, "none", 7)
        taus, xs, us, gs, drift = _reference_rk4(conn, gf, s0, 0.05, 200, "none", 7)
        npt.assert_array_equal(traj.x, xs)
        npt.assert_array_equal(traj.u, us)
        npt.assert_array_equal(traj.G, gs)


def test_replaced_k_is_integrated(schw, schw_gf):
    # a K put in with dataclasses.replace is the equation integrated, and
    # a functools.wraps wrapper (a tracer's, say) keeps the float stage and its bits
    conn = rm.levi_civita_connection(schw)
    u0 = rm.project_to_shell(schw_gf, X_SCHW, np.array([1.1, -0.05, 0.0, 0.03]))
    s0 = rm.FourState(X_SCHW, u0)
    free = dataclasses.replace(conn, K=lambda x, u: np.zeros((4, 4)))
    traj = rm.integrate_geodesic(free, schw_gf, s0, 0.5, 20, "none", 5)
    npt.assert_allclose(traj.u, np.broadcast_to(u0, traj.u.shape), rtol=0, atol=0)
    npt.assert_allclose(traj.x, X_SCHW + traj.tau[:, None] * u0, rtol=1e-13)

    @functools.wraps(conn.K)
    def traced(x, u):
        return conn.K(x, u)

    want = rm.integrate_geodesic(conn, schw_gf, s0, 0.5, 20, "none", 5)
    got = rm.integrate_geodesic(dataclasses.replace(conn, K=traced), schw_gf, s0, 0.5, 20,
                                "none", 5)
    npt.assert_array_equal(got.x, want.x)
    npt.assert_array_equal(got.u, want.u)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failures_match_reference_loop(schw, schw_gf, mink_gf):
    # a plunge into r = 2M leaves the domain inside an RK4 stage
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([2.0, -0.5, 0.0, 0.0]))
    plunge = (rm.levi_civita_connection(schw), schw_gf, rm.FourState(x0, u0), 0.05,
              DomainError)
    runaway = (rm.Connection(4, lambda x, u: 1e154 * np.eye(4)), mink_gf,
               rm.FourState(X0, np.array([1.0, 0.0, 0.0, 0.0])), 1.0, StepRejected)
    messages = []
    for conn, gf, s0, dt, error in (plunge, runaway):
        with pytest.raises(error) as got:
            rm.integrate_geodesic(conn, gf, s0, dt, 10_000)
        with pytest.raises(error) as want:
            _reference_rk4(conn, gf, s0, dt, 10_000)
        assert str(got.value) == str(want.value)
        assert got.value.tau == want.value.tau
        messages.append(str(got.value))
    assert messages[0].startswith("left the metric domain during step")
    assert messages[1].startswith("non-finite state after step")


def test_settled_point_error_names_the_next_step(schw, schw_gf):
    # a wall that only the settled point of step 13 is behind (r there is
    # below every stage point of that step): a monitor that reads another
    # metric (schw_gf) passes it, so the error is step 14's, at its first stage
    def wall(x):
        if x[1] < 2.54843075:
            raise DomainError(f"r = {x[1]:.9f} is inside the wall")

    metric = rm.MetricField.from_function(4, lambda x: (wall(x), schw.value(x))[1],
                                          lambda x: (wall(x), schw.partials(x))[1])
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([2.0, -0.5, 0.0, 0.0]))
    conn = rm.levi_civita_connection(metric)
    for gf in (rm.GTensorField.from_metric(metric), schw_gf):
        with pytest.raises(DomainError) as got:
            rm.integrate_geodesic(conn, gf, rm.FourState(x0, u0), 0.05, 100)
        with pytest.raises(DomainError) as want:
            _reference_rk4(conn, gf, rm.FourState(x0, u0), 0.05, 100,
                           acc=stage_acceleration(conn))
        assert str(got.value) == str(want.value)
        assert got.value.tau == want.value.tau
    assert "during step 14" in str(got.value) and got.value.tau == 13 * 0.05


@pytest.mark.parametrize("projection, wall", [("none", 2.54843075), ("rescale", 2.5484308)])
def test_settled_point_where_only_the_form_raises(monkeypatch, schw, schw_gf, projection,
                                                  wall):
    # the plunge of the test above, with a stage whose condition test
    # raises SingularMetric behind a wall that only the settled point of
    # step 13 is behind, as Schwarzschild's g fails the test just above
    # r_min, where value and the form do not raise: the monitor and the
    # projection there take the form's G, with the bits of g_value's, and
    # step 14's first stage raises the stage's error
    check = dynamics._check_diagonal
    raised = []

    def walled(d, x):
        if x[1] < wall:
            raised.append(x[1])
            raise SingularMetric(f"metric is numerically singular at x = {x}")
        check(d, x)

    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    s0 = rm.FourState(x0, rm.project_to_shell(schw_gf, x0, np.array([2.0, -0.5, 0.0, 0.0])))
    conn = rm.levi_civita_connection(schw)
    by_g_value = dataclasses.replace(schw_gf, value=lambda x: schw.value(x))
    want = rm.integrate_geodesic(conn, by_g_value, s0, 0.05, 13, projection)
    monkeypatch.setattr(dynamics, "_check_diagonal", walled)
    got = rm.integrate_geodesic(conn, schw_gf, s0, 0.05, 13, projection)
    assert len(raised) == 1
    for a, b in ((got.x, want.x), (got.u, want.u), (got.G, want.G)):
        assert same_bits(a, b)
    assert got.max_constraint_drift == want.max_constraint_drift
    with pytest.raises(SingularMetric, match="numerically singular"):
        rm.integrate_geodesic(conn, schw_gf, s0, 0.05, 14, projection)
    assert len(raised) == 3  # step 13's settled point, then step 14's first stage


# -- the soldering matrix kept between stages -----------------------------------

@pytest.mark.parametrize("case", sorted(KEPT_CASES))
def test_kept_soldering_matrix_keeps_the_bits(case):
    # one stage called at a run of states gives, at each, the bits of a
    # stage built afresh and called once there
    metric, potential = KEPT_CASES[case]
    form, accel = rm.connection_from(metric, potential, 1.3, 0.7).K._float_stage
    for x, u in stage_states(metric, 3, 60):
        fresh_form, fresh = rm.connection_from(metric, potential, 1.3, 0.7).K._float_stage
        assert same_bits(np.array(accel(x, u, form(x))), np.array(fresh(x, u, fresh_form(x))))


def test_threads_sharing_a_connection_get_the_serial_bits(schw, mink):
    # four threads (more than the two cores CI has) call one stage on their
    # own states.  Between two constant metrics and two uniform fields the
    # kept matrix changes whenever a thread crosses x^1 = 0, between the
    # same four key objects in every thread; on Schwarzschild its d differs
    # at every call.
    for metric, potential, points in (two_region_fields(mink) + (mink,),
                                      KEPT_CASES["schwarzschild-uniform"] + (schw,)):
        form, accel = rm.connection_from(metric, potential, 1.3, 0.7).K._float_stage
        states = [stage_states(points, seed, 25) for seed in range(4)]

        def calls(own):
            return lambda: [accel(x, u, form(x)) for _ in range(40) for x, u in own]

        serial = [calls(own)() for own in states]
        for got, want in zip(in_threads([calls(own) for own in states]), serial):
            assert same_bits(np.array(got), np.array(want))
    # and whole runs on a shared connection
    potential = KEPT_CASES["schwarzschild-uniform"][1]
    conn = rm.connection_from(schw, potential, 1.3, 0.7)
    gf = rm.GTensorField.from_metric(schw)
    starts = []
    for r in (8.0, 10.0, 12.0, 14.0):
        x = np.array([0.0, r, 1.2, 0.0])
        starts.append(rm.FourState(x, rm.project_to_shell(gf, x, np.array([1.2, 0.05, 0.01, 0.03]))))

    def runs(s0):
        return lambda: rm.integrate_geodesic(conn, gf, s0, 0.05, 150, "none", 7)

    serial = [runs(s0)() for s0 in starts]
    for got, want in zip(in_threads([runs(s0) for s0 in starts]), serial):
        assert same_bits(got.x, want.x) and same_bits(got.u, want.u)


def _stage_outcome(stage, x, u):
    """The bytes of ``stage(x, u)``, or the message of its SingularMetric."""
    try:
        return np.array(stage(x, u)).tobytes()
    except SingularMetric as exc:
        return str(exc)


def test_threads_sharing_a_stage_across_a_rejected_metric(mink):
    # Minkowski for x^1 < 0, diag = 1, -1e-13, -1, -1 (which
    # inverse_metric_at rejects) elsewhere: four threads call one geodesic
    # and one Hamiltonian stage on their own states.  Each call on the
    # rejected side raises inverse_metric_at's error; each call on the
    # other side has the bits of a stage built afresh and called once there
    metric = two_region(mink, rm.diagonal_metric([1.0, -1e-13, -1.0, -1.0]))
    potential = KEPT_CASES["minkowski-uniform"][1]

    def stages():
        form, accel = rm.connection_from(metric, potential, 1.3, 0.7).K._float_stage
        flow = rm.standard_hamiltonian(metric, potential, 1.3, 0.7).flow._float_stage[1]
        return (lambda x, u: accel(x, u, form(x))), (lambda x, p: flow(x, p)[0])

    states = [stage_states(mink, seed, 25) for seed in range(4)]
    for i, stage in enumerate(stages()):
        fresh = [[_stage_outcome(stages()[i], x, u) for x, u in own] for own in states]
        for own, want in zip(states, fresh):
            for (x, _), outcome in zip(own, want):
                if x[1] < 0.0:
                    assert isinstance(outcome, bytes)
                else:
                    with pytest.raises(SingularMetric) as rejected:
                        rm.inverse_metric_at(metric, x)
                    assert outcome == str(rejected.value)
        assert {type(outcome) for want in fresh for outcome in want} == {bytes, str}

        def calls(own, stage=stage):
            return lambda: [_stage_outcome(stage, x, u) for _ in range(20) for x, u in own]

        for got, want in zip(in_threads([calls(own) for own in states]), fresh):
            assert got == want * 20


def test_constant_fields_build_the_soldering_matrix_once(monkeypatch, mink, mink_gf, uniform_b):
    # Minkowski in a uniform B field: one build of (e/m) g^{ll} F per run,
    # counted as the np.array calls on its entries
    ratio = 0.5
    entries = (ratio * np.diag(1.0 / np.diag(rm.metric_at(mink, X0)))
               @ rm.faraday_at(uniform_b, X0)).ravel().tolist()
    builds = [0]
    array = np.array

    def counted(obj, *args, **kwargs):
        builds[0] += isinstance(obj, list) and obj == entries
        return array(obj, *args, **kwargs)

    conn = rm.connection_from(mink, uniform_b, 1.0, ratio)
    monkeypatch.setattr(np, "array", counted)
    traj = rm.integrate_geodesic(conn, mink_gf, rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0])),
                                 0.01, 50)
    assert len(traj) == 51 and builds[0] == 1
