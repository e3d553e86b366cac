import math

import numpy as np
import numpy.testing as npt
import pytest

import relmech as rm
from relmech.errors import DomainError, NonPositiveG, StepRejected

from conftest import random_state

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
    rm.integrate_geodesic(conn, mink_gf, s0, 1e-2, 25, "none", 5)
    assert inversion_count[0] == 4 * 25
