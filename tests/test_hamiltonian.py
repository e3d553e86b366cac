import dataclasses
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import relmech as rm
from relmech.errors import DomainError
from relmech.geometry import (FD_STEP, _check_condition, _diagonal, _field_at,
                              fd_partials, metric_at)
from relmech.hamiltonian import _shell_metric

from conftest import (KEPT_CASES, counting_forms, generic, in_threads, random_point,
                      random_state, same_bits, shear_minkowski, stage_states,
                      two_region_fields)

X0 = np.zeros(4)


@pytest.fixture(scope="module")
def free_ham(mink):
    return rm.standard_hamiltonian(mink, rm.zero_potential(4), 1.0, 1.0)


@pytest.fixture(scope="module")
def magnetic_ham(mink, uniform_b):
    return rm.standard_hamiltonian(mink, uniform_b, 1.0, 1.0)


@pytest.fixture(scope="module")
def schw_ham(schw):
    return rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)


# -- values and the shell ---------------------------------------------------------

def test_phase_state_entries_must_be_finite():
    with pytest.raises(ValueError):
        rm.PhaseState(np.zeros(4), np.array([np.nan, 0.0, 0.0, 0.0]))


def test_zero_kinetic_momentum(magnetic_ham, uniform_b):
    x = np.array([0.5, 1.0, -2.0, 0.3])
    p = np.asarray(uniform_b.value(x))
    assert magnetic_ham.value(x, p) == 0.0
    npt.assert_array_equal(rm.legendre_velocity(magnetic_ham, rm.PhaseState(x, p)),
                           np.zeros(4))


def test_on_shell_value(free_ham):
    s = rm.PhaseState(X0, np.array([1.0, 0, 0, 0]))
    assert free_ham.value(s.x, s.p) == 0.5
    assert rm.mass_shell_residual(free_ham, s) == 0.0


def test_off_shell_value(free_ham):
    s = rm.PhaseState(X0, np.array([2.0, 0, 0, 0]))
    assert free_ham.value(s.x, s.p) == 2.0
    assert rm.mass_shell_residual(free_ham, s) == 3.0


def test_spacelike_momentum(free_ham):
    s = rm.PhaseState(X0, np.array([0.0, 1.0, 0, 0]))
    assert rm.mass_shell_residual(free_ham, s) == -2.0


def test_shell_equals_two_h_minus_one(magnetic_ham):
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = rm.PhaseState(rng.uniform(-2, 2, 4), rng.standard_normal(4))
        npt.assert_allclose(rm.mass_shell_residual(magnetic_ham, s),
                            2.0 * magnetic_ham.value(s.x, s.p) - 1.0,
                            rtol=1e-12, atol=1e-12)


def test_mass_scaling_of_shell(mink):
    ham = rm.standard_hamiltonian(mink, rm.zero_potential(4), 2.0, 0.0)
    s = rm.PhaseState(X0, np.array([2.0, 0, 0, 0]))
    npt.assert_allclose(rm.mass_shell_residual(ham, s),
                        ham.value(s.x, s.p) - 1.0, rtol=1e-14)


def _reference_mass_shell_residual(h, s, metric=None):
    """``mass_shell_residual`` as it stood beside ``mass_shell_scalar``, kept
    verbatim as the reference for the bits of the one through its ``value``."""
    g = metric_at(_shell_metric(h, metric), s.x)
    v = rm.legendre_velocity(h, s)
    return float(v @ g @ v) - 1.0


def test_mass_shell_residual_bits_equal_reference(schw, mink, uniform_b):
    # standard models with their own metric and with another one, and a
    # non-standard model, which needs metric=, on diagonal metrics and on the
    # shear chart; a quarter of the momenta have zeroed components
    coulomb = rm.coulomb_potential(0.8, (5.0, 5.0, 5.0))
    shear = shear_minkowski(0.9)[0]
    custom = rm.custom_hamiltonian(4, lambda x, p: 0.5 * float(p @ p) + 0.1 * float(x @ p))
    cases = [(rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0), None, schw),
             (rm.standard_hamiltonian(schw, uniform_b, 1.3, 0.7), None, schw),
             (rm.standard_hamiltonian(mink, coulomb, 0.6, -1.1), None, mink),
             (rm.standard_hamiltonian(mink, uniform_b, 1.0, 1.0), schw, schw),
             (rm.standard_hamiltonian(shear, uniform_b, 1.0, 1.0), None, shear),
             (custom, mink, mink),
             (custom, schw, schw),
             (custom, shear, shear)]
    rng = np.random.default_rng(37)
    for h, metric, points in cases:
        for k in range(100):
            p = rng.standard_normal(4)
            if k % 4 == 0:
                p[rng.random(4) < 0.5] = 0.0
            s = rm.PhaseState(random_point(points, rng), p)
            assert same_bits(rm.mass_shell_residual(h, s, metric),
                             _reference_mass_shell_residual(h, s, metric))
    s = rm.PhaseState(X0, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError) as expected:
        _reference_mass_shell_residual(custom, s)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        rm.mass_shell_residual(custom, s)


def test_shell_gradients_follow_an_overriding_metric(schw_ham, mink):
    # with another metric than the model's own, the gradients are those of
    # the scalar that ``value`` computes, not of the model's own H_T
    shell = rm.mass_shell_scalar(schw_ham, mink)
    x, p = np.array([0.0, 6.0, 1.2, 0.3]), np.array([0.9, 0.2, 0.1, 0.3])
    want_x = fd_partials(lambda xx: shell.value(xx, p), x)
    want_p = fd_partials(lambda pp: shell.value(x, pp), p)
    npt.assert_allclose(shell.grad_x(x, p), want_x, rtol=1e-6, atol=1e-9)
    npt.assert_allclose(shell.grad_p(x, p), want_p, rtol=1e-6, atol=1e-9)
    flow_p, flow_x = shell.flow(x, p)
    npt.assert_allclose(flow_p, want_p, rtol=1e-6, atol=1e-9)
    npt.assert_allclose(flow_x, -want_x, rtol=1e-6, atol=1e-9)


# -- velocity map ------------------------------------------------------------------

def test_legendre_examples(free_ham):
    npt.assert_array_equal(
        rm.legendre_velocity(free_ham, rm.PhaseState(X0, np.array([1.0, 0, 0, 0]))),
        [1.0, 0, 0, 0])
    npt.assert_array_equal(
        rm.legendre_velocity(free_ham,
                             rm.PhaseState(X0, np.array([1.25, -0.75, 0, 0]))),
        [1.25, 0.75, 0, 0])


def test_shell_maps_to_unit_vectors(schw, schw_ham, schw_gf):
    # scale kinetic momenta onto the shell, then the velocity image is unit
    rng = np.random.default_rng(1)
    from conftest import random_point
    for _ in range(300):
        x = random_point(schw, rng)
        ginv = rm.inverse_metric_at(schw, x)
        for _ in range(100):
            d = rng.standard_normal(4)
            d[0] = math.copysign(2.0 + abs(d[0]), d[0])
            q = float(d @ ginv @ d)
            if q > 0.1:
                break
        p = d / math.sqrt(q)
        s = rm.PhaseState(x, p)
        assert abs(rm.mass_shell_residual(schw_ham, s)) <= 1e-10
        u = rm.legendre_velocity(schw_ham, s)
        g = rm.metric_at(schw, x)
        assert abs(float(u @ g @ u) - 1.0) <= 1e-10


def test_on_shell_momentum_round_trip(schw, schw_gf, uniform_b):
    ham = rm.standard_hamiltonian(schw, uniform_b, 1.7, 0.4)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, u = random_state(schw, schw_gf, rng)
        u = rm.project_to_shell(schw_gf, x, u)
        p = rm.on_shell_momentum(ham, x, u)
        s = rm.PhaseState(x, p)
        npt.assert_allclose(rm.legendre_velocity(ham, s), u, rtol=1e-10,
                            atol=1e-12)
        assert abs(rm.mass_shell_residual(ham, s)) <= 1e-10


# -- gradients ----------------------------------------------------------------------

def test_gradients_match_finite_differences(schw, uniform_b):
    ham = rm.standard_hamiltonian(schw, uniform_b, 1.3, 0.8)
    rng = np.random.default_rng(3)
    from conftest import random_point
    for _ in range(100):
        x = random_point(schw, rng)
        p = rng.standard_normal(4)

        def num_grad(f, z0, wrt):
            out = np.empty(4)
            for lam in range(4):
                h = FD_STEP * max(1.0, abs(z0[lam]))
                zp, zm = z0.copy(), z0.copy()
                zp[lam] += h
                zm[lam] -= h
                if wrt == "x":
                    out[lam] = (f(zp, p) - f(zm, p)) / (2 * h)
                else:
                    out[lam] = (f(x, zp) - f(x, zm)) / (2 * h)
            return out

        gx = ham.grad_x(x, p)
        gp = ham.grad_p(x, p)
        nx = num_grad(ham.value, x, "x")
        npp = num_grad(ham.value, p, "p")
        scale_x = np.max(np.abs(gx)) + 1.0
        scale_p = np.max(np.abs(gp)) + 1.0
        assert np.max(np.abs(gx - nx)) / scale_x <= 1e-6
        assert np.max(np.abs(gp - npp)) / scale_p <= 1e-6


def test_custom_hamiltonian_fd_fallback(mink):
    ham = rm.custom_hamiltonian(4, lambda x, p: float(p @ p) / 2 + float(x @ x))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    p = np.array([1.0, -1.0, 0.5, 0.0])
    npt.assert_allclose(ham.grad_p(x, p), p, atol=1e-8)
    npt.assert_allclose(ham.grad_x(x, p), 2 * x, atol=1e-8)


# -- canonical structure ---------------------------------------------------------------

def test_flow_free_particle(free_ham):
    xdot, pdot = rm.hamiltonian_vector_field(
        free_ham, rm.PhaseState(X0, np.array([1.0, 0, 0, 0])))
    npt.assert_array_equal(xdot, [1.0, 0, 0, 0])
    npt.assert_array_equal(pdot, np.zeros(4))


def test_flow_magnetic_spot_value(magnetic_ham):
    # at x = 0 the potential vanishes, p = (1.25, -0.75, 0, 0) has zero
    # component along the only nonzero gradient of A, so pdot = 0
    s = rm.PhaseState(X0, np.array([1.25, -0.75, 0.0, 0.0]))
    xdot, pdot = rm.hamiltonian_vector_field(magnetic_ham, s)
    npt.assert_allclose(xdot, [1.25, 0.75, 0.0, 0.0], atol=1e-15)
    npt.assert_allclose(pdot, np.zeros(4), atol=1e-15)


def test_bracket_antisymmetry(magnetic_ham):
    s = rm.PhaseState(np.array([0.1, 0.2, -0.3, 0.4]),
                      np.array([1.1, -0.2, 0.3, 0.05]))
    assert rm.poisson_bracket(magnetic_ham, magnetic_ham, s) == 0.0


def test_bracket_canonical_pairs():
    for lam in range(4):
        for mu in range(4):
            s = rm.PhaseState(np.array([0.3, 1.0, -2.0, 0.1]),
                              np.array([0.7, 0.2, 0.0, -1.0]))
            val = rm.poisson_bracket(rm.coordinate_scalar(4, lam),
                                     rm.momentum_scalar(4, mu), s)
            assert val == (1.0 if lam == mu else 0.0)


def test_bracket_h_with_shell(schw, magnetic_ham, schw_gf, uniform_b):
    schw_ham = rm.standard_hamiltonian(schw, uniform_b, 1.0, 1.0)
    rng = np.random.default_rng(4)
    from conftest import random_point
    for ham, metric in ((magnetic_ham, rm.minkowski()), (schw_ham, schw)):
        shell = rm.mass_shell_scalar(ham)
        for _ in range(1000):
            s = rm.PhaseState(random_point(metric, rng), rng.standard_normal(4))
            assert abs(rm.poisson_bracket(ham, shell, s)) <= 1e-12


# -- second-order reduction --------------------------------------------------------------

def test_second_order_free(free_ham):
    npt.assert_array_equal(
        rm.second_order_rhs(free_ham, X0, np.array([1.0, 0, 0, 0])), np.zeros(4))


def test_second_order_magnetic(magnetic_ham):
    npt.assert_allclose(
        rm.second_order_rhs(magnetic_ham, X0, np.array([1.25, 0.75, 0.0, 0.0])),
        [0.0, 0.0, 0.75, 0.0], atol=1e-14)


def test_second_order_matches_geodesic(mink, schw, uniform_b):
    rng = np.random.default_rng(5)
    for metric in (mink, schw):
        gf = rm.GTensorField.from_metric(metric)
        for pot, charge in ((rm.zero_potential(4), 0.0), (uniform_b, 1.0)):
            ham = rm.standard_hamiltonian(metric, pot, 1.0, charge)
            conn = rm.connection_from(metric, pot, 1.0, charge)
            for _ in range(250):
                x, u = random_state(metric, gf, rng)
                u = rm.project_to_shell(gf, x, u)
                a_h = rm.second_order_rhs(ham, x, u)
                a_g = rm.geodesic_rhs(conn, x, u)
                denom = max(np.max(np.abs(a_g)), np.max(np.abs(a_h)), 1e-12)
                assert np.max(np.abs(a_h - a_g)) / denom <= 1e-8


def test_second_order_requires_standard():
    ham = rm.custom_hamiltonian(4, lambda x, p: float(p @ p))
    with pytest.raises(ValueError):
        rm.second_order_rhs(ham, X0, np.ones(4))


# -- integration -----------------------------------------------------------------------------

def test_integrate_free_straight_line(free_ham):
    s0 = rm.PhaseState(X0, np.array([1.0, 0, 0, 0]))
    traj = rm.integrate_hamiltonian(free_ham, s0, 0.01, 500, 50)
    assert np.all(traj.p == np.array([1.0, 0, 0, 0]))
    assert np.all(traj.HT == 0.0)
    npt.assert_allclose(traj.x[:, 0], traj.tau, atol=1e-12)


def test_integrate_magnetic_shell_drift(magnetic_ham):
    p0 = rm.on_shell_momentum(magnetic_ham, X0, np.array([1.25, 0.75, 0.0, 0.0]))
    traj = rm.integrate_hamiltonian(magnetic_ham, rm.PhaseState(X0, p0),
                                    1e-3, 10_000, 100)
    assert traj.max_shell_drift <= 1e-8
    # autonomous flow conserves H itself
    assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-10


def test_integrate_schwarzschild_conserves_h(schw_ham, schw_gf):
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    p0 = rm.on_shell_momentum(schw_ham, x0, u0)
    traj = rm.integrate_hamiltonian(schw_ham, rm.PhaseState(x0, p0),
                                    1e-3, 10_000, 100)
    assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-10
    assert traj.max_shell_drift <= 1e-7


def test_fourth_order_shell_convergence(schw, schw_gf):
    ham = rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)
    x0 = np.array([0.0, 6.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.5, 0.2, 0.0, 0.11]))
    p0 = rm.on_shell_momentum(ham, x0, u0)
    drifts = []
    for mult in (1, 2):
        traj = rm.integrate_hamiltonian(ham, rm.PhaseState(x0, p0),
                                        0.1 / mult, 300 * mult, 300 * mult)
        drifts.append(abs(traj.HT[-1]))
    ratio = drifts[0] / drifts[1]
    assert 8.0 <= ratio <= 32.0, f"convergence ratio {ratio}"


def test_geodesic_and_hamiltonian_trajectories_agree(mink, schw, mink_gf,
                                                     schw_gf, uniform_b):
    cases = [
        (mink, mink_gf, uniform_b, 1.0,
         rm.FourState(X0, np.array([1.25, 0.75, 0.0, 0.0]))),
        (schw, schw_gf, rm.zero_potential(4), 0.0,
         rm.FourState(np.array([0.0, 10.0, math.pi / 2, 0.0]),
                      rm.project_to_shell(
                          schw_gf, np.array([0.0, 10.0, math.pi / 2, 0.0]),
                          np.array([1.1, -0.05, 0.0, 0.03])))),
    ]
    for metric, gf, pot, charge, s0 in cases:
        conn = rm.connection_from(metric, pot, 1.0, charge)
        traj = rm.integrate_geodesic(conn, gf, s0, 1e-3, 10_000, "none", 20)
        ham = rm.standard_hamiltonian(metric, pot, 1.0, charge)
        p0 = rm.on_shell_momentum(ham, s0.x, s0.u)
        ptraj = rm.integrate_hamiltonian(ham, rm.PhaseState(s0.x, p0),
                                         1e-3, 10_000, 20)
        assert np.max(np.abs(traj.x - ptraj.x)) <= 1e-6


def test_off_shell_start_warns(free_ham):
    with pytest.warns(UserWarning, match="off the mass shell"):
        rm.integrate_hamiltonian(free_ham,
                                 rm.PhaseState(X0, np.array([2.0, 0, 0, 0])),
                                 0.1, 2)


def test_standard_flow_matches_gradients(schw, mink, uniform_b):
    # H and its shell scalar H_T, at single points and on one (N, 4) batch
    rng = np.random.default_rng(8)
    for metric in (schw, mink, shear_minkowski(0.9)[0]):
        ham = rm.standard_hamiltonian(metric, uniform_b, 1.3, 0.8)
        points = [(random_point(metric, rng), rng.standard_normal(4))
                  for _ in range(200)]
        batch = tuple(np.stack(rows) for rows in zip(*points))
        for model in (ham, rm.mass_shell_scalar(ham)):
            for x, p in points + [batch]:
                xdot, pdot = model.flow(x, p)
                npt.assert_array_equal(xdot, model.grad_p(x, p))
                npt.assert_array_equal(pdot, -model.grad_x(x, p))


def _reference_rk4(h, s0, dt, steps, record_every, metric=None):
    """The integrator as it was before the flow field: the gradients are
    evaluated separately and the shell monitor calls grad_p once more."""
    metric = metric if metric is not None else h.standard.metric
    x, p = np.array(s0.x), np.array(s0.p)

    def shell(xx, pp):
        v = h.grad_p(xx, pp)
        return float(v @ rm.metric_at(metric, xx) @ v) - 1.0

    def flow(xx, pp):
        return h.grad_p(xx, pp), -h.grad_x(xx, pp)

    xs, ps, hts, tau = [x.copy()], [p.copy()], [shell(x, p)], 0.0
    for k in range(1, steps + 1):
        try:
            k1x, k1p = flow(x, p)
            k2x, k2p = flow(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
            k3x, k3p = flow(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
            k4x, k4p = flow(x + dt * k3x, p + dt * k3p)
        except DomainError as exc:
            raise DomainError(f"left the metric domain during step {k}: {exc}",
                              tau=tau) from exc
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        try:
            htk = shell(x, p)
        except DomainError as exc:
            raise DomainError(f"left the metric domain during step {k}: {exc}",
                              tau=tau) from exc
        tau = k * dt
        if k % record_every == 0 or k == steps:
            xs.append(x.copy())
            ps.append(p.copy())
            hts.append(htk)
    return np.stack(xs), np.stack(ps), np.asarray(hts)


# The numpy diagonal-metric kernel and the integrator's first stage as they
# were when the shell monitor read g through metric_at and every stage read
# the potential, copied verbatim (with the reader they called) so that a
# change of bits inside the float stages shows against them.

def _frozen_diagonal_form(metric, x, g=None):
    if g is None:
        g = metric_at(metric, x)
    d = g.diagonal()
    ad = [abs(v) for v in d.tolist()]
    lo = min(ad)
    if not (lo > 0.0 and math.isfinite(sum(ad))) or np.count_nonzero(g) != d.size:
        return None
    _check_condition(max(ad) * (1.0 / lo), x)
    dd = _diagonal(_field_at(metric.partials, x))
    return None if dd is None else (d, dd)


def _frozen_diagonal_stage(std, kinetic):
    metric, potential, mass, e = std.metric, std.potential, std.mass, std.charge

    def stage(x, p, shell=None):
        w = kinetic(x, p)
        g = shell[1] if shell is not None and shell[0] is metric else None
        form = _frozen_diagonal_form(metric, x, g)
        if form is None:
            return None
        d, dd = form
        da = _field_at(potential.partials, x)
        v = w * (1.0 / d)
        k = np.concatenate((v, 0.5 * (dd @ (v * v))))
        k /= mass
        k[d.size:] += (e / mass) * (da @ v)
        k += 0.0
        return k, None if shell is None else 0.5 * float(v @ w) / mass

    return stage


def _frozen_rk4(h, s0, dt, steps, record_every):
    """integrate_hamiltonian on a diagonal metric, with the frozen kernel at
    every stage: (x, p, H, HT) at the recorded samples."""
    std = h.standard
    shell_metric = std.metric
    m = s0.x.size

    def kinetic(x, p):
        return p - std.charge * _field_at(std.potential.value, x)

    stage = _frozen_diagonal_stage(std, kinetic)

    def flow(y):
        return stage(y[:m], y[m:])[0]

    def first_stage(y):
        g = metric_at(shell_metric, y[:m])
        k, hv = stage(y[:m], y[m:], (shell_metric, g))
        return k, float(k[:m] @ g @ k[:m]) - 1.0, hv

    y = np.concatenate((s0.x, s0.p)).astype(float)
    k1, ht, hv = first_stage(y)
    ys, hts, hs = [y], [ht], [hv]
    for k in range(1, steps + 1):
        k2 = flow(y + 0.5 * dt * k1)
        k3 = flow(y + 0.5 * dt * k2)
        k4 = flow(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1, ht, hv = first_stage(y)
        if k % record_every == 0 or k == steps:
            ys.append(y)
            hts.append(ht)
            hs.append(hv)
    ys = np.stack(ys)
    return ys[:, :m], ys[:, m:], np.asarray(hs), np.asarray(hts)


def test_integrator_matches_reference_loop(schw, schw_gf, mink, uniform_b):
    # the float stages keep the bits of the frozen kernel: at charge 0 with
    # any potential, which it no longer reads, and at charge 1
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    cases = [(schw, pot, 0.0, x0, u0)
             for pot in (rm.zero_potential(4),
                         rm.uniform_field((0.3, -0.2, 0.5), (1.0, 2.0, -0.7)),
                         rm.coulomb_potential(0.8, center=(0.1, -0.2, 0.3)))]
    cases.append((mink, uniform_b, 1.0, X0, np.array([1.25, 0.75, 0.0, 0.0])))
    for metric, pot, charge, x, u in cases:
        ham = rm.standard_hamiltonian(metric, pot, 1.3, charge)
        s0 = rm.PhaseState(x, rm.on_shell_momentum(ham, x, u))
        traj = rm.integrate_hamiltonian(ham, s0, 0.05, 200, 7)
        want = _frozen_rk4(ham, s0, 0.05, 200, 7)
        for got, ref in zip((traj.x, traj.p, traj.H, traj.HT), want):
            assert same_bits(got, ref)


def test_generic_path_keeps_reference_bits(schw, schw_gf, uniform_b):
    # where h.flow is called at every stage the flow is the gradients' own,
    # as in the reference, and H is h.value
    shear = shear_minkowski(0.9)[0]
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    cases = [(generic(rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)),
              x0, u0),
             (rm.standard_hamiltonian(shear, uniform_b, 1.0, 1.0), X0,
              np.array([1.25, 0.75, 0.0, 0.0]))]
    for ham, x, u in cases:
        s0 = rm.PhaseState(x, rm.on_shell_momentum(ham, x, u))
        traj = rm.integrate_hamiltonian(ham, s0, 0.05, 200, 7)
        xs, ps, hts = _reference_rk4(ham, s0, 0.05, 200, 7)
        npt.assert_array_equal(traj.x, xs)
        npt.assert_array_equal(traj.p, ps)
        npt.assert_array_equal(traj.HT, hts)
        npt.assert_array_equal(traj.H, [ham.value(xi, pi) for xi, pi in zip(xs, ps)])


def test_replaced_flow_or_value_is_integrated(schw, schw_gf):
    # a flow or value put in with dataclasses.replace is what the run uses
    ham = rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    s0 = rm.PhaseState(x0, rm.on_shell_momentum(ham, x0, u0))
    want = rm.integrate_hamiltonian(ham, s0, 0.5, 20, 5)

    frozen = dataclasses.replace(ham, flow=lambda x, p: (ham.grad_p(x, p), np.zeros(4)))
    traj = rm.integrate_hamiltonian(frozen, s0, 0.5, 20, 5)
    npt.assert_array_equal(traj.p, np.broadcast_to(s0.p, traj.p.shape))

    doubled = dataclasses.replace(ham, value=lambda x, p: 2.0 * ham.value(x, p))
    traj = rm.integrate_hamiltonian(doubled, s0, 0.5, 20, 5)
    npt.assert_array_equal(traj.H, [2.0 * ham.value(x, p) for x, p in zip(traj.x, traj.p)])
    npt.assert_allclose(traj.x, want.x, rtol=1e-12)
    assert not np.array_equal(traj.H, want.H)


def test_domain_exit_keeps_message_and_tau(schw, schw_gf, free_ham):
    # a plunge into r = 2M fails inside an RK4 stage
    ham = rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([2.0, -0.5, 0.0, 0.0]))
    plunge = (ham, rm.PhaseState(x0, rm.on_shell_momentum(ham, x0, u0)), None)

    # a shell metric that ends at t = 0.25 fails only where the monitor
    # evaluates it, at the point reached by step 3
    def wall(x):
        if x[0] > 0.25:
            raise DomainError(f"t = {x[0]:g} is past the wall")

    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    walled = rm.MetricField(4, lambda x: (wall(x), eta.copy())[1],
                            lambda x: (wall(x), np.zeros((4, 4, 4)))[1])
    monitor = (free_ham, rm.PhaseState(X0, np.array([1.0, 0, 0, 0])), walled)

    for h, s0, metric in (plunge, monitor):
        with pytest.raises(DomainError) as got:
            rm.integrate_hamiltonian(h, s0, 0.1, 10_000, metric=metric)
        with pytest.raises(DomainError) as want:
            _reference_rk4(h, s0, 0.1, 10_000, 1, metric)
        assert str(got.value) == str(want.value)
        assert got.value.tau == want.value.tau
    assert "during step 3" in str(got.value) and got.value.tau == 0.2


def test_one_inversion_per_rhs_stage(schw, schw_gf, mink, uniform_b, inversion_count):
    ham = rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = rm.project_to_shell(schw_gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    p0 = rm.on_shell_momentum(ham, x0, u0)
    at_samples = [0]

    def value(x, p):
        before = inversion_count[0]
        out = ham.value(x, p)
        at_samples[0] += inversion_count[0] - before
        return out

    counted = dataclasses.replace(ham, value=value)
    traj = rm.integrate_hamiltonian(counted, rm.PhaseState(x0, p0), 0.1, 30, 10)
    # one H value per recorded sample; the rest is the first stage at the
    # start plus four flow evaluations per step
    assert at_samples[0] == len(traj) == 4
    assert inversion_count[0] - at_samples[0] == 1 + 4 * 30
    # a metric with a float form: one form read per stage, H and the
    # monitor's g from the first stage, and no inversion
    before = inversion_count[0]
    metric, calls = counting_forms(schw)
    ham = rm.standard_hamiltonian(metric, rm.zero_potential(4), 1.0, 0.0)
    rm.integrate_hamiltonian(ham, rm.PhaseState(x0, p0), 0.1, 30, 10)
    assert inversion_count[0] == before
    assert calls == {"value": 0, "partials": 0, "form": 1 + 4 * 30}
    # the potential: not read at charge 0; at charge 1, its form (A and its
    # partials) once per stage
    cases = [(schw, rm.uniform_field((0.3, -0.2, 0.5), (1.0, 2.0, -0.7)), 0.0, x0, u0,
              {"value": 0, "partials": 0, "form": 0}),
             (mink, uniform_b, 1.0, X0, np.array([1.25, 0.75, 0.0, 0.0]),
              {"value": 0, "partials": 0, "form": 1 + 4 * 30})]
    for metric, pot, charge, x, u, want in cases:
        counted, calls = counting_forms(pot)
        ham = rm.standard_hamiltonian(metric, counted, 1.0, charge)
        s0 = rm.PhaseState(x, rm.on_shell_momentum(ham, x, u))
        calls.update(value=0, partials=0, form=0)
        rm.integrate_hamiltonian(ham, s0, 0.1, 30, 10)
        assert calls == want


# -- the dA matrix kept between stages -----------------------------------------

def _flow_stage(metric, potential):
    return rm.standard_hamiltonian(metric, potential, 1.3, 0.7).flow._float_stage[1]


def _flow_bits(out):
    k, v, w, d = out
    return np.array(k + v + list(w) + list(d)).tobytes()


@pytest.mark.parametrize("case", sorted(KEPT_CASES))
def test_kept_da_matrix_keeps_the_bits(case):
    # one stage called at a run of states gives, at each, the bits of a
    # stage built afresh and called once there
    metric, potential = KEPT_CASES[case]
    stage = _flow_stage(metric, potential)
    for x, p in stage_states(metric, 4, 60):
        assert _flow_bits(stage(x, p)) == _flow_bits(_flow_stage(metric, potential)(x, p))


def test_threads_sharing_a_model_get_the_serial_bits(schw, mink):
    # four threads share one stage, on the key objects of two uniform fields
    # in turn, and on Schwarzschild in a uniform field; whole runs too
    for metric, potential, points in (two_region_fields(mink) + (mink,),
                                      KEPT_CASES["schwarzschild-uniform"] + (schw,)):
        stage = _flow_stage(metric, potential)
        states = [stage_states(points, seed, 25) for seed in range(4)]

        def calls(own):
            return lambda: [_flow_bits(stage(x, p)) for _ in range(40) for x, p in own]

        serial = [calls(own)() for own in states]
        assert in_threads([calls(own) for own in states]) == serial
    ham = rm.standard_hamiltonian(schw, KEPT_CASES["schwarzschild-uniform"][1], 1.0, 0.7)
    starts = []
    for r in (8.0, 10.0, 12.0, 14.0):
        x = np.array([0.0, r, 1.2, 0.0])
        u = rm.project_to_shell(rm.GTensorField.from_metric(schw), x,
                                np.array([1.2, 0.05, 0.01, 0.03]))
        starts.append(rm.PhaseState(x, rm.on_shell_momentum(ham, x, u)))

    def runs(s0):
        return lambda: rm.integrate_hamiltonian(ham, s0, 0.05, 150, 7)

    serial = [runs(s0)() for s0 in starts]
    for got, want in zip(in_threads([runs(s0) for s0 in starts]), serial):
        assert same_bits(got.x, want.x) and same_bits(got.p, want.p)


def test_constant_fields_build_the_da_matrix_once(monkeypatch, mink, uniform_b):
    # Minkowski in a uniform B field: one build of dA per run, counted as the
    # np.array calls on its entries
    entries = uniform_b.partials(X0).ravel().tolist()
    builds = [0]
    array = np.array

    def counted(obj, *args, **kwargs):
        builds[0] += isinstance(obj, list) and obj == entries
        return array(obj, *args, **kwargs)

    ham = rm.standard_hamiltonian(mink, uniform_b, 1.0, 0.5)
    s0 = rm.PhaseState(X0, rm.on_shell_momentum(ham, X0, np.array([1.25, 0.75, 0.0, 0.0])))
    monkeypatch.setattr(np, "array", counted)
    traj = rm.integrate_hamiltonian(ham, s0, 0.01, 50)
    assert len(traj) == 51 and builds[0] == 1
