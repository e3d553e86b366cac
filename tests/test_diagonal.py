"""The integrators' O(m^2) float stages for the catalog fields.

Where the metric (and, at a nonzero charge, the potential) declares a float
form, ``integrate_geodesic`` and ``integrate_hamiltonian`` step through
float stages that ``connection_from`` and ``standard_hamiltonian`` attach to
``K`` and to ``flow``/``value``.  They must stay within a few ulps of the
public kernels (``K(x, u) u`` and ``HamiltonianModel.flow``), raise the same
errors with the same messages, and write no -0.
"""

import dataclasses
import math

import numpy as np
import pytest

import relmech as rm
from relmech.checks import sample_point, sample_velocity
from relmech.errors import DomainError, SingularMetric, StepRejected
from relmech.geometry import _diagonal_float_form

from conftest import generic, same_bits, shear_minkowski

EPS = float(np.finfo(float).eps)
#: per state, |float stage - public| <= TOL_ULPS * eps * (1 + max |public|)
TOL_ULPS = 8.0
STATES = 2000

METRICS = {
    "minkowski": lambda: rm.minkowski(),
    "euclidean": lambda: rm.euclidean(),
    "schwarzschild": lambda: rm.schwarzschild(1.0),
    "diagonal": lambda: rm.diagonal_metric([1.5, -0.75, -2.0, -1.25]),
}
POTENTIALS = {
    "zero": lambda: rm.zero_potential(4),
    "uniform": lambda: rm.uniform_field((0.3, -0.2, 0.5), (1.0, 2.0, -0.7)),
    "coulomb": lambda: rm.coulomb_potential(0.8, center=(0.1, -0.2, 0.3)),
}


def _states(metric, seed):
    """Points, velocities and momenta; a third of them with a zero theta
    (or y) component, as on an equatorial orbit."""
    rng = np.random.default_rng(seed)
    x = np.stack([sample_point(metric, rng) for _ in range(STATES)])
    u = np.stack([sample_velocity(metric, xi, rng) for xi in x])
    p = rng.standard_normal((STATES, 4))
    u[::3, 2] = p[::3, 2] = 0.0
    return x, u, p


def _assert_close(got, want):
    bound = TOL_ULPS * EPS * (1.0 + np.max(np.abs(want), axis=-1))
    worst = np.max(np.abs(got - want), axis=-1)
    assert np.all(worst <= bound), np.max(worst / bound)


def _no_negative_zero(a):
    return not np.any((a == 0.0) & np.signbit(a))


@pytest.mark.parametrize("pot", sorted(POTENTIALS))
@pytest.mark.parametrize("name", sorted(METRICS))
def test_kernels_match_public_kernels(name, pot):
    metric, potential = METRICS[name](), POTENTIALS[pot]()
    x, u, p = _states(metric, sorted(METRICS).index(name))

    for charge in (0.0, 0.7):
        conn = rm.connection_from(metric, potential, 1.3, charge)
        form, accel = conn.K._float_stage
        got = np.array([accel(xi, ui, form(xi)) for xi, ui in zip(x.tolist(), u.tolist())])
        want = rm.geodesic_rhs(conn, x, u)
        _assert_close(got, want)
        assert _no_negative_zero(got)
        if name != "schwarzschild":  # no symbols: the soldering term has K's bits
            assert same_bits(got, want + 0.0)

    ham = rm.standard_hamiltonian(metric, potential, 1.3, 0.7)
    _, stage, energy = ham.flow._float_stage
    assert ham.value._float_stage is ham.flow._float_stage
    got = np.array([stage(xi, pi)[0] for xi, pi in zip(x.tolist(), p.tolist())])
    want = np.concatenate(ham.flow(x, p), axis=-1)
    _assert_close(got, want)
    assert _no_negative_zero(got)
    # dH/dp and H keep the bits of flow and value
    assert same_bits(got[:, :4], want[:, :4] + 0.0)
    for xi, pi in zip(x[:100], p[:100]):
        _, v, w, _ = stage(xi.tolist(), pi.tolist())
        assert energy(v, w) == ham.value(xi, pi)


def test_kernels_find_diagonal_metrics_from_value_and_partials(schw, uniform_b):
    rng = np.random.default_rng(11)
    x = sample_point(schw, rng)
    u = sample_velocity(schw, x, rng)
    # a copy built from the same callables takes the float stage with the same bits
    copy = rm.MetricField.from_function(4, schw.value, schw.partials)
    for metric in (schw, copy):
        form, accel = rm.connection_from(metric, uniform_b, 1.0, 0.7).K._float_stage
        a = accel(x.tolist(), u.tolist(), form(x.tolist()))
        k = rm.standard_hamiltonian(metric, uniform_b, 1.0, 0.7).flow._float_stage[1](
            x.tolist(), u.tolist())[0]
        if metric is schw:
            want = a, k
        assert same_bits(np.array(a), np.array(want[0]))
        assert same_bits(np.array(k), np.array(want[1]))
    # a field that declares no form gives no float stage, diagonal or not: a
    # metric that is not diagonal, a diagonal g whose partials are not (here
    # d_y g_xy, as on the shear chart where g_xy = 0), a copy of a catalog
    # metric or potential with its value or partials replaced, and one whose
    # partials are finite differences
    dg = np.zeros((4, 4, 4))
    dg[2, 1, 2] = dg[2, 2, 1] = 0.9
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    undeclared = [(shear_minkowski(0.9)[0], uniform_b),
                  (rm.MetricField(4, lambda x: eta, lambda x: dg), uniform_b),
                  (dataclasses.replace(schw, value=lambda x: schw.value(x)), uniform_b),
                  (dataclasses.replace(schw, partials=lambda x: schw.partials(x)), uniform_b),
                  (rm.MetricField.from_function(4, schw.value), uniform_b),
                  (schw, dataclasses.replace(uniform_b, partials=lambda x: uniform_b.partials(x)))]
    for metric, potential in undeclared:
        assert not hasattr(rm.connection_from(metric, potential).K, "_float_stage")
        ham = rm.standard_hamiltonian(metric, potential)
        assert not hasattr(ham.flow, "_float_stage")
        assert not hasattr(ham.value, "_float_stage")
    # at charge 0 the potential's declaration is not needed
    assert hasattr(rm.connection_from(schw, undeclared[-1][1], 1.0, 0.0).K, "_float_stage")


def _failure(run):
    with pytest.raises((DomainError, SingularMetric, StepRejected)) as info:
        run()
    return type(info.value), str(info.value), getattr(info.value, "tau", None)


def _plunge(schw):
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    gf = rm.GTensorField.from_metric(schw)
    return x0, rm.project_to_shell(gf, x0, np.array([2.0, -0.5, 0.0, 0.0])), 0.05


def _near_singular():
    return rm.diagonal_metric([1.0, -1e-13, -1.0, -1.0])


def _walled():
    """Minkowski whose value and partials end the chart at t = 0.25."""
    def wall(x):
        if x[0] > 0.25:
            raise DomainError(f"t = {x[0]:g} is past the wall")

    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    return rm.MetricField.from_function(4, lambda x: (wall(x), eta.copy())[1],
                                        lambda x: (wall(x), np.zeros((4, 4, 4)))[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["plunge", "near-singular", "runaway", "wall"])
def test_failures_match_generic_path(case, schw):
    if case == "plunge":
        metric, potential, charge = schw, rm.zero_potential(4), 0.0
        x0, u0, dt = _plunge(schw)
    elif case == "near-singular":
        metric, potential, charge = _near_singular(), rm.zero_potential(4), 0.0
        x0, u0, dt = np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.1
    elif case == "runaway":  # a field so strong that the state overflows
        metric, potential, charge = rm.minkowski(), rm.uniform_field((1e155, 0, 0)), 1.0
        x0, u0, dt = np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    else:
        metric, potential, charge = _walled(), rm.zero_potential(4), 0.0
        x0, u0, dt = np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.1
    gf = rm.GTensorField.from_metric(metric)
    conn = rm.connection_from(metric, potential, 1.0, charge)
    ham = rm.standard_hamiltonian(metric, potential, 1.0, charge)
    p0 = rm.on_shell_momentum(ham, x0, u0)
    failures = []
    for path in (lambda model: model, generic):
        failures.append(_failure(lambda: rm.integrate_geodesic(
            path(conn), gf, rm.FourState(x0, u0), dt, 10_000)))
        failures.append(_failure(lambda: rm.integrate_hamiltonian(
            path(ham), rm.PhaseState(x0, p0), dt, 10_000)))
    assert failures[0] == failures[2] and failures[1] == failures[3], failures
    want = {"plunge": "left the metric domain during step",
            "near-singular": "metric is numerically singular at x = ",
            "runaway": "non-finite state after step",
            "wall": "left the metric domain during step 3: t = 0.3 is past the wall"}[case]
    assert all(f[1].startswith(want) for f in failures), failures


def test_wall_seen_by_finite_difference_partials_alone(schw):
    # value ends the chart just below the point settled by step 13, whose
    # finite-difference partials read value across the wall: the monitor's
    # g_value passes that point and step 14's first stage raises.  The field
    # declares no float form, so a wrapped K must fail as K itself does
    def value(x):
        if x[1] < 2.548415311878169:
            raise DomainError(f"r = {x[1]:.9f} is inside the wall")
        return schw.value(x)

    metric = rm.MetricField.from_function(4, value)
    gf = rm.GTensorField.from_metric(metric)
    conn = rm.levi_civita_connection(metric)
    x0, u0, dt = _plunge(schw)
    failures = [_failure(lambda: rm.integrate_geodesic(path(conn), gf, rm.FourState(x0, u0),
                                                       dt, 100))
                for path in (lambda model: model, generic)]
    assert failures[0] == failures[1], failures
    assert failures[0][1].startswith("left the metric domain during step 14: r = 2.5484")


def test_zero_diagonal_entry_names_the_singular_metric():
    # an exact zero on the diagonal goes to K and its message; where the
    # field declares a float form, that form declines there, from the
    # stage at t = 0.2 on, and the run goes on through K; so does a start
    # at the pole, where Schwarzschild's form declines
    eta = np.array([1.0, -1.0, -1.0, -1.0])

    def value(x):
        return np.diag(eta * np.array([1.0, 1.0, 1.0, 0.0 if x[0] > 0.15 else 1.0]))

    undeclared = rm.MetricField(4, value, lambda x: np.zeros((4, 4, 4)))
    declared = rm.MetricField(4, lambda x: value(x), lambda x: np.zeros((4, 4, 4)))
    declared.value.float_form = declared.partials.float_form = (
        lambda x: _diagonal_float_form(tuple(value(x).diagonal().tolist()), (), x))
    runs = [(undeclared, np.zeros(4), np.eye(4)[0]), (declared, np.zeros(4), np.eye(4)[0]),
            (rm.schwarzschild(1.0), np.array([0.0, 10.0, 0.0, 0.0]),
             np.eye(4)[0] / math.sqrt(0.8))]
    for metric, x0, u0 in runs:
        conn = rm.levi_civita_connection(metric)
        assert hasattr(conn.K, "_float_stage") == (metric is not undeclared)
        failures = [_failure(lambda: rm.integrate_geodesic(
            path(conn), rm.GTensorField.from_metric(metric), rm.FourState(x0, u0), 0.1, 10))
            for path in (lambda model: model, generic)]
        assert failures[0] == failures[1]
        assert failures[0][0] is SingularMetric and "metric is singular at x" in failures[0][1]


@pytest.mark.parametrize("name", ["schwarzschild", "minkowski"])
def test_hamiltonian_column_equals_value(name, uniform_b):
    # H is taken from the first stage at each settled point
    metric = METRICS[name]()
    potential = rm.zero_potential(4) if name == "schwarzschild" else uniform_b
    gf = rm.GTensorField.from_metric(metric)
    x0 = np.array([0.0, 10.0, math.pi / 2, 0.0]) if name == "schwarzschild" else np.zeros(4)
    u0 = rm.project_to_shell(gf, x0, np.array([1.1, -0.05, 0.0, 0.03]))
    ham = rm.standard_hamiltonian(metric, potential, 1.3, 0.7)
    p0 = rm.on_shell_momentum(ham, x0, u0)
    for path in (lambda model: model, generic):
        traj = rm.integrate_hamiltonian(path(ham), rm.PhaseState(x0, p0), 0.05, 300, 7)
        want = np.array([ham.value(x, p) for x, p in zip(traj.x, traj.p)])
        assert np.all(np.abs(traj.H - want) <= 1e-15 * (1.0 + np.abs(want)))


def test_charge_zero_reads_no_potential(mink):
    # at charge 0 no path reads the potential, so a Coulomb center on the
    # path stops neither the float stages, nor the generic path, nor H_T's flow
    x0, u0 = np.zeros(4), np.array([math.sqrt(2.0), 1.0, 0.0, 0.0])
    free = rm.standard_hamiltonian(mink, rm.zero_potential(4), 1.0, 0.0)
    s0 = rm.PhaseState(x0, rm.on_shell_momentum(free, x0, u0))
    want = rm.integrate_hamiltonian(free, s0, 0.1, 20)
    coulomb = rm.coulomb_potential(0.8, center=want.x[10, 1:])
    ham = rm.standard_hamiltonian(mink, coulomb, 1.0, 0.0)
    for path in (lambda model: model, generic):
        traj = rm.integrate_hamiltonian(path(ham), s0, 0.1, 20)
        for got, ref in ((traj.x, want.x), (traj.p, want.p), (traj.H, want.H),
                         (traj.HT, want.HT)):
            assert same_bits(got, ref)
        geo = rm.integrate_geodesic(path(rm.connection_from(mink, coulomb, 1.0, 0.0)),
                                    rm.GTensorField.from_metric(mink),
                                    rm.FourState(x0, u0), 0.1, 20)
        assert len(geo) == len(traj) == 21
    shell, free_shell = rm.mass_shell_scalar(ham), rm.mass_shell_scalar(free)
    for got, ref in zip(shell.flow(want.x, want.p), free_shell.flow(want.x, want.p)):
        assert same_bits(got, ref)
    # nor do the start momenta and the second-order reduction, at the center itself
    center, u = want.x[10], np.array([1.25, 0.5, -0.25, 0.5])
    assert same_bits(rm.on_shell_momentum(ham, center, u),
                     rm.on_shell_momentum(free, center, u))
    assert same_bits(rm.second_order_rhs(ham, center, u),
                     rm.second_order_rhs(free, center, u))
    us = np.tile(u, (len(want), 1))
    assert same_bits(rm.second_order_rhs(ham, want.x, us),
                     rm.second_order_rhs(free, want.x, us))
    # nor the chart-local picture: its acceleration and a run from the center
    gf = rm.GTensorField.from_metric(mink)
    three = rm.ThreeVelocity(center[0], center[1:], u[1:] / u[0])
    lag, free_lag = (rm.LagrangianModel(gf, pot, 1.0, 0.0)
                     for pot in (coulomb, rm.zero_potential(4)))
    assert same_bits(rm.three_acceleration(lag, three),
                     rm.three_acceleration(free_lag, three))
    run, free_run = (rm.integrate_three_velocity(model, three, 0.1, 20)
                     for model in (lag, free_lag))
    for got, ref in ((run.tau, free_run.tau), (run.x, free_run.x),
                     (run.u, free_run.u), (run.G, free_run.G)):
        assert same_bits(got, ref)
    # nor the Lagrangians' values, at the center itself
    assert same_bits(np.float64(rm.lagrangian_value(lag, center, u)),
                     np.float64(rm.lagrangian_value(free_lag, center, u)))
    assert same_bits(np.float64(rm.three_lagrangian_value(lag, three)),
                     np.float64(rm.three_lagrangian_value(free_lag, three)))
