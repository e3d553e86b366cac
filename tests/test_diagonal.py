"""The integrators' O(m^2) float stages for the catalog fields.

Where the metric (and, at a nonzero charge, the potential) declares a float
form, ``integrate_geodesic`` and ``integrate_hamiltonian`` step through
float stages that ``connection_from`` and ``standard_hamiltonian`` attach to
``K`` and to ``flow``/``value``.  They must stay within a few ulps of the
public kernels (``K(x, u) u`` and ``HamiltonianModel.flow``), raise the same
errors with the same messages, and write no -0.  The chart-time stage of
``integrate_three_velocity`` must have the bits of ``three_acceleration``.
"""

import dataclasses
import math

import numpy as np
import pytest

import relmech as rm
import relmech.lagrangian as lagrangian
from relmech.checks import sample_point, sample_velocity
from relmech.errors import DomainError, NonPositiveG, SingularMetric, StepRejected
from relmech.geometry import _declare
from relmech.lagrangian import _float_three_acceleration

from conftest import declared, generic, same_bits, shear_minkowski

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


def test_stages_on_a_rejected_metric_raise_at_every_call():
    # inverse_metric_at rejects diag = 1, -1e-13, -1, -1 at every point; its
    # form returns the same d at every call, and a geodesic and a
    # Hamiltonian stage raise inverse_metric_at's error and message at
    # every call, not at the first alone
    metric = _near_singular()
    eb = rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03))
    points = [[0.0, 0.0, 0.0, 0.0], [0.5, -1.0, 0.25, 2.0], [0.0, 0.0, 0.0, 0.0]]
    u = [1.0, 0.1, -0.2, 0.05]
    for charge in (0.0, 0.5):
        form, accel = rm.connection_from(metric, eb, 1.0, charge).K._float_stage
        flow = rm.standard_hamiltonian(metric, eb, 1.0, charge).flow._float_stage[1]
        for stage in (lambda x: accel(x, u, form(x)), lambda x: flow(x, u)):
            for x in points:
                with pytest.raises(SingularMetric) as want:
                    rm.inverse_metric_at(metric, x)
                for _ in range(2):
                    with pytest.raises(SingularMetric) as got:
                        stage(x)
                    assert str(got.value) == str(want.value)


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
    # an exact zero on the diagonal raises K's SingularMetric and message;
    # where the field declares a float form, that form raises it, from the
    # stage at t = 0.2 on, and so does Schwarzschild's at a start at the
    # pole; Hamiltonian runs, at charge 0 and 0.5, raise as the generic
    # flow does
    eta = np.array([1.0, -1.0, -1.0, -1.0])

    def value(x):
        return np.diag(eta * np.array([1.0, 1.0, 1.0, 0.0 if x[0] > 0.15 else 1.0]))

    undeclared = rm.MetricField(4, value, lambda x: np.zeros((4, 4, 4)))
    declared = rm.MetricField(4, lambda x: value(x), lambda x: np.zeros((4, 4, 4)))
    declared.value.float_form = declared.partials.float_form = (
        lambda x: (tuple(value(x).diagonal().tolist()), ()))
    runs = [(undeclared, np.zeros(4), np.eye(4)[0]), (declared, np.zeros(4), np.eye(4)[0]),
            (rm.schwarzschild(1.0), np.array([0.0, 10.0, 0.0, 0.0]),
             np.eye(4)[0] / math.sqrt(0.8))]
    eb = rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03))
    for metric, x0, u0 in runs:
        conn = rm.levi_civita_connection(metric)
        assert hasattr(conn.K, "_float_stage") == (metric is not undeclared)
        gf = rm.GTensorField.from_metric(metric)
        integrations = [(conn, lambda model: rm.integrate_geodesic(
            model, gf, rm.FourState(x0, u0), 0.1, 10))]
        for charge in (0.0, 0.5):
            ham = rm.standard_hamiltonian(metric, eb, 1.0, charge)
            p0 = rm.on_shell_momentum(ham, x0, u0)
            integrations.append((ham, lambda model, p0=p0: rm.integrate_hamiltonian(
                model, rm.PhaseState(x0, p0), 0.1, 10)))
        for model, integrate in integrations:
            failures = [_failure(lambda: integrate(path(model)))
                        for path in (lambda model: model, generic)]
            assert failures[0] == failures[1]
            assert failures[0][0] is SingularMetric and "metric is singular at x" in failures[0][1]


def test_overflowing_diagonal_runs_have_the_generic_bits():
    # finite nonzero entries whose sum of |g_aa| overflows: the form gives
    # its numbers, and the float stages' runs have the generic runs' bits
    metric = rm.diagonal_metric([1e308, 1e308, -1e308, -1e308])
    eb = rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03))
    gf = rm.GTensorField.from_metric(metric)
    x0 = np.zeros(4)
    u0 = rm.project_to_shell(gf, x0, np.array([1.1, 0.2, -0.1, 0.3]))
    conn = rm.connection_from(metric, eb, 1.0, 0.5)
    ham = rm.standard_hamiltonian(metric, eb, 1.0, 0.5)
    assert hasattr(conn.K, "_float_stage") and hasattr(ham.flow, "_float_stage")
    p0 = rm.on_shell_momentum(ham, x0, u0)
    runs = []
    for path in (lambda model: model, generic):
        geo = rm.integrate_geodesic(path(conn), gf, rm.FourState(x0, u0), 0.05, 300,
                                    record_every=7)
        phase = rm.integrate_hamiltonian(path(ham), rm.PhaseState(x0, p0), 0.05, 300, 7)
        runs.append((geo.tau, geo.x, geo.u, geo.G, np.float64(geo.max_constraint_drift),
                     phase.tau, phase.x, phase.p, phase.H, phase.HT,
                     np.float64(phase.max_shell_drift)))
    for a, b in zip(*runs):
        assert same_bits(a, b)


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


#: chart-time states per (metric, potential) pair, and the charges they meet
CHART_STATES = 400
CHARGES = (0.0, 1.0, -1.0, 0.5)


def _time_dependent_metric():
    """g = diag(1 + 0.3 t^2 + 0.1 x^2, -1, -1, -1) with its float form: the
    slopes d_0 g_00 and d_1 g_00, where no catalog metric has a q^0 slope."""
    def entries(x):
        t, r = float(x[0]), float(x[1])
        return (1.0 + 0.3 * t * t + 0.1 * r * r, -1.0, -1.0, -1.0), \
            ((0, 0, 0.6 * t), (1, 0, 0.2 * r))

    def partials(x):
        dg = np.zeros((4, 4, 4))
        for mu, a, val in entries(x)[1]:
            dg[mu, a, a] = val
        return dg

    metric = rm.MetricField(4, lambda x: np.diag(entries(x)[0]), partials)
    return _declare(metric, entries)


CHART_METRICS = {**METRICS, "time-dependent": _time_dependent_metric}


def _bits(call):
    """The bytes of the float array call() returns, or its error's type and
    message."""
    try:
        return np.asarray(call(), dtype=float).tobytes()
    except (DomainError, NonPositiveG, SingularMetric, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("pot", sorted(POTENTIALS))
@pytest.mark.parametrize("name", sorted(CHART_METRICS))
def test_chart_time_stage_has_the_bits_of_three_acceleration(monkeypatch, name, pot):
    # v = u[1:] / u[0] inside the light cone, with +0 and -0 components; on
    # Schwarzschild the sums over the slopes add terms of comparable size,
    # so a stage that sums them in another order than numpy's BLAS calls
    # misses by an ulp on a share of these states.  Every state goes
    # through the float arithmetic: the stage calls three_acceleration at
    # none of them
    metric, potential = CHART_METRICS[name](), POTENTIALS[pot]()
    calls = [0]
    solve = lagrangian._solve_three_acceleration

    def counted(model, x, v):
        calls[0] += 1
        return solve(model, x, v)

    monkeypatch.setattr(lagrangian, "_solve_three_acceleration", counted)
    gf = rm.GTensorField.from_metric(metric)
    x, u, _ = _states(metric, sorted(CHART_METRICS).index(name))
    x, u = x[:CHART_STATES], u[:CHART_STATES]
    v = u[:, 1:] / u[:, :1]
    v[1::4, 0] = 0.0
    v[2::4, 2] = -0.0
    for charge in CHARGES:
        model = rm.LagrangianModel(gf, potential, 1.3, charge)
        stage = _float_three_acceleration(model)
        for xi, vi in zip(x, v):
            got = stage(xi.tolist(), vi.tolist())
            assert calls[0] == 0
            three = rm.ThreeVelocity(xi[0], xi[1:], vi)
            assert _bits(lambda: got) == _bits(lambda: rm.three_acceleration(model, three))
            calls[0] = 0  # the reference solve just above


def test_chart_time_stage_errors_are_three_accelerations(schw):
    # the chart's edge, the light cone and the Coulomb center raise in
    # three_acceleration's order, with its messages
    coulomb = rm.coulomb_potential(0.8, center=(6.0, 1.0, 0.5))
    model = rm.LagrangianModel(rm.GTensorField.from_metric(schw), coulomb, 1.0, 0.5)
    stage = _float_three_acceleration(model)
    cases = [((0.0, 1.5, 1.0, 0.5), (0.1, 0.0, 0.0)),  # inside the horizon
             ((0.0, 6.0, 1.0, 0.5), (0.9, 0.0, 0.0)),  # outside the light cone
             ((0.0, 6.0, 1.0, 0.5), (0.1, 0.0, 0.0))]  # at the Coulomb center
    outcomes = []
    for x, v in cases:
        three = rm.ThreeVelocity(x[0], x[1:], v)
        want = _bits(lambda: rm.three_acceleration(model, three))
        assert _bits(lambda: stage(list(x), list(v))) == want
        outcomes.append(want[0])
    assert outcomes == [DomainError, NonPositiveG, DomainError]


def _chart_run(model, start, dt=0.5, steps=40):
    traj = rm.integrate_three_velocity(model, start, dt, steps, 1, 3)
    return traj.tau, traj.x, traj.u, traj.G


def test_chart_time_runs_decline_to_three_acceleration(monkeypatch, schw, n2_gfield):
    # G fields without a float form of order 1 go through
    # three_acceleration with the bits of the generic run (no float stage at
    # all); a g that inverse_metric_at rejects sends no stage there, since
    # this picture never inverts g
    eb = rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03))
    schw_start = rm.ThreeVelocity(0.0, [8.0, 1.1, 0.3], [0.1, 0.03, 0.05])
    flat_start = rm.ThreeVelocity(0.0, [0.3, -0.2, 0.4], [0.1, 0.05, -0.02])
    gf = rm.GTensorField.from_metric(schw)
    quartic = dataclasses.replace(n2_gfield, value=lambda x: n2_gfield.value(x),
                                  partials=lambda x: n2_gfield.partials(x))
    quartic.value.float_form = quartic.partials.float_form = rm.minkowski().value.float_form
    # (G field, start, whether the field has the values of the catalog
    # Schwarzschild field)
    cases = [
        (quartic, flat_start, False),
        (dataclasses.replace(gf, value=lambda x: schw.value(x)), schw_start, True),
        (dataclasses.replace(gf, partials=lambda x: schw.partials(x)), schw_start, True),
        (rm.GTensorField.from_metric(rm.MetricField.from_function(4, schw.value)),
         schw_start, False),
    ]
    chart_times = []  # q^0 at each solve of the generic three_acceleration
    solve = lagrangian._solve_three_acceleration

    def counted(model, x, v):
        chart_times.append(x[0])
        return solve(model, x, v)

    monkeypatch.setattr(lagrangian, "_solve_three_acceleration", counted)
    want = _chart_run(rm.LagrangianModel(gf, eb, 1.0, 0.5), schw_start)
    assert chart_times == []  # the catalog field's float stage
    for field, start, same in cases:
        model = rm.LagrangianModel(field, eb, 1.0, 0.5)
        chart_times.clear()
        got = _chart_run(model, start)
        assert len(chart_times) == 4 * 40
        with monkeypatch.context() as m:
            m.setattr(lagrangian, "_float_three_acceleration", lambda model: None)
            generic = _chart_run(model, start)
        for a, b in zip(got, generic):
            assert same_bits(a, b)
        if same:
            for a, b in zip(got, want):
                assert same_bits(a, b)
    # just off the pole (cond ~ 1e14 at every sample of the run) the
    # catalog field's stage solves in floats, with the generic run's bits
    pole = rm.ThreeVelocity(0.0, [10.0, 1e-7, 0.0], [0.01, 0.0, 0.02])
    model = rm.LagrangianModel(gf, eb, 1.0, 0.0)
    chart_times.clear()
    got = _chart_run(model, pole)
    assert chart_times == []
    for x in got[1]:
        with pytest.raises(SingularMetric, match="numerically singular"):
            rm.inverse_metric_at(schw, x)
    with monkeypatch.context() as m:
        m.setattr(lagrangian, "_float_three_acceleration", lambda model: None)
        generic = _chart_run(model, pole)
    assert len(chart_times) == 4 * 40
    for a, b in zip(got, generic):
        assert same_bits(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's stage divides by 0
@pytest.mark.parametrize("metric, potential", [
    (rm.diagonal_metric([1e-250, -1e-250, -1e-250, -1e-250]), None),  # Gbar^(3/2) underflows
    (rm.diagonal_metric([1e250, -1e250, -1e250, -1e250]), None),  # Gbar^(3/2) overflows
    (rm.minkowski(), rm.uniform_field((math.inf, 0.0, 0.0)))])  # a non-finite force
def test_chart_time_runs_fail_as_the_generic_run(metric, potential):
    # the catalog run raises the error, with its message, of a run whose G
    # field declares no form and so calls three_acceleration at every stage
    potential = potential or rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03))
    start = rm.ThreeVelocity(0.0, [0.3, -0.2, 0.4], [0.1, 0.05, -0.02])
    outcomes = []
    for metric in (metric, rm.MetricField.from_function(4, metric.value)):
        model = rm.LagrangianModel(rm.GTensorField.from_metric(metric), potential, 1.0, 0.5)
        with pytest.raises(StepRejected) as got:
            rm.integrate_three_velocity(model, start, 0.1, 20)
        outcomes.append((type(got.value), str(got.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "non-finite chart state (last good chart time q^0 = 0)"


def test_only_the_hamiltonian_stage_computes_a(mink):
    # geodesic and chart-time stages read the potential's slopes alone; the
    # Hamiltonian stage computes A once per stage, for w = p - eA
    potential = rm.uniform_field((0.3, -0.2, 0.5), (1.0, 2.0, -0.7))
    form = potential.value.float_form
    calls = [0]

    def counted_form(x):
        a, slopes = form(x)

        def counted_a():
            calls[0] += 1
            return a()

        return counted_a, slopes

    counted = declared(potential, counted_form)
    x0, u0 = np.zeros(4), np.array([1.25, 0.75, 0.0, 0.0])
    gf = rm.GTensorField.from_metric(mink)
    rm.integrate_geodesic(rm.connection_from(mink, counted, 1.0, 0.5), gf,
                          rm.FourState(x0, u0), 0.01, 10)
    rm.integrate_three_velocity(rm.LagrangianModel(gf, counted, 1.0, 0.5),
                                rm.ThreeVelocity(0.0, x0[1:], u0[1:] / u0[0]), 0.01, 10)
    assert calls[0] == 0
    ham = rm.standard_hamiltonian(mink, counted, 1.0, 0.5)
    p0 = rm.on_shell_momentum(ham, x0, u0)
    calls[0] = 0
    rm.integrate_hamiltonian(ham, rm.PhaseState(x0, p0), 0.01, 10)
    assert calls[0] == 1 + 4 * 10


def _reference_chart_run(model, start, dt, steps):
    """``integrate_three_velocity`` as a numpy loop over (q^0, q, v) with
    ``three_acceleration`` at every stage, lifted on the full grid."""
    q0, q, v = start.q0, start.q.copy(), start.v.copy()
    samples = [start]

    def rhs(t, q_, v_):
        return v_, rm.three_acceleration(model, rm.ThreeVelocity(t, q_, v_))

    half = 0.5 * dt
    for _ in range(steps):
        k1q, k1v = rhs(q0, q, v)
        k2q, k2v = rhs(q0 + half, q + half * k1q, v + half * k1v)
        k3q, k3v = rhs(q0 + half, q + half * k2q, v + half * k2v)
        k4q, k4v = rhs(q0 + dt, q + dt * k3q, v + dt * k3v)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        q0 += dt
        samples.append(rm.ThreeVelocity(q0, q, v))
    return rm.lift_three_solution(samples, model.gfield, 1)


@pytest.mark.parametrize("pot", ["uniform", "coulomb"])
def test_chart_time_run_matches_numpy_reference_loop(schw, pot):
    potential = {"uniform": rm.uniform_field((0.01, 0.02, -0.01), (0.02, -0.01, 0.03)),
                 "coulomb": rm.coulomb_potential(0.4, center=(1.5, -0.5, 0.25))}[pot]
    model = rm.LagrangianModel(rm.GTensorField.from_metric(schw), potential, 1.0, 0.5)
    start = rm.ThreeVelocity(0.0, [8.0, 1.1, 0.3], [0.1, 0.03, 0.05])
    got = rm.integrate_three_velocity(model, start, 0.5, 150)
    want = _reference_chart_run(model, start, 0.5, 150)
    for a, b in ((got.tau, want.tau), (got.x, want.x), (got.u, want.u), (got.G, want.G)):
        assert same_bits(a, b)
