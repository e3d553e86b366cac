"""The integrators' O(m^2) stage kernels for diagonal metrics.

Where a metric and its partials are diagonal, ``integrate_geodesic`` and
``integrate_hamiltonian`` step through private kernels that ``connection_from``
and ``standard_hamiltonian`` attach to ``K`` and to ``flow``/``value``.  They
must stay within a few ulps of the public kernels (``K(x, u) u`` and
``HamiltonianModel.flow``), raise the same errors with the same messages,
and write no -0.
"""

import math

import numpy as np
import pytest

import relmech as rm
from relmech.checks import sample_point, sample_velocity
from relmech.errors import DomainError, SingularMetric, StepRejected

from conftest import generic, same_bits, shear_minkowski

EPS = float(np.finfo(float).eps)
#: per state, |kernel - public| <= TOL_ULPS * eps * (1 + max |public|)
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
        accel = conn.K._diagonal_acceleration
        got = np.stack([accel(xi, ui) for xi, ui in zip(x, u)])
        want = rm.geodesic_rhs(conn, x, u)
        _assert_close(got, want)
        assert _no_negative_zero(got)
        if name != "schwarzschild":  # no symbols: the soldering term has K's bits
            assert same_bits(got, want + 0.0)

    ham = rm.standard_hamiltonian(metric, potential, 1.3, 0.7)
    stage = ham.flow._diagonal_stage
    assert ham.value._diagonal_stage is stage
    got = np.stack([stage(xi, pi)[0] for xi, pi in zip(x, p)])
    want = np.concatenate(ham.flow(x, p), axis=-1)
    _assert_close(got, want)
    assert _no_negative_zero(got)
    # dH/dp and H keep the bits of flow and value
    assert same_bits(got[:, :4], want[:, :4] + 0.0)
    for xi, pi in zip(x[:100], p[:100]):
        assert stage(xi, pi, metric)[1] == ham.value(xi, pi)


def test_kernels_find_diagonal_metrics_from_value_and_partials(schw, uniform_b):
    rng = np.random.default_rng(11)
    x = sample_point(schw, rng)
    u = sample_velocity(schw, x, rng)
    # a copy built from the same callables takes the kernel with the same bits
    copy = rm.MetricField.from_function(4, schw.value, schw.partials, schw.domain_check)
    for metric in (schw, copy):
        a = rm.connection_from(metric, uniform_b, 1.0, 0.7).K._diagonal_acceleration(x, u)
        k = rm.standard_hamiltonian(metric, uniform_b, 1.0, 0.7).flow._diagonal_stage(x, u)[0]
        if metric is schw:
            want = a, k
        assert same_bits(a, want[0]) and same_bits(k, want[1])
    # neither a metric that is not diagonal nor a diagonal g whose partials
    # are not diagonal (here d_y g_xy, as on the shear chart where g_xy = 0)
    dg = np.zeros((4, 4, 4))
    dg[2, 1, 2] = dg[2, 2, 1] = 0.9
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for metric in (shear_minkowski(0.9)[0], rm.MetricField(4, lambda x: eta, lambda x: dg)):
        assert rm.connection_from(metric, uniform_b).K._diagonal_acceleration(x, u) is None
        assert rm.standard_hamiltonian(metric, uniform_b).flow._diagonal_stage(x, u) is None


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
    """Minkowski whose domain check alone ends the chart at t = 0.25."""
    def wall(x):
        if x[0] > 0.25:
            raise DomainError(f"t = {x[0]:g} is past the wall")

    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    return rm.MetricField.from_function(4, lambda x: eta.copy(),
                                        lambda x: np.zeros((4, 4, 4)), wall)


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


def test_zero_diagonal_entry_names_the_singular_metric():
    # an exact zero on the diagonal goes to K and its message
    eta = np.array([1.0, -1.0, -1.0, -1.0])

    def value(x):
        return np.diag(eta * np.array([1.0, 1.0, 1.0, 0.0 if x[0] > 0.15 else 1.0]))

    metric = rm.MetricField(4, value, lambda x: np.zeros((4, 4, 4)))
    gf = rm.GTensorField.from_metric(metric)
    conn = rm.levi_civita_connection(metric)
    failures = [_failure(lambda: rm.integrate_geodesic(
        path(conn), gf, rm.FourState(np.zeros(4), np.eye(4)[0]), 0.1, 10))
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
    # at charge 0 neither kernel reads the potential, so a Coulomb center on
    # the path does not stop the run; the generic flow still reads A there
    x0, u0 = np.zeros(4), np.array([math.sqrt(2.0), 1.0, 0.0, 0.0])
    free = rm.standard_hamiltonian(mink, rm.zero_potential(4), 1.0, 0.0)
    s0 = rm.PhaseState(x0, rm.on_shell_momentum(free, x0, u0))
    want = rm.integrate_hamiltonian(free, s0, 0.1, 20)
    coulomb = rm.coulomb_potential(0.8, center=want.x[10, 1:])
    ham = rm.standard_hamiltonian(mink, coulomb, 1.0, 0.0)
    traj = rm.integrate_hamiltonian(ham, s0, 0.1, 20)
    for got, ref in ((traj.x, want.x), (traj.p, want.p), (traj.H, want.H),
                     (traj.HT, want.HT)):
        assert same_bits(got, ref)
    geo = rm.integrate_geodesic(rm.connection_from(mink, coulomb, 1.0, 0.0),
                                rm.GTensorField.from_metric(mink),
                                rm.FourState(x0, u0), 0.1, 20)
    assert len(geo) == len(traj) == 21
    fails = _failure(lambda: rm.integrate_hamiltonian(generic(ham), s0, 0.1, 20))
    assert fails == (DomainError, "left the metric domain during step 10: coulomb "
                     "potential is singular at its center", 0.9)
