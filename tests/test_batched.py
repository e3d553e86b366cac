"""Batched kernels: a stack of N points gives, row for row, the bits of N
single-point calls (``np.array_equal``, not a tolerance)."""

import math
import re

import numpy as np
import pytest

import relmech as rm
from relmech.checks import _CHECK_B, _CHECK_E, sample_point, sample_velocity
from relmech.dynamics import geodesic_condition_terms
from relmech.geometry import _christoffel_and_inverse, _field_at, contract_all
from relmech.hamiltonian import _bracket, _dginv, _standard_dh_dx
from relmech.lagrangian import _velocity_form_pieces

from conftest import random_velocity, shear_minkowski

METRICS = {
    "minkowski": lambda: rm.minkowski(),
    "euclidean": lambda: rm.euclidean(),
    "schwarzschild": lambda: rm.schwarzschild(1.0),
    "diagonal": lambda: rm.diagonal_metric([1.5, -0.75, -2.0, -1.25]),
    "shear": lambda: shear_minkowski(0.9)[0],
}
SIZES = (1, 4, 37)  # N = m = 4 is where a plain ``t @ u`` broadcasts wrongly


def _parts(out):
    """A kernel's output as a list of arrays."""
    if isinstance(out, rm.ELResidual):
        return [out.E, out.cal_E, np.asarray(out.G)]
    if isinstance(out, tuple):
        return [np.asarray(o) for o in out]
    return [np.asarray(out)]


def assert_rows(kernel, *columns):
    """``kernel`` on the stacked columns equals it on each row, bit for bit."""
    got = _parts(kernel(*columns))
    rows = [_parts(kernel(*row)) for row in zip(*columns)]
    assert len(got) == len(rows[0])
    for k, part in enumerate(got):
        want = np.stack([r[k] for r in rows])
        assert part.shape == want.shape
        assert np.array_equal(part, want)


def _states(metric, n, seed=0):
    rng = np.random.default_rng(seed)
    x, u = [], []
    for _ in range(n):
        xi = sample_point(metric, rng)
        x.append(xi)
        u.append(sample_velocity(metric, xi, rng))
    return np.stack(x), np.stack(u), rng.standard_normal((n, metric.dim))


@pytest.fixture(params=sorted(METRICS))
def metric(request):
    return METRICS[request.param]()


@pytest.fixture(params=SIZES)
def states(request, metric):
    return _states(metric, request.param)


POTENTIALS = {
    "uniform": lambda: rm.uniform_field(_CHECK_E, _CHECK_B),
    "coulomb": lambda: rm.coulomb_potential(0.4, center=(5.0, 5.0, 5.0)),
}


@pytest.fixture(params=sorted(POTENTIALS))
def potential(request):
    return POTENTIALS[request.param]()


def test_geometry_kernels(metric, states):
    x, u, _ = states
    assert_rows(lambda x: rm.metric_at(metric, x), x)
    assert_rows(lambda x: rm.inverse_metric_at(metric, x), x)
    assert_rows(lambda x: _christoffel_and_inverse(metric, x), x)
    gfield = rm.GTensorField.from_metric(metric)
    assert_rows(lambda x, u: rm.g_value(gfield, x, u), x, u)
    assert_rows(lambda x, u: contract_all(rm.metric_at(metric, x), u, 1), x, u)
    assert_rows(lambda x, u: rm.project_to_shell(gfield, x, u), x, u)


def test_faraday(potential):
    x, _, _ = _states(rm.minkowski(), 37)
    assert_rows(lambda x: rm.faraday_at(potential, x), x)


def test_connection_kernels(metric, states, potential):
    x, u, _ = states
    conn = rm.connection_from(metric, potential, mass=1.0, charge=1.0)
    free = rm.levi_civita_connection(metric)
    for c in (conn, free):
        assert_rows(c.K, x, u)
        assert_rows(c.soldering, x, u)
        assert_rows(lambda x, u: rm.geodesic_rhs(c, x, u), x, u)
        assert_rows(lambda x, u: geodesic_condition_terms(metric, x, u, c.K(x, u)), x, u)


def test_hamiltonian_kernels(metric, states, potential):
    x, u, p = states
    ham = rm.standard_hamiltonian(metric, potential, mass=1.0, charge=1.0)
    shell = rm.mass_shell_scalar(ham)
    std = ham.standard
    for h in (ham, shell):
        assert_rows(h.flow, x, p)
        assert_rows(h.grad_x, x, p)
        assert_rows(h.grad_p, x, p)
    assert_rows(lambda x, p: _bracket(ham, shell, x, p), x, p)
    assert_rows(lambda x, u: rm.second_order_rhs(ham, x, u), x, u)

    def dh_dx(x, p):
        ginv = rm.inverse_metric_at(metric, x)
        dginv = _dginv(ginv, _field_at(metric.partials, x))
        return dginv, _standard_dh_dx(std, p, ginv, dginv, _field_at(potential.partials, x))

    assert_rows(dh_dx, x, p)


def test_lagrangian_kernels(metric, states, potential):
    x, u, a = states
    model = rm.LagrangianModel(rm.GTensorField.from_metric(metric), potential, 1.0, 1.0)
    assert_rows(lambda x, u: _velocity_form_pieces(model, x, u), x, u)
    assert_rows(lambda x, u, a: rm.euler_lagrange_E(model, x, u, a), x, u, a)
    assert_rows(lambda x, u, a: rm.variational_derivative(model, x, u, a), x, u, a)
    assert_rows(lambda x, u, a: rm.noether_residual(model, x, u, a), x, u, a)


@pytest.mark.parametrize("n", SIZES)
def test_rank_four_velocity_form(n2_gfield, n):
    rng = np.random.default_rng(3)
    mink = rm.minkowski()
    x = np.stack([sample_point(mink, rng) for _ in range(n)])
    u = np.stack([random_velocity(n2_gfield, xi, rng) for xi in x])
    a = rng.standard_normal((n, 4))
    model = rm.LagrangianModel(n2_gfield, rm.uniform_field(_CHECK_E, _CHECK_B), 1.0, 1.0)
    assert_rows(lambda x, u: rm.g_value(n2_gfield, x, u), x, u)
    assert_rows(lambda x, u: _velocity_form_pieces(model, x, u), x, u)
    assert_rows(lambda x, u, a: rm.noether_residual(model, x, u, a), x, u, a)


def test_single_point_results_keep_their_types(metric):
    x, u, a = (c[0] for c in _states(metric, 1))
    gfield = rm.GTensorField.from_metric(metric)
    model = rm.LagrangianModel(gfield, rm.uniform_field(_CHECK_E, _CHECK_B), 1.0, 1.0)
    assert type(rm.g_value(gfield, x, u)) is float
    assert type(rm.noether_residual(model, x, u, a)) is float
    assert type(rm.variational_derivative(model, x, u, a).G) is float
    res, scale = geodesic_condition_terms(metric, x, u, np.eye(4))
    assert type(res) is float and type(scale) is float
    assert rm.inverse_metric_at(metric, x).shape == (4, 4)


# -- the single-point path keeps the expressions it had before batching -------

def _old_terms(metric, x, u, k):
    dg = np.asarray(metric.partials(x), dtype=float)
    g = rm.metric_at(metric, x)
    au = np.abs(u)
    t1 = float(np.einsum("lmn,m,l,n->", dg, u, u, u))
    t2 = 2.0 * float(u @ g @ (k @ u))
    s1 = float(np.einsum("lmn,m,l,n->", np.abs(dg), au, au, au))
    s2 = 2.0 * float(au @ np.abs(g) @ (np.abs(k) @ au))
    return t1 + t2, s1 + s2 + 1e-30


def _old_noether(model, x, u, a):
    gt = np.asarray(model.gfield.value(x), float)
    dg = np.asarray(model.gfield.partials(x), float)
    g = float(gt @ u @ u)
    e_cov = (dg @ u @ u) / 2 - np.tensordot(u, dg, axes=(0, 0)) @ u - gt @ a
    f = rm.faraday_at(model.potential, x)
    e_cov = e_cov + g ** 0.5 * (f @ u)
    weight = g ** -0.5
    cal = (e_cov - (float(e_cov @ u) / g) * (gt @ u)) * weight
    return abs(float(u @ cal)) / (float(np.linalg.norm(u)) * float(np.linalg.norm(cal)) + 1e-30)


def test_single_point_bits_match_the_unbatched_expressions(metric):
    x, u, a = _states(metric, 200, seed=4)
    conn = rm.connection_from(metric, rm.uniform_field(_CHECK_E, _CHECK_B))
    gfield = rm.GTensorField.from_metric(metric)
    model = rm.LagrangianModel(gfield, rm.uniform_field(_CHECK_E, _CHECK_B), 1.0, 1.0)
    for xi, ui, ai in zip(x, u, a):
        k = conn.K(xi, ui)
        assert geodesic_condition_terms(metric, xi, ui, k) == _old_terms(metric, xi, ui, k)
        assert rm.noether_residual(model, xi, ui, ai) == _old_noether(model, xi, ui, ai)
        g = rm.g_value(gfield, xi, ui)
        assert np.array_equal(rm.project_to_shell(gfield, xi, ui), ui * g ** -0.5)


def test_rank_four_first_derivative_piece_matches_tensordot():
    rng = np.random.default_rng(7)
    t = rm.symmetrize(rng.standard_normal((4, 4, 4, 4)))
    gfield = rm.GTensorField.from_function(
        4, 2, lambda x: t * (1.0 + 0.1 * math.sin(x[0])),
        lambda x: np.stack([0.1 * math.cos(x[0]) * t] + [0.01 * x[i] * t for i in (1, 2, 3)]))
    model = rm.LagrangianModel(gfield, rm.zero_potential(4))
    for _ in range(200):
        x, u = rng.uniform(-2.0, 2.0, 4), rng.standard_normal(4)
        dg = np.asarray(gfield.partials(x))
        want = np.tensordot(u, dg, axes=(0, 0)) @ u @ u @ u
        assert np.array_equal(_velocity_form_pieces(model, x, u)[2], want)


# -- failures name the first failing point -----------------------------------

def test_batch_names_first_singular_point():
    metric = rm.MetricField.from_function(
        4, lambda x: np.diag([1.0, -1.0, -1.0, -(10.0 ** -x[0])]))
    x = np.zeros((5, 4))
    x[:, 0] = [0.0, 1.0, 13.0, 2.0, 14.0]
    with pytest.raises(rm.SingularMetric) as one:
        rm.inverse_metric_at(metric, x[2])
    with pytest.raises(rm.SingularMetric) as batch:
        rm.inverse_metric_at(metric, x)
    assert str(batch.value) == str(one.value)


def test_batch_names_first_lapack_failure():
    zero = np.zeros((4, 4))
    skew = np.array([[0.0, 1.0, 0, 0], [1.0, 0.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]])
    metric = rm.MetricField.from_function(4, lambda x: zero if x[0] > 0.5 else skew)
    x = np.zeros((3, 4))
    x[1:, 0] = 1.0
    with pytest.raises(rm.SingularMetric) as batch:
        rm.inverse_metric_at(metric, x)
    assert str(batch.value) == f"metric is singular at x = {x[1]}"


def test_batch_names_first_non_positive_shell_state():
    gfield = rm.GTensorField.from_metric(rm.minkowski())
    x = np.zeros((3, 4))
    u = np.array([[1.0, 0, 0, 0], [0.5, 1.0, 0, 0], [0.0, 0.0, 2.0, 0]])
    with pytest.raises(rm.NonPositiveG, match=re.escape(f"G = {-0.75:g} ")):
        rm.project_to_shell(gfield, x, u)


def test_wrong_batch_shapes_are_rejected():
    gfield = rm.GTensorField.from_metric(rm.minkowski())
    with pytest.raises(rm.DimensionMismatch):
        rm.g_value(gfield, np.zeros((3, 4)), np.zeros((2, 4)))
    with pytest.raises(rm.DimensionMismatch):
        rm.metric_at(rm.minkowski(), np.zeros((3, 5)))
    assert math.isfinite(rm.g_value(gfield, np.zeros(4), np.ones(4)))
