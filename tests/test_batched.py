"""Batched kernels: a stack of N points gives, row for row, the bits of N
single-point calls (``np.array_equal``, not a tolerance)."""

import dataclasses
import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest

import relmech as rm
from relmech.checks import _CHECK_B, _CHECK_E, sample_point, sample_velocity
from relmech.dynamics import geodesic_condition_terms
from relmech.geometry import (_christoffel_and_inverse, _field_at, _fields_at, _float_form,
                              contract_all)
from relmech.hamiltonian import _bracket, _dginv, _standard_dh_dx
from relmech.lagrangian import _velocity_form_pieces

from conftest import (counting_forms, dense_minkowski, random_velocity, shear_minkowski,
                      two_region_fields)

METRICS = {
    "minkowski": lambda: rm.minkowski(),
    "euclidean": lambda: rm.euclidean(),
    "schwarzschild": lambda: rm.schwarzschild(1.0),
    "diagonal": lambda: rm.diagonal_metric([1.5, -0.75, -2.0, -1.25]),
    "shear": lambda: shear_minkowski(0.9)[0],
    "dense": lambda: dense_minkowski(0.1),
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


# -- block reads through the float form ----------------------------------------

FIELDS = {
    "minkowski": lambda: rm.minkowski(),
    "euclidean": lambda: rm.euclidean(),
    "schwarzschild": lambda: rm.schwarzschild(1.0),
    "diagonal": lambda: rm.diagonal_metric([1.5, -0.75, -2.0, -1.25]),
    "minkowski-3": lambda: rm.minkowski(3),
    "zero": lambda: rm.zero_potential(),
    "uniform": lambda: rm.uniform_field(_CHECK_E, _CHECK_B),
    "uniform-signed-zeros": lambda: rm.uniform_field((-0.0, 0.2, 0.0), (0.0, -0.0, -0.5)),
    "coulomb": lambda: rm.coulomb_potential(0.4, center=(0.5, -0.25, 0.0)),
}


def _per_row(fn, x):
    """``fn`` called on each row of x (..., m), stacked behind the batch axes."""
    rows = [np.asarray(fn(row), dtype=float) for row in x.reshape(-1, x.shape[-1])]
    return np.stack(rows).reshape(x.shape[:-1] + rows[0].shape)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_block_reads_equal_per_row_reads(name):
    field = FIELDS[name]()
    counted, calls = counting_forms(field)
    if field.dim == 4:
        x, _, _ = _states(rm.schwarzschild(1.0), 30, seed=4)  # r > 3: off every center
    else:
        x = np.random.default_rng(4).uniform(-2.0, 2.0, (30, field.dim))
    for batch in (x, x.reshape(5, 6, field.dim), x[:1]):
        for names in (("value",), ("partials",), ("value", "partials"), ("partials", "value")):
            before = dict(calls)
            got = _fields_at(counted, batch, *names)
            rows = batch.size // field.dim
            assert calls["form"] - before["form"] == rows
            assert calls["value"] == before["value"]
            for out, which in zip(got, names):
                assert _same_bits(out, _per_row(getattr(field, which), batch))
    if isinstance(field, rm.PotentialField):
        assert _same_bits(rm.faraday_at(field, x), np.stack([rm.faraday_at(field, r) for r in x]))
    else:
        for read in (rm.metric_at, rm.inverse_metric_at, _christoffel_and_inverse):
            for got, want in zip(_parts(read(field, x)),
                                 zip(*[_parts(read(field, r)) for r in x])):
                assert _same_bits(got, np.stack(want))


def _scatters(read):
    """How often ``_fields_at`` stores an entry into its output (its
    ``flat[...] = v`` lines) during ``read()``, counted with a line tracer."""
    lines, first = inspect.getsourcelines(_fields_at)
    stores = {first + i for i, line in enumerate(lines) if line.lstrip().startswith("flat[")}
    code, count = _fields_at.__code__, [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in stores:
            count[0] += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        read()
    finally:
        sys.settrace(None)
    return count[0]


@pytest.mark.parametrize("name, names", [
    ("minkowski", ("value", "partials")), ("diagonal", ("value", "partials")),
    ("zero", ("value", "partials")), ("uniform", ("partials",)),
])
def test_constant_field_block_read_fills_from_the_first_row(name, names):
    # these forms give the same entries and slopes objects at every row, so
    # a block read stores the first row's entries alone and copies them to
    # the other rows, with the bits of the per-row loop, after one form call
    # per row
    field = FIELDS[name]()
    counted, calls = counting_forms(field)
    x, _, _ = _states(rm.schwarzschild(1.0), 30, seed=4)
    for which in names:
        got, = _fields_at(counted, x, which)
        assert _same_bits(got, _field_at(getattr(field, which), x))
    assert calls == {"value": 0, "partials": 0, "form": 30 * len(names)}
    first_row = _scatters(lambda: _fields_at(field, x[:2], *names))
    assert first_row > 0
    assert _scatters(lambda: _fields_at(field, x, *names)) == first_row
    # a form that gives new objects at every row stores every row
    for field, which in ((rm.schwarzschild(1.0), "value"), (FIELDS["uniform"](), "value")):
        assert _scatters(lambda: _fields_at(field, x, which)) == 15 * _scatters(
            lambda: _fields_at(field, x[:2], which)) > 0


@pytest.mark.parametrize("signs", ["--+-+", "---++", "-++++", "++++-", "+-+-+"])
def test_block_read_of_two_constant_fields_equals_per_row_reads(signs):
    # fields that give one constant object where x^1 < 0 and another
    # elsewhere: a block whose rows switch between them gets the bits of the
    # per-row loop, wherever the first switch falls
    x = np.random.default_rng(9).uniform(0.5, 2.0, (len(signs), 4))
    x[:, 1] *= [-1.0 if sign == "-" else 1.0 for sign in signs]
    for field in two_region_fields(rm.minkowski()):
        for which in ("value", "partials"):
            got, = _fields_at(field, x, which)
            assert _same_bits(got, _field_at(getattr(field, which), x))


def _near_horizon_rows():
    """Schwarzschild rows just above r_min, where inverse_metric_at raises
    SingularMetric (cond >= 1e12) and ``value`` and the form still give g,
    between ordinary rows."""
    x = np.array([[0.0, 7.0, 1.1, 0.3], [0.1, 2.0 + 1e-7, 1.2, 0.0],
                  [0.2, 9.0, 0.7, 2.0], [0.3, 2.0 + 4e-9, 2.0, 1.0],
                  [0.4, 2.0 + 1e-5, 0.5, 4.0]])
    return rm.schwarzschild(1.0), x


def test_float_form_is_for_order_one_alone(n2_gfield):
    # an N = 2 G field that carries a metric's callables has no float form:
    # g_value reads a batch row by row through its own value
    quartic = dataclasses.replace(n2_gfield, value=lambda x: n2_gfield.value(x),
                                  partials=lambda x: n2_gfield.partials(x))
    quartic.value.float_form = quartic.partials.float_form = rm.minkowski().value.float_form
    assert _float_form(quartic) is None
    rng = np.random.default_rng(6)
    x = rng.uniform(-2.0, 2.0, (7, 4))
    u = rng.standard_normal((7, 4))
    want = np.array([contract_all(n2_gfield.value(xi), ui, 4) for xi, ui in zip(x, u)])
    assert _same_bits(rm.g_value(quartic, x, u), want)


def test_block_read_where_inverse_metric_at_raises_reads_the_form():
    # a form only reads the field: where g cannot be inverted, the block
    # read still takes every row from the form, with the callables' bits
    metric, x = _near_horizon_rows()
    for row in x[[1, 3]]:
        with pytest.raises(rm.SingularMetric):
            rm.inverse_metric_at(metric, row)
    counted, calls = counting_forms(metric)
    g, dg = _fields_at(counted, x, "value", "partials")
    assert calls == {"value": 0, "partials": 0, "form": 5}
    assert _same_bits(g, _per_row(metric.value, x))
    assert _same_bits(dg, _per_row(metric.partials, x))
    assert _same_bits(rm.metric_at(metric, x), _per_row(metric.value, x))
    with pytest.raises(rm.SingularMetric) as batch:
        rm.inverse_metric_at(metric, x)
    with pytest.raises(rm.SingularMetric) as one:
        rm.inverse_metric_at(metric, x[1])
    assert str(batch.value) == str(one.value)


@pytest.mark.parametrize("names", [("value",), ("partials",), ("partials", "value")])
def test_block_read_raises_the_per_row_error(names):
    # rows 2 and 4 lie inside the horizon: the first of them names the error
    metric = rm.schwarzschild(1.0)
    x = np.array([[0.0, 7.0, 1.1, 0.3], [0.1, 2.0 + 1e-7, 1.2, 0.0],
                  [0.2, 1.5, 0.7, 2.0], [0.3, 9.0, 2.0, 1.0], [0.4, 1.0, 0.5, 4.0]])
    with pytest.raises(rm.DomainError) as one:
        _field_at(getattr(metric, names[0]), x)
    assert "r = 1.5" in str(one.value)
    with pytest.raises(rm.DomainError) as block:
        _fields_at(metric, x, *names)
    assert str(block.value) == str(one.value)
    with pytest.raises(rm.DomainError) as read:
        rm.metric_at(metric, x)
    assert str(read.value) == str(one.value)

    coulomb = rm.coulomb_potential(0.4, center=(0.5, -0.25, 0.0))
    x = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 0.5, -0.25, 0.0], [0.0, 2.0, 0.0, 0.0]])
    with pytest.raises(rm.DomainError, match="singular at its center"):
        _fields_at(coulomb, x, *names)
    with pytest.raises(rm.DomainError, match="singular at its center"):
        rm.faraday_at(coulomb, x)


def test_block_read_warns_as_the_callables():
    # a potential's form computes A with the numpy scalars of its callables,
    # so an overflow warns in a block read as it warns row by row
    cases = [(rm.uniform_field((0.0, 0.0, 0.0), (0.0, 1e300, 0.0)),
              np.array([[0.0, 1.0, 1.0, 1e10], [0.0, 1.0, 1.0, 1.0]])),
             (rm.coulomb_potential(0.4, center=(-1e308, 0.0, 0.0)),
              np.array([[0.0, 1e308, 1.0, 1.0], [0.0, 2.0, 1.0, 1.0]]))]
    heard, read = {}, {}
    for potential, x in cases:
        for name in ("value", "partials"):
            with warnings.catch_warnings(record=True) as rows:
                warnings.simplefilter("always")
                want = _per_row(getattr(potential, name), x)
            with warnings.catch_warnings(record=True) as block:
                warnings.simplefilter("always")
                got, = _fields_at(potential, x, name)
            assert _same_bits(got, want)
            assert [str(w.message) for w in block] == [str(w.message) for w in rows]
            heard[name], read[name] = [str(w.message) for w in rows], want
    assert rows
    # at Coulomb's first row x^1 - center^1 overflows; value also computes
    # the slopes there, so it warns as partials does, and both give A = 0
    # and the slopes -q (x - center) / |x - center|^3 = (nan, -0, -0)
    assert heard["value"] == heard["partials"]
    with np.errstate(all="ignore"):
        da = np.zeros((4, 4))
        da[1:, 0] = -0.4 * np.array([math.inf, 1.0, 1.0]) / math.inf
    assert _same_bits(read["value"][0], np.zeros(4))
    assert _same_bits(read["partials"][0], da)
