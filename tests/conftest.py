import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import relmech as rm


@pytest.fixture(scope="session")
def mink():
    return rm.minkowski()


@pytest.fixture(scope="session")
def eucl():
    return rm.euclidean()


@pytest.fixture(scope="session")
def schw():
    return rm.schwarzschild(1.0)


@pytest.fixture(scope="session")
def mink_gf(mink):
    return rm.GTensorField.from_metric(mink)


@pytest.fixture(scope="session")
def schw_gf(schw):
    return rm.GTensorField.from_metric(schw)


@pytest.fixture(scope="session")
def uniform_b():
    return rm.uniform_field(b_field=(0.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def n2_gfield():
    """A constant rank-4 velocity form: symmetrized eta x eta plus a small
    fixed perturbation.  Positive on the sampled near-timelike region."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    rng = np.random.default_rng(7)
    base = rm.symmetrize(np.einsum("ab,cd->abcd", eta, eta))
    pert = rm.symmetrize(rng.standard_normal((4, 4, 4, 4)))
    return rm.GTensorField.from_constant(base + 0.05 * pert)


def random_point(metric, rng):
    """A chart point inside the metric domain."""
    if metric.catalog_id == "schwarzschild":
        big_m = metric.params.get("M", 1.0)
        return np.array([
            rng.uniform(-1.0, 1.0),
            rng.uniform(3.0 * big_m, 20.0 * big_m),
            rng.uniform(0.4, math.pi - 0.4),
            rng.uniform(0.0, 2.0 * math.pi),
        ])
    return rng.uniform(-2.0, 2.0, metric.dim)


def random_velocity(gfield, x, rng, margin=0.1):
    """Rejection-sample a velocity with G(x, u) > margin."""
    for _ in range(200):
        u = 0.5 * rng.standard_normal(gfield.dim)
        u[0] = math.copysign(1.0 + abs(rng.standard_normal()), rng.standard_normal())
        if rm.g_value(gfield, x, u) > margin:
            return u
    raise RuntimeError("sampling failed")


def random_state(metric, gfield, rng, margin=0.1):
    x = random_point(metric, rng)
    # scale spatial components into the local light cone for curved metrics
    if metric.catalog_id == "schwarzschild":
        from relmech.checks import sample_velocity
        u = sample_velocity(metric, x, rng, margin)
    else:
        u = random_velocity(gfield, x, rng, margin)
    return x, u


@pytest.fixture
def inversion_count(monkeypatch):
    """Count the metrics that geometry's ``_inverse`` inverts, the one
    inversion behind inverse_metric_at, as every module of relmech that
    holds it sees it: [matrices, calls].  A batch x (..., m) counts one
    matrix per point, a single point one."""
    import relmech.geometry

    calls = [0, 0]
    inverse = relmech.geometry._inverse

    def counted(g, x):
        calls[0] += int(np.prod(np.shape(x)[:-1]))
        calls[1] += 1
        return inverse(g, x)

    for name, mod in list(sys.modules.items()):
        if name.startswith("relmech.") and getattr(mod, "_inverse", None) is inverse:
            monkeypatch.setattr(mod, "_inverse", counted)
    return calls


def shear_minkowski(eps):
    """Minkowski pulled back through the shear chart X = x + eps sin y.

    With c = eps cos y the metric has g_xy = -c and g_yy = -1 - c^2, so it is
    neither diagonal nor constant.  Returns the metric and the chart map to
    the flat (t, X, y, z) chart.
    """
    eta = np.diag([1.0, -1.0, -1.0, -1.0])

    def value(x):
        c = eps * math.cos(x[2])
        g = eta.copy()
        g[1, 2] = g[2, 1] = -c
        g[2, 2] = -1.0 - c * c
        return g

    def partials(x):
        c, s = eps * math.cos(x[2]), eps * math.sin(x[2])
        dg = np.zeros((4, 4, 4))
        dg[2, 1, 2] = dg[2, 2, 1] = s
        dg[2, 2, 2] = 2.0 * c * s
        return dg

    def to_flat(x):
        x = np.array(x, dtype=float)
        x[..., 1] += eps * np.sin(x[..., 2])
        return x

    return rm.MetricField.from_function(4, value, partials), to_flat


def dense_minkowski(eps):
    """Minkowski pulled back through the quadratic chart X = x + q(x, x) / 2.

    q^A_{bc} = eps * (a fixed symmetric array of uniform(-1, 1) entries), so
    the Jacobian J = dX/dx = 1 + q x and the metric g = J^T eta J are dense
    and vary with x, and so do the partials d_l g_mn = q_l^T eta J + J^T eta
    q_l (q_l[A, m] = q^A_{lm}): all 16 entries of g and all 64 of its
    partials are nonzero at a generic point.
    """
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    q = np.random.default_rng(23).uniform(-1.0, 1.0, (4, 4, 4))
    q = eps * 0.5 * (q + q.transpose(0, 2, 1))

    def value(x):
        j = np.eye(4) + q @ x
        g = j.T @ eta @ j
        return 0.5 * (g + g.T)

    def partials(x):
        t = np.einsum("alm,ab,bn->lmn", q, eta, np.eye(4) + q @ x)
        return t + t.transpose(0, 2, 1)

    return rm.MetricField.from_function(4, value, partials)


#: names that chart_field knows
CHART_FIELDS = ("minkowski", "schwarzschild", "shear", "rank4")


def chart_field(request, name):
    """(metric, G field) for a name in CHART_FIELDS: the metric gives the
    sample points; "shear" is the N = 1 field of ``shear_minkowski(0.9)`` and
    "rank4" the ``n2_gfield`` form at Minkowski points."""
    if name == "shear":
        metric = shear_minkowski(0.9)[0]
        return metric, rm.GTensorField.from_metric(metric)
    fixtures = {"minkowski": ("mink", "mink_gf"), "schwarzschild": ("schw", "schw_gf"),
                "rank4": ("mink", "n2_gfield")}[name]
    return tuple(request.getfixturevalue(f) for f in fixtures)


def same_bits(a, b):
    """Equal arrays down to the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def generic(model):
    """A copy of a Connection or HamiltonianModel whose ``K`` or ``flow`` is a
    plain wrapper of the original, which carries no float stage: the
    integrators then call it at every stage (the generic path: inverse
    metric and connection symbols) instead of their float stages.  A
    LagrangianModel's copy wraps its G field's callables, which then declare
    no float form, so every chart-time stage calls ``three_acceleration``."""
    if isinstance(model, rm.Connection):
        return dataclasses.replace(model, K=lambda x, u: model.K(x, u))
    if isinstance(model, rm.LagrangianModel):
        gf = model.gfield
        return dataclasses.replace(model, gfield=dataclasses.replace(
            gf, value=lambda x: gf.value(x), partials=lambda x: gf.partials(x)))
    return dataclasses.replace(model, flow=lambda x, p: model.flow(x, p))


def counting_fields(metric):
    """(copy of ``metric``, calls): the copy counts its ``value`` and
    ``partials`` calls in the dict ``calls``."""
    calls = {"value": 0, "partials": 0}

    def counted(name):
        fn = getattr(metric, name)

        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    return dataclasses.replace(metric, value=counted("value"),
                               partials=counted("partials")), calls


def counting_forms(field):
    """(copy of ``field``, calls): the copy counts its ``value``, ``partials``
    and float form calls in the dict ``calls``, and declares the counting
    form in place of the field's own."""
    calls = {"value": 0, "partials": 0, "form": 0}
    form = field.value.float_form

    def counted_form(x):
        calls["form"] += 1
        return form(x)

    def counted(name):
        fn = getattr(field, name)

        def call(x):
            calls[name] += 1
            return fn(x)

        call.float_form = counted_form
        return call

    return dataclasses.replace(field, value=counted("value"),
                               partials=counted("partials")), calls


def stage_acceleration(conn):
    """The acceleration integrate_geodesic evaluates at each RK4 stage, on
    arrays: ``K``'s float stage where it has one, else K(x, u) u."""
    form, accel = getattr(conn.K, "_float_stage", (None, None))
    if accel is None:
        return lambda x, u: conn.K(x, u) @ u
    return lambda x, u: np.array(accel(x.tolist(), u.tolist(), form(x.tolist())))


def declared(field, form):
    """A copy of the metric or potential ``field`` whose callables declare
    ``form``."""
    copy = dataclasses.replace(field, value=lambda x: field.value(x),
                               partials=lambda x: field.partials(x))
    copy.value.float_form = copy.partials.float_form = form
    return copy


def stage_states(metric, seed, count):
    """``count`` states (x, u) of ``metric`` as lists of floats, for calling
    float stages directly."""
    rng = np.random.default_rng(seed)
    gfield = rm.GTensorField.from_metric(metric)
    return [tuple(a.tolist() for a in random_state(metric, gfield, rng)) for _ in range(count)]


def in_threads(calls, timeout=60.0):
    """The results of the no-argument functions ``calls``, each run in its
    own thread, all at once, with the interpreter switching threads every
    microsecond so that their steps interleave finely.  The first error a
    call raised is raised here."""
    results, errors = [None] * len(calls), []

    def run(i):
        try:
            results[i] = calls[i]()
        except Exception as exc:  # raised in the test's thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


def two_region(a, b):
    """A copy of the metric or potential ``a`` that is ``a`` where x^1 < 0
    and ``b`` elsewhere, with the float form of each there: a float stage
    that moves between the regions of two constant fields reads the
    constant objects of one form, then of the other."""
    def pick(x):
        return a if x[1] < 0.0 else b

    def value(x):
        return pick(x).value(x)

    def partials(x):
        return pick(x).partials(x)

    def form(x):
        return pick(x).value.float_form(x)

    value.float_form = partials.float_form = form
    return dataclasses.replace(a, value=value, partials=partials)


#: (metric, potential) for the float stages' kept force matrices: the key
#: changes at every state (Schwarzschild's d, Coulomb's slopes) or never
KEPT_CASES = {
    "schwarzschild-uniform": (rm.schwarzschild(1.0),
                              rm.uniform_field((0.3, 0.0, -0.2), (0.0, 0.5, 1.0))),
    "minkowski-coulomb": (rm.minkowski(), rm.coulomb_potential(-0.4, center=(0.3, -0.1, 0.2))),
    "minkowski-uniform": (rm.minkowski(), rm.uniform_field((0.3, 0.0, -0.2), (0.0, 0.5, 1.0))),
}


def two_region_fields(mink):
    """(metric, potential): two constant metrics and two uniform fields,
    each pair glued at x^1 = 0 by :func:`two_region`, so the key of a kept
    matrix alternates between the same constant objects."""
    return (two_region(mink, rm.diagonal_metric([2.0, -0.5, -1.0, -3.0])),
            two_region(KEPT_CASES["minkowski-uniform"][1],
                       rm.uniform_field((0.0, 0.4, 0.1), (-0.6, 0.0, 0.2))))
