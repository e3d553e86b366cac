import math

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
    """Count the metrics inverse_metric_at inverts, as geometry, dynamics and
    hamiltonian see it: [matrices, calls].  A batch x (..., m) counts one
    matrix per point, a single point one."""
    import relmech.dynamics
    import relmech.geometry
    import relmech.hamiltonian

    calls = [0, 0]
    inverse = relmech.geometry.inverse_metric_at

    def counted(metric, x):
        calls[0] += int(np.prod(np.shape(x)[:-1]))
        calls[1] += 1
        return inverse(metric, x)

    for mod in (relmech.geometry, relmech.dynamics, relmech.hamiltonian):
        monkeypatch.setattr(mod, "inverse_metric_at", counted)
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
