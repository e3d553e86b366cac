"""Connections on the tangent bundle and geodesic integration.

A :class:`Connection` stores the coefficient matrix K^mu_lam(x, u); the
second-order equation of motion is ``a^mu = K^mu_lam u^lam``.  Connections
built by :func:`connection_from` combine the metric's connection symbols with
an electromagnetic soldering term and preserve the unit hyperboloid
g(u, u) = 1 along exact solutions; the fixed-step RK4 integrator monitors the
discretization drift of that constraint and can optionally project it away.

The RK4 core (:func:`_rk4`) steps a list of Python floats for the geodesic,
Hamiltonian and chart-time integrators alike.  On the catalog fields, which
declare a float form (see :mod:`relmech.geometry`), a geodesic stage is
float arithmetic in numpy's order: entrywise operations and the sums over a
diagonal metric's slopes are copied one for one, and every product numpy
would hand to BLAS stays one ``np.dot`` call, so the bits are those of the
numpy expressions.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonPositiveG, SingularMetric, StepRejected
from .geometry import (
    Array,
    GTensorField,
    MetricField,
    PotentialField,
    _check_diagonal,
    _check_point,
    _christoffel_and_inverse,
    _dot,
    _fields_at,
    _first_failure,
    _float_form,
    _identity_cache,
    _power,
    _scalar,
    _scatter,
    _vecmat,
    faraday_at,
    g_value,
    inverse_metric_at,
    metric_at,
    zero_potential,
)

KFn = Callable[[Array, Array], Array]

PROJECTION_MODES = ("none", "rescale")


@dataclass(frozen=True)
class Connection:
    """Connection coefficients K^mu_lam(x, u) on the tangent bundle.

    ``K(x, u)[mu, lam]`` is K^mu_lam.  A connection built by
    :func:`connection_from` records its force term as ``soldering``:
    K = (metric symbols contracted with u) + soldering.
    """

    dim: int
    K: KFn
    soldering: Optional[KFn] = None


@dataclass
class Trajectory:
    """Samples of a tau-parameterized solution on the tangent bundle.

    Arrays are indexed by sample; ``G`` records the constraint value
    g_value(x, u) at every sample.  ``max_constraint_drift`` is the largest
    |G - 1| seen over every computed step, recorded or not.
    """

    tau: Array
    x: Array
    u: Array
    G: Array
    max_constraint_drift: float

    def __len__(self) -> int:
        return self.tau.size


def connection_from(metric: MetricField, potential: PotentialField,
                    mass: float = 1.0, charge: float = 1.0) -> Connection:
    """Connection of a massive charge on (metric, potential).

    K^mu_lam(x, u) = C[lam, mu, nu] u^nu + (charge/mass) g^{mu nu} F_{nu lam},
    where C are the metric's connection symbols (see geometry docs for the
    sign convention).  With charge/mass = 1 this is the canonical charged
    connection; charge = 0 gives the pure metric (Levi-Civita) connection.
    ``K`` and ``soldering`` also take batches x, u (..., m).  Where the
    metric, and at a nonzero charge the potential, declare a float form,
    ``K`` carries the float stage of the integrator
    (:func:`_float_acceleration`), so a ``K`` copied into another
    Connection, or wrapped with ``functools.wraps``, keeps it.
    """
    if metric.dim != potential.dim:
        raise ValueError("metric and potential dimensions differ")
    ratio = float(charge) / float(mass)

    def solder(ginv, x):
        return ratio * ginv @ faraday_at(potential, x)

    def soldering(x, u):
        return solder(inverse_metric_at(metric, x), x)

    def coeffs(x, u):
        c, ginv = _christoffel_and_inverse(metric, x)
        k = np.einsum("...lmn,...n->...ml", c, u)
        if ratio != 0.0:
            k = k + solder(ginv, x)
        return k

    stage = _float_acceleration(metric, potential, ratio)
    if stage is not None:
        coeffs._float_stage = stage
    return Connection(metric.dim, coeffs, soldering)


def _float_acceleration(metric: MetricField, potential: PotentialField,
                        ratio: float):
    """(form, accel): the metric's float form and a = K(x, u) u in Python
    floats, or None where the metric, or at a nonzero ratio the potential,
    declares no form.

    ``accel(x, u, f)`` takes lists x, u and f = form(x) = (d, slopes), g =
    diag(d).  It first raises the SingularMetric of ``K`` where
    :func:`inverse_metric_at` rejects g (:func:`geometry._check_diagonal`),
    except for the d object that passed the test last, which it keeps
    alive, so no other object can take its identity: a constant metric,
    whose form returns the same d at every call, is tested at the first
    call alone.  The connection term is a^l = (dd[l] . u^2 / 2 - u^l (dd[:, l]
    . u)) / d_l with dd[mu, a] = d_mu g_aa: O(m^2) work instead of the
    symbols' O(m^3).  Both sums run left to right from 0.0 over the entries
    that can be nonzero, which gives the bits of numpy's own loop over the
    strided diagonal (a zero entry adds an exact zero).  The soldering term
    (ratio g^{ll}) F u builds the matrix entry by entry and leaves the
    product to one ``np.dot``, so it has the bits of ``K``'s.  The result
    holds no -0.

    The soldering matrix depends only on d and the potential's slopes, so
    ``accel`` keeps the last one it built in an ``_identity_cache`` keyed
    by those two objects (see the float forms in :mod:`relmech.geometry`):
    a constant metric in a uniform field builds it once per run.
    """
    form = _float_form(metric)
    potential_form = _float_form(potential) if ratio != 0.0 else None
    if form is None or (ratio != 0.0 and potential_form is None):
        return None
    m = metric.dim

    def solder(d, slopes_a):
        da = _scatter(slopes_a, m)
        row = [ratio * (1.0 / di) for di in d]
        # ratio g^{ll} F[l, k], F = dA - dA^T, row by row
        return np.array([c * (da[l * m + k] - da[k * m + l]) for l, c in enumerate(row)
                         for k in range(m)]).reshape(m, m)

    soldering = _identity_cache(solder)
    passed = None  # the last d that passed the condition test

    def accel(x, u, f):
        nonlocal passed
        d, slopes = f
        if d is not passed:
            _check_diagonal(d, x)
            passed = d
        s1 = [0.0] * m  # dd @ (u * u)
        s2 = [0.0] * m  # u @ dd
        for mu, a, v in slopes:
            ua = u[a]
            s1[mu] += v * (ua * ua)
            s2[a] += u[mu] * v
        if ratio == 0.0:
            return [(0.5 * p - ui * q) / di + 0.0 for p, ui, q, di in zip(s1, u, s2, d)]
        force = np.dot(soldering(d, potential_form(x)[1]), np.array(u))
        return [(0.5 * p - ui * q) / di + v + 0.0
                for p, ui, q, di, v in zip(s1, u, s2, d, force.tolist())]

    return form, accel


def _dot_du(d: tuple, u: list):
    """(d u) . u for lists d, u: the entrywise product in floats, the sum in
    one ``np.dot``, with the bits of ``(d * u) @ u`` on arrays."""
    return np.dot(np.array([a * b for a, b in zip(d, u)]), np.array(u))


def levi_civita_connection(metric: MetricField) -> Connection:
    """Pure metric connection (no external force)."""
    return connection_from(metric, zero_potential(metric.dim), 1.0, 0.0)


def geodesic_rhs(c: Connection, x, u) -> Array:
    """Acceleration a^mu = K^mu_lam(x, u) u^lam, at one state or a batch."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return _dot(c.K(x, u), u)


def geodesic_condition_terms(metric: MetricField, x, u, k):
    """Residual of the hyperboloid-preservation condition and its scale.

    For coefficients ``k = K(x, u)`` returns the residual
    (d_lam g_{mu nu} u^mu + 2 g_{mu nu} K^mu_lam) u^lam u^nu and the sum of
    the absolute contributions before cancellation (plus 1e-30), from one
    evaluation of the metric and of its partials.  Two floats for one state;
    two arrays for a batch x, u (..., m) with k (..., m, m).
    """
    x = _check_point(x, metric.dim)
    u = np.asarray(u, dtype=float)
    dg, g = _fields_at(metric, x, "partials", "value")
    au = np.abs(u)
    t1 = np.einsum("...lmn,...m,...l,...n->...", dg, u, u, u)
    t2 = 2.0 * _dot(_vecmat(u, g), _dot(k, u))
    s1 = np.einsum("...lmn,...m,...l,...n->...", np.abs(dg), au, au, au)
    s2 = 2.0 * _dot(_vecmat(au, np.abs(g)), _dot(np.abs(k), au))
    t1, t2, s1, s2 = map(_scalar, (t1, t2, s1, s2))
    return t1 + t2, s1 + s2 + 1e-30


def check_geodesic_condition(c: Connection, metric: MetricField, x, u) -> float:
    """Residual of the hyperboloid-preservation condition.

    Returns (d_lam g_{mu nu} u^mu + 2 g_{mu nu} K^mu_lam) u^lam u^nu, which
    vanishes exactly when the geodesic flow of ``c`` stays on the bundle of
    unit hyperboloids of ``metric``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return geodesic_condition_terms(metric, x, u, c.K(x, u))[0]


def geodesic_condition_scale(c: Connection, metric: MetricField, x, u) -> float:
    """Magnitude of the terms entering :func:`check_geodesic_condition`.

    Sum of absolute contributions before cancellation; use it to turn the
    residual into a relative quantity.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return geodesic_condition_terms(metric, x, u, c.K(x, u))[1]


def soldering_residual(c: Connection, metric: MetricField, x, u) -> float:
    """g_{mu nu} sigma^mu_lam u^lam u^nu for a decomposed connection.

    Zero exactly when the soldering force does no work against the metric,
    i.e. when it preserves the unit hyperboloid.
    """
    if c.soldering is None:
        raise ValueError("connection carries no soldering decomposition")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    g = metric_at(metric, x)
    sig = c.soldering(x, u)
    return float(u @ g @ (sig @ u))


def project_to_shell(gfield: GTensorField, x, u) -> Array:
    """Rescale ``u`` onto the unit level set G(x, u) = 1.

    Returns u * G^(-1/2N); idempotent up to rounding, raises
    :class:`NonPositiveG` when G <= 0 (at the first such state of a batch
    x, u (..., m)).
    """
    u = np.asarray(u, dtype=float)
    return _rescale(u, g_value(gfield, x, u), gfield.order_half)


def _rescale(u: Array, g, order_half: int) -> Array:
    """u * g^(-1/2N), for g = G(x, u) of a form of order 2N."""
    i = _first_failure(g > 0.0)
    if i is not None:
        raise NonPositiveG(f"cannot project: G = {np.ravel(g)[i]:g} is not positive")
    return u * _power(g, -1.0 / (2 * order_half))[..., None]


def _rk4(rhs: Callable[[list], list], y: list, value, dt: float, steps: int,
         settle, record_every: int = 1, k1: Optional[list] = None):
    """Classic fixed-step RK4 for dy/dtau = rhs(y) on a state of Python
    floats, a list.

    Each stage and the update are done entry by entry, with the bits of the
    same expressions on numpy arrays.  ``value`` is the monitored value at
    the start, ``k1`` rhs(y) there if known.  After each finite step
    ``settle(y, recorded)`` returns (y, value, k1): the state to go on from
    (it may change y in place), the monitored value, and rhs(y) if it
    computed it, else None; ``recorded`` says whether this step's value is
    kept.  A DomainError from a stage or from ``settle`` is re-raised naming
    the step, with the last good tau.  Returns (taus, ys, values) of the
    start, every ``record_every``-th step and the last step: ys is one flat
    ``array('d')`` of the recorded states.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    dt = float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    taus, ys, values = [0.0], array("d", y), [value]
    tau = 0.0
    for k in range(1, steps + 1):
        try:
            if k1 is None:
                k1 = rhs(y)
            k2 = rhs([a + half * b for a, b in zip(y, k1)])
            k3 = rhs([a + half * b for a, b in zip(y, k2)])
            k4 = rhs([a + dt * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            if not (math.isfinite(sum(y)) or all(map(math.isfinite, y))):
                raise StepRejected(f"non-finite state after step {k}", tau=tau)
            recorded = k % record_every == 0 or k == steps
            y, value, k1 = settle(y, recorded)
        except DomainError as exc:
            raise DomainError(
                f"left the metric domain during step {k}: {exc}", tau=tau
            ) from exc
        tau = k * dt
        if recorded:
            taus.append(tau)
            ys.extend(y)
            values.append(value)
    return taus, ys, values


def integrate_geodesic(c: Connection, gfield: GTensorField, s0, dt: float,
                       steps: int, projection: str = "none",
                       record_every: int = 1) -> Trajectory:
    """Integrate a^mu = K^mu_lam u^lam with classic fixed-step RK4.

    Parameters
    ----------
    c, gfield : connection and the velocity form used for constraint
        monitoring (and for the optional shell projection).
    s0 : initial state with attributes ``x`` and ``u`` (a FourState works).
    dt, steps : step size (> 0) and number of steps (>= 1).
    projection : "none" or "rescale"; with "rescale" the velocity is pulled
        back onto G = 1 after every step.
    record_every : keep every k-th sample (the initial and final states are
        always kept).

    The constraint value G is computed at every step; the trajectory metadata
    records the largest |G - 1| over the whole run.  A start with |G - 1|
    beyond 1e-8 triggers a warning (off-shell initial data are allowed, the
    equation itself is defined off the shell).

    Where ``K`` carries a float stage (see :func:`connection_from`), each
    RK4 stage reads the metric's float form once and is float arithmetic,
    which raises what ``K`` raises; every stage of any other ``K`` calls
    ``K``.  With the float stage and ``gfield`` the N = 1 form of that
    metric, a settled point's float form gives the projection's G, the
    monitored G = (d u) . u, with the bits of :func:`g_value`, and the next
    step's first stage.  A DomainError of the form is the one
    :func:`g_value` raises there, and it ends the run.  Where that first
    stage raises :class:`SingularMetric` (g_value reads g alone), the run
    still settles the point, and the next step computes the stage again and
    raises.  Elsewhere the monitor and the projection call :func:`g_value`.
    """
    if projection not in PROJECTION_MODES:
        raise ValueError(f"projection must be one of {PROJECTION_MODES}")

    x = np.array(s0.x, dtype=float)
    u = np.array(s0.u, dtype=float)
    g0 = g_value(gfield, x, u)
    if not g0 > 0.0:
        raise NonPositiveG(f"initial state has G = {g0:g} <= 0")
    if abs(g0 - 1.0) > 1e-8:
        warnings.warn(
            f"initial state is off the unit level set: G = {g0!r}",
            stacklevel=2,
        )
    m = x.size
    drift = abs(g0 - 1.0)
    form, accel = getattr(c.K, "_float_stage", (None, None))
    monitor = accel is not None and _float_form(gfield) is form

    if accel is None:
        def rhs(y):
            xa, ua = np.array(y[:m]), np.array(y[m:])
            return y[m:] + (c.K(xa, ua) @ ua).tolist()
    else:
        def rhs(y):
            x, u = y[:m], y[m:]
            return u + accel(x, u, form(x))

    def settle(y, recorded):
        nonlocal drift
        x, u = y[:m], y[m:]
        k1 = None
        if monitor:
            f = form(x)
            if projection == "rescale":
                u = _rescale(np.array(u), _dot_du(f[0], u), 1).tolist()
            gk = float(_dot_du(f[0], u))
            try:
                k1 = u + accel(x, u, f)
            except SingularMetric:  # g_value reads g alone: the next step raises it
                pass
        else:
            xa, ua = np.array(x), np.array(u)
            if projection == "rescale":
                ua = project_to_shell(gfield, xa, ua)
                u = ua.tolist()
            gk = g_value(gfield, xa, ua)
        drift = max(drift, abs(gk - 1.0))
        return x + u, gk, k1

    taus, ys, gs = _rk4(rhs, x.tolist() + u.tolist(), g0, dt, steps, settle,
                        record_every)
    ys = np.array(ys).reshape(-1, 2 * m)
    return Trajectory(
        tau=np.asarray(taus),
        x=ys[:, :m],
        u=ys[:, m:],
        G=np.asarray(gs),
        max_constraint_drift=drift,
    )
