"""Connections on the tangent bundle and geodesic integration.

A :class:`Connection` stores the coefficient matrix K^mu_lam(x, u); the
second-order equation of motion is ``a^mu = K^mu_lam u^lam``.  Connections
built by :func:`connection_from` combine the metric's connection symbols with
an electromagnetic soldering term and preserve the unit hyperboloid
g(u, u) = 1 along exact solutions; the fixed-step RK4 integrator monitors the
discretization drift of that constraint and can optionally project it away.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonPositiveG, SingularMetric, StepRejected
from .geometry import (
    Array,
    GTensorField,
    MetricField,
    PotentialField,
    _christoffel_and_inverse,
    _diagonal_form,
    _dot,
    _field_at,
    _first_failure,
    _power,
    _scalar,
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

    ``K(x, u)[mu, lam]`` is K^mu_lam.  When the connection was built from a
    metric, ``metric`` and ``soldering`` record the decomposition
    K = (metric symbols contracted with u) + soldering.
    """

    dim: int
    K: KFn
    metric: Optional[MetricField] = None
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
    integrator: str
    dt: Optional[float]
    projection: str
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
    ``K`` and ``soldering`` also take batches x, u (..., m).
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

    coeffs._diagonal_acceleration = _diagonal_acceleration(metric, potential, ratio)
    return Connection(metric.dim, coeffs, metric, soldering)


def _diagonal_acceleration(metric: MetricField, potential: PotentialField,
                           ratio: float) -> Callable[..., Optional[Array]]:
    """``accel(x, u, form=None)``: a = K(x, u) u at one state where g and its
    partials are diagonal, else None, which leaves the point to ``K``.

    With g = diag(d) and dd[mu, a] = d_mu g_aa the connection term is
    a^l = (dd[l] . u^2 / 2 - u^l (dd[:, l] . u)) / d_l: O(m^2) work instead
    of the symbols' O(m^3).  The soldering term is K's own, (ratio g^{ll}) F u.
    The metric (``accel.metric``) is read by :func:`geometry._diagonal_form`,
    so errors and their messages are those of ``K``; a zero or non-finite
    entry gives None.  A caller that holds that form at x passes it as
    ``form``.  The result holds no -0.
    """
    def accel(x, u, form=None):
        if form is None:
            form = _diagonal_form(metric, x)
            if form is None:
                return None
        d, dd = form
        a = 0.5 * (dd @ (u * u)) - u * (u @ dd)
        a /= d
        if ratio != 0.0:
            a += ((ratio * (1.0 / d))[:, None] * faraday_at(potential, x)) @ u
        a += 0.0
        return a

    accel.metric = metric
    return accel


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
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dg = _field_at(metric.partials, x)
    g = metric_at(metric, x)
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


def _kernel_first(kernel: Optional[Callable], general: Callable) -> Callable:
    """A stage function for one run: ``kernel(*args)`` until it first returns
    None, then ``general(*args)`` for that stage and every later one, so a
    point the kernel does not cover costs one probe per run.  ``kernel``
    may be None; ``stage.kernel`` is the kernel while it is in use, else
    None."""
    def stage(*args):
        if stage.kernel is not None:
            out = stage.kernel(*args)
            if out is not None:
                return out
            stage.kernel = None
        return general(*args)

    stage.kernel = kernel
    return stage


def _stage_acceleration(c: Connection) -> Callable[[Array, Array], Array]:
    """The acceleration K(x, u) u that integrate_geodesic evaluates at each
    RK4 stage of one run.

    A ``K`` built by :func:`connection_from` carries an O(m^2) kernel for
    points where the metric is diagonal; a wrapper made with
    ``functools.wraps`` keeps it, any other replacement of ``K`` does not.
    Where the kernel does not apply, the run goes on with ``K``
    (:func:`_kernel_first`).
    """
    return _kernel_first(getattr(c.K, "_diagonal_acceleration", None),
                         lambda x, u: c.K(x, u) @ u)


def _rk4(rhs: Callable[[Array], Array], y: Array, value, dt: float,
         steps: int, settle, record_every: int = 1,
         k1: Optional[Array] = None):
    """Classic fixed-step RK4 for dy/dtau = rhs(y) on a flat float state.

    ``value`` is the monitored value at the start, ``k1`` rhs(y) there if
    known.  After each finite step ``settle(y)`` returns (y, value, k1): the
    state to go on from (it may change y in place), the monitored value, and
    rhs(y) if it computed it, else None.  A DomainError from a stage or from
    ``settle`` is re-raised naming the step, with the last good tau.  Returns
    lists (taus, ys, values) of the start, every ``record_every``-th step and
    the last step.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    taus, ys, values = [0.0], [y], [value]
    tau = 0.0
    for k in range(1, steps + 1):
        try:
            if k1 is None:
                k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise StepRejected(f"non-finite state after step {k}", tau=tau)
            y, value, k1 = settle(y)
        except DomainError as exc:
            raise DomainError(
                f"left the metric domain during step {k}: {exc}", tau=tau
            ) from exc
        tau = k * dt
        if k % record_every == 0 or k == steps:
            taus.append(tau)
            ys.append(y)
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

    Where ``gfield`` is the N = 1 form of the metric the O(m^2) kernel of
    ``K`` reads (see :func:`_stage_acceleration`), a settled point is read
    once: its diagonal form gives the projection's G, the monitored G =
    (d u) . u, with the bits of :func:`g_value`, and the next step's first
    stage.  Elsewhere the monitor and the projection call :func:`g_value`.
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
    accel = _stage_acceleration(c)
    kernel = accel.kernel  # kept where its form also gives G
    if not (kernel is not None and gfield.order_half == 1
            and gfield.value is kernel.metric.value):
        kernel = None

    def rhs(y):
        return np.concatenate((y[m:], accel(y[:m], y[m:])))

    def settle(y):
        nonlocal drift
        x, u = y[:m], y[m:]
        form = None
        if kernel is not None and accel.kernel is not None:
            try:
                form = _diagonal_form(kernel.metric, x)
            except (DomainError, SingularMetric):
                pass  # g_value reads g alone: the next step's first stage raises it
        if form is None:
            if projection == "rescale":
                u[:] = project_to_shell(gfield, x, u)
            gk = g_value(gfield, x, u)
            k1 = None
        else:
            d = form[0]
            if projection == "rescale":
                u[:] = _rescale(u, (d * u) @ u, 1)
            gk = float((d * u) @ u)
            k1 = np.concatenate((u, kernel(x, u, form)))
        drift = max(drift, abs(gk - 1.0))
        return y, gk, k1

    taus, ys, gs = _rk4(rhs, np.concatenate((x, u)), g0, dt, steps, settle,
                        record_every)
    ys = np.stack(ys)
    return Trajectory(
        tau=np.asarray(taus),
        x=ys[:, :m],
        u=ys[:, m:],
        G=np.asarray(gs),
        integrator="rk4",
        dt=dt,
        projection=projection,
        max_constraint_drift=drift,
    )
