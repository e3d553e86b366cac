"""Phase-space picture: canonical brackets, the mass shell, Hamilton flow.

The phase space is the cotangent bundle with the canonical symplectic
structure; the bracket sign is fixed by {x^lam, p_mu} = +delta.  A
Hamiltonian H maps to velocities through u^mu = dH/dp_mu; the mass shell is
the preimage of the unit hyperboloid,

    H_T(x, p) = g_{mu nu} (dH/dp_mu) (dH/dp_nu) - 1 = 0.

The standard family

    H = g^{mu nu} (p - eA)_mu (p - eA)_nu / (2m)

satisfies H_T = (2/m) H - 1, hence {H, H_T} = 0 identically and the flow
preserves the shell.  Its second-order reduction reproduces the geodesic
equation of the charged connection exactly.

On fields that declare a float form, :func:`integrate_hamiltonian` steps
the standard family through float stages (:func:`_float_flow`) with the
bits of ``flow`` and ``value``; every other model is integrated through its
``flow``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import _dot_du, _rk4
from .errors import DimensionMismatch
from .geometry import (
    Array,
    MetricField,
    PotentialField,
    _check_diagonal,
    _dot,
    _field_at,
    _fields_at,
    _float_form,
    _identity_cache,
    _inverse,
    fd_partials,
    inverse_metric_at,
    metric_at,
)

PhaseFn = Callable[[Array, Array], float]
PhaseGrad = Callable[[Array, Array], Array]
PhaseFlow = Callable[[Array, Array], Tuple[Array, Array]]


@dataclass(frozen=True)
class PhaseState:
    """A point x^lam with momenta p_lam."""

    x: Array
    p: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.x.shape != self.p.shape or self.x.ndim != 1:
            raise DimensionMismatch("x and p must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.p))):
            raise ValueError("phase-state entries must be finite")


@dataclass(frozen=True)
class StandardData:
    """Ingredients of a standard-family Hamiltonian."""

    metric: MetricField
    potential: PotentialField
    mass: float
    charge: float


@dataclass(frozen=True)
class HamiltonianModel:
    """A scalar on phase space with its two gradients.

    ``value(x, p)``, ``grad_x(x, p)`` (covector d_lam H) and
    ``grad_p(x, p)`` (vector dH/dp_lam).  ``flow(x, p)`` returns the
    canonical flow (dH/dp, -dH/dx) as float arrays in one call; the standard
    family shares one metric inversion between its two halves.  ``standard``
    is set for the metric-plus-potential family, unlocking the analytic
    second-order reduction and shell helpers.
    """

    dim: int
    value: PhaseFn
    grad_x: PhaseGrad
    grad_p: PhaseGrad
    flow: PhaseFlow
    standard: Optional[StandardData] = None


def _dginv(ginv: Array, dg: Array) -> Array:
    """d_lam g^{ab} = -g^{ac} d_lam g_{cd} g^{db}, derivative index first,
    at one point or for a batch (leading axes)."""
    g = ginv[..., None, :, :]
    return -(g @ dg @ g)


@dataclass
class PhaseTrajectory:
    """Samples of a Hamilton flow with the shell residual at every sample."""

    tau: Array
    x: Array
    p: Array
    H: Array
    HT: Array
    max_shell_drift: float

    def __len__(self) -> int:
        return self.tau.size


def custom_hamiltonian(dim: int, value: PhaseFn,
                       grad_x: Optional[PhaseGrad] = None,
                       grad_p: Optional[PhaseGrad] = None) -> HamiltonianModel:
    """Wrap a user-supplied scalar; missing gradients fall back to central
    finite differences of ``value``.  ``flow`` calls the two gradients."""
    if grad_x is None:
        grad_x = lambda x, p: fd_partials(lambda xx: value(xx, p), x)
    if grad_p is None:
        grad_p = lambda x, p: fd_partials(lambda pp: value(x, pp), p)

    def flow(x, p):
        return np.asarray(grad_p(x, p), float), -np.asarray(grad_x(x, p), float)

    return HamiltonianModel(dim, value, grad_x, grad_p, flow)


def standard_hamiltonian(metric: MetricField, potential: PotentialField,
                         mass: float = 1.0, charge: float = 1.0) -> HamiltonianModel:
    """H = g^{mu nu}(p - eA)_mu (p - eA)_nu / (2 mass), with analytic gradients.

    The factor 1/2 makes the shell residual equal (2/mass) H - 1 and the flow
    velocity dH/dp = g^{-1}(p - eA)/mass, so states on the shell map to unit
    vectors g(u, u) = 1.  ``grad_x`` is the negated second half of ``flow``.
    ``grad_x``, ``grad_p`` and ``flow`` also take batches x, p (..., m);
    ``value`` takes one point.
    """
    if metric.dim != potential.dim:
        raise DimensionMismatch("metric and potential dimensions differ")
    m = float(mass)
    e = float(charge)
    if not m > 0.0:
        raise ValueError("mass must be positive")
    std = StandardData(metric, potential, m, e)

    def value(x, p):
        w = _kinetic(std, x, p)
        ginv = inverse_metric_at(metric, x)
        return 0.5 * float(w @ ginv @ w) / m

    def grad_p(x, p):
        w = _kinetic(std, x, p)
        return _dot(inverse_metric_at(metric, x), w) / m

    def flow(x, p):
        w = _kinetic(std, x, p)
        ginv = inverse_metric_at(metric, x)
        dginv = _dginv(ginv, _fields_at(metric, x, "partials")[0])
        da = None if e == 0.0 else _fields_at(potential, x, "partials")[0]
        return _dot(ginv, w) / m, -_standard_dh_dx(std, w, ginv, dginv, da)

    stage = _float_flow(std)
    if stage is not None:
        flow._float_stage = value._float_stage = stage
    return HamiltonianModel(metric.dim, value, lambda x, p: -flow(x, p)[1],
                            grad_p, flow, std)


def _kinetic(std: StandardData, x, p) -> Array:
    """The kinetic momenta w = p - eA at x, or for a batch; p itself at
    charge 0, where the potential is not read."""
    if std.charge == 0.0:
        return np.asarray(p, dtype=float)
    return p - std.charge * _field_at(std.potential.value, x)


def _float_flow(std: StandardData):
    """(form, stage, energy) for the integrator's float stages, or None where
    the metric, or at a nonzero charge the potential, declares no float form.

    ``stage(x, p)`` takes lists x, p and returns (k, v, w, d): the flow k =
    (dH/dp, -dH/dx) as one list, w = p - eA, v = w / d and g = diag(d) from
    the metric's float form, read once, whose errors it raises, and then
    the SingularMetric of ``flow`` where :func:`inverse_metric_at` rejects
    g, tested on d as :func:`dynamics._float_acceleration` tests it.  With
    dd[mu, a] = d_mu g_aa the flow is dH/dp = v / mass and -dH/dx = dd (v^2)
    / (2 mass) + (e / mass) dA v, from d_lam g^{aa} = -dd[lam, a] / d_a^2:
    O(m^2) work instead of the O(m^3) partials of the inverse.  v is w times
    1/d, as the closed-form inverse applies it, so dH/dp has the bits of
    ``flow``; the sum over dd runs as in :func:`dynamics._float_acceleration`
    and dA v is one ``np.dot``.  ``energy(v, w)`` is H = v . w / (2 mass),
    with the bits of ``value``.  The potential is read first, as ``flow``
    reads it, and not at all at charge 0.  The flow holds no -0.  The dA
    matrix is kept in an ``_identity_cache`` keyed by the potential's
    slopes, as the soldering matrix of :func:`dynamics._float_acceleration`
    is: built once per run in a uniform field.
    """
    metric, mass, e = std.metric, std.mass, std.charge
    form = _float_form(metric)
    potential_form = _float_form(std.potential) if e != 0.0 else None
    if form is None or (e != 0.0 and potential_form is None):
        return None
    m = metric.dim

    def build_da(slopes_a, _):
        da = [0.0] * (m * m)
        for lam, mu, val in slopes_a:
            da[lam * m + mu] = val
        return np.array(da).reshape(m, m)

    da_matrix = _identity_cache(build_da)
    passed = None  # the last d that passed the condition test

    def stage(x, p):
        nonlocal passed
        if e == 0.0:
            w = p
        else:
            a, slopes_a = potential_form(x)
            w = [pi - e * ai for pi, ai in zip(p, a())]
        d, slopes = form(x)
        if d is not passed:
            _check_diagonal(d, x)
            passed = d
        v = [wi * (1.0 / di) for wi, di in zip(w, d)]
        vv = [vi * vi for vi in v]
        s = [0.0] * m  # dd @ (v * v)
        for mu, a, val in slopes:
            s[mu] += val * vv[a]
        k = [vi / mass + 0.0 for vi in v]
        if e == 0.0:
            return k + [0.5 * si / mass + 0.0 for si in s], v, w, d
        c = e / mass
        force = np.dot(da_matrix(slopes_a), np.array(v))
        return k + [0.5 * si / mass + c * t + 0.0 for si, t in zip(s, force.tolist())], v, w, d

    def energy(v, w):
        return 0.5 * float(np.dot(np.array(v), np.array(w))) / mass

    return form, stage, energy


def _standard_dh_dx(std: StandardData, w: Array, ginv: Array, dginv: Array,
                    da: Optional[Array]) -> Array:
    """d_lam H of the standard family from w = p - eA, g^{-1}, its partials
    and the partials of A (None at charge 0, where they are not read) at one
    point, or for a batch (leading axes)."""
    m, e = std.mass, std.charge
    t_metric = 0.5 * np.einsum("...lab,...a,...b->...l", dginv, w, w) / m
    if e == 0.0:
        return t_metric
    t_pot = -(e / m) * np.einsum("...ab,...a,...lb->...l", ginv, w, da)
    return t_metric + t_pot


def _shell_metric(h: HamiltonianModel, metric: Optional[MetricField]) -> MetricField:
    if metric is not None:
        return metric
    if h.standard is not None:
        return h.standard.metric
    raise ValueError("a metric is required for shell computations on a "
                     "non-standard Hamiltonian")


def legendre_velocity(h: HamiltonianModel, s: PhaseState) -> Array:
    """Velocity image u^mu = dH/dp_mu of a phase point."""
    return np.asarray(h.grad_p(s.x, s.p), dtype=float)


def mass_shell_residual(h: HamiltonianModel, s: PhaseState,
                        metric: Optional[MetricField] = None) -> float:
    """H_T = g_{mu nu} (dH/dp_mu)(dH/dp_nu) - 1; zero on the mass shell."""
    return mass_shell_scalar(h, metric).value(s.x, s.p)


def mass_shell_scalar(h: HamiltonianModel,
                      metric: Optional[MetricField] = None) -> HamiltonianModel:
    """The shell residual H_T as a phase-space scalar with gradients.

    For the standard family the gradients are analytic (computed from the
    explicit form g^{ab}(p - eA)(p - eA)/mass^2 - 1, independently of the
    gradients of H) and ``flow`` shares one metric inversion between them;
    ``grad_x`` is the negated second half of ``flow``, and all three also
    take batches x, p (..., m).  Otherwise, or when ``metric`` is not the
    model's own, they fall back to finite differences of ``value``.
    """
    shell_metric = _shell_metric(h, metric)

    def value(x, p):
        g = metric_at(shell_metric, x)
        v = np.asarray(h.grad_p(x, p), float)
        return float(v @ g @ v) - 1.0

    if h.standard is None or shell_metric is not h.standard.metric:
        return custom_hamiltonian(h.dim, value)

    std = h.standard
    e, m2 = std.charge, std.mass ** 2

    def grad_p(x, p):
        return 2.0 * _dot(inverse_metric_at(std.metric, x), _kinetic(std, x, p)) / m2

    def flow(x, p):
        w = _kinetic(std, x, p)
        ginv = inverse_metric_at(std.metric, x)
        dg = _fields_at(std.metric, x, "partials")[0]
        t = np.einsum("...lab,...a,...b->...l", _dginv(ginv, dg), w, w)
        if e != 0.0:
            da = _fields_at(std.potential, x, "partials")[0]
            t = t - 2.0 * e * np.einsum("...ab,...a,...lb->...l", ginv, w, da)
        return 2.0 * _dot(ginv, w) / m2, -(t / m2)

    return HamiltonianModel(h.dim, value, lambda x, p: -flow(x, p)[1], grad_p, flow)


def hamiltonian_vector_field(h: HamiltonianModel, s: PhaseState):
    """Canonical flow (xdot, pdot) = (dH/dp, -dH/dx)."""
    return h.flow(s.x, s.p)


def poisson_bracket(f: HamiltonianModel, g: HamiltonianModel,
                    s: PhaseState) -> float:
    """Canonical bracket {f, g} = d_x f . d_p g - d_p f . d_x g.

    The sign makes {x^lam, p_mu} = +delta^lam_mu and the Hamilton flow of H
    equal {., H}.  Both gradients of each scalar come from one ``flow``
    call, which returns (d_p, -d_x): {f, g} = d_p f . (-d_x g) - (-d_x f) . d_p g.
    """
    return float(_bracket(f, g, s.x, s.p))


def _bracket(f: HamiltonianModel, g: HamiltonianModel, x, p):
    """:func:`poisson_bracket` at x, p, or for a batch (..., m) of them."""
    fp, fx = f.flow(x, p)
    gp, gx = g.flow(x, p)
    return _dot(fp, gx) - _dot(fx, gp)


def coordinate_scalar(dim: int, lam: int) -> HamiltonianModel:
    """The coordinate function x^lam as a phase-space scalar."""
    ex = np.zeros(dim)
    ex[lam] = 1.0
    zero = np.zeros(dim)
    return custom_hamiltonian(dim, lambda x, p: float(x[lam]),
                              lambda x, p: ex.copy(), lambda x, p: zero.copy())


def momentum_scalar(dim: int, lam: int) -> HamiltonianModel:
    """The momentum function p_lam as a phase-space scalar."""
    ep = np.zeros(dim)
    ep[lam] = 1.0
    zero = np.zeros(dim)
    return custom_hamiltonian(dim, lambda x, p: float(p[lam]),
                              lambda x, p: zero.copy(), lambda x, p: ep.copy())


def on_shell_momentum(h: HamiltonianModel, x, u) -> Array:
    """Momenta matching a four-velocity: p = mass g u + charge A.

    Standard family only.  When g(u, u) = 1 the resulting phase point lies on
    the mass shell and legendre_velocity maps it back to u.  At charge 0 the
    potential is not read.
    """
    if h.standard is None:
        raise ValueError("on_shell_momentum requires a standard-family Hamiltonian")
    std = h.standard
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = std.mass * (metric_at(std.metric, x) @ u)
    if std.charge == 0.0:
        return p
    return p + std.charge * np.asarray(std.potential.value(x), float)


def second_order_rhs(h: HamiltonianModel, x, u) -> Array:
    """Acceleration of the second-order reduction of the Hamilton flow.

    Evaluates  a^lam = (dH/dp_mu) d_mu dH/dp_lam - (d_mu H) d^2H/dp_lam dp_mu
    at the momenta p(x, u) of :func:`on_shell_momentum`.  For the standard
    family this equals the geodesic right-hand side of the charged connection
    built from the same metric and potential.  Takes one state or a batch
    x, u (..., m).  At charge 0 neither the potential nor its partials are
    read.
    """
    if h.standard is None:
        raise ValueError("second_order_rhs requires a standard-family Hamiltonian")
    std = h.standard
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    m, e = std.mass, std.charge
    g = metric_at(std.metric, x)
    ginv = _inverse(g, x)
    dginv = _dginv(ginv, _fields_at(std.metric, x, "partials")[0])

    w = m * _dot(g, u)                   # kinetic momenta p - eA
    gp = _dot(ginv, w) / m               # dH/dp, equals u up to rounding
    # mixed[lam, mu] = d_mu dH/dp_lam
    mixed = np.einsum("...mln,...n->...lm", dginv, w)
    da = None
    if e != 0.0:
        da = _fields_at(std.potential, x, "partials")[0]
        mixed = mixed - e * np.einsum("...ln,...mn->...lm", ginv, da)
        ea = e * _field_at(std.potential.value, x)
        w = (w + ea) - ea  # p - eA recomputed from p, as H's own gradient does
    gx = _standard_dh_dx(std, w, ginv, dginv, da)  # dH/dx at p
    return _dot(mixed / m, gp) - _dot(ginv, gx) / m


def integrate_hamiltonian(h: HamiltonianModel, s0: PhaseState, dt: float,
                          steps: int, record_every: int = 1,
                          metric: Optional[MetricField] = None) -> PhaseTrajectory:
    """Fixed-step RK4 on the canonical flow (dH/dp, -dH/dx).

    Records (tau, x, p, H, H_T) every ``record_every`` steps (first and last
    samples always kept) and tracks the largest |H_T| over the run.  A start
    with |H_T| > 1e-8 triggers a warning.  For non-standard Hamiltonians a
    ``metric`` must be supplied to evaluate the shell residual.

    A step evaluates the flow four times: its last evaluation, at the updated
    point, is the next step's first stage, and its velocity v = dH/dp gives
    H_T there.  Where ``flow`` and ``value`` both carry the float stage of
    :func:`standard_hamiltonian` (a wrapper made with ``functools.wraps``
    keeps it, any other replacement drops it), each stage is float
    arithmetic that reads the metric's float form once, the H of a recorded
    sample comes from its first stage, and so does g = diag(d) when
    ``metric`` declares the same form: H_T = (v d) . v - 1, with the bits of
    v . g . v.  Every other model's run calls ``h.flow`` at each stage; H
    then comes from ``h.value`` and g from :func:`metric_at`, read after the
    flow.
    """
    shell_metric = _shell_metric(h, metric)
    m = np.size(s0.x)
    float_stage = getattr(h.flow, "_float_stage", None)
    if getattr(h.value, "_float_stage", None) is not float_stage:
        float_stage = None
    form, stage, energy = float_stage or (None, None, None)
    shell_d = stage is not None and _float_form(shell_metric) is form

    def general(y):
        return np.concatenate(h.flow(np.array(y[:m]), np.array(y[m:]))).tolist()

    def flow(y):
        if stage is None:
            return general(y)
        return stage(y[:m], y[m:])[0]

    def shell_residual(u, y):
        v = np.array(u)
        return float(v @ metric_at(shell_metric, np.array(y[:m])) @ v) - 1.0

    def first_stage(y, recorded):
        """The flow at y, the shell residual of its velocity, and H where
        the float stage gives it and the step is recorded, else None (for a
        recorded step, ``h.value`` then gives it)."""
        if stage is None:
            k = general(y)
            return k, shell_residual(k[:m], y), None
        k, v, w, d = stage(y[:m], y[m:])
        u = k[:m]
        ht = float(_dot_du(d, u)) - 1.0 if shell_d else shell_residual(u, y)
        return k, ht, energy(v, w) if recorded else None

    def settle(y, recorded):
        nonlocal drift
        k1, ht, hv = first_stage(y, recorded)
        drift = max(drift, abs(ht))
        return y, (ht, hv), k1

    y0 = np.concatenate((s0.x, s0.p)).astype(float).tolist()
    k1, ht0, hv0 = first_stage(y0, True)
    if abs(ht0) > 1e-8:
        warnings.warn(
            f"initial phase point is off the mass shell: H_T = {ht0!r}",
            stacklevel=2,
        )
    drift = abs(ht0)

    taus, ys, values = _rk4(flow, y0, (ht0, hv0), dt, steps, settle,
                            record_every, k1)
    ys = np.array(ys).reshape(-1, 2 * m)
    hts, hs = zip(*values)
    return PhaseTrajectory(
        tau=np.asarray(taus),
        x=ys[:, :m],
        p=ys[:, m:],
        H=np.asarray([float(h.value(y[:m], y[m:])) if hv is None else hv
                      for y, hv in zip(ys, hs)]),
        HT=np.asarray(hts),
        max_shell_drift=drift,
    )
