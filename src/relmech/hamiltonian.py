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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import _kernel_first, _rk4
from .errors import DimensionMismatch
from .geometry import (
    Array,
    MetricField,
    PotentialField,
    _diagonal,
    _diagonal_form,
    _dot,
    _field_at,
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


def _composed_flow(grad_x: PhaseGrad, grad_p: PhaseGrad) -> PhaseFlow:
    """The canonical flow (dH/dp, -dH/dx) from two separate gradients."""
    def flow(x, p):
        return np.asarray(grad_p(x, p), float), -np.asarray(grad_x(x, p), float)
    return flow


def _dginv(ginv: Array, dg: Array) -> Array:
    """d_lam g^{ab} = -g^{ac} d_lam g_{cd} g^{db}, derivative index first,
    at one point or for a batch (leading axes).

    A diagonal inverse scales rows and columns, in the einsum's product
    order, so the values are the same up to the signs of zeros.
    """
    dinv = _diagonal(ginv)
    if dinv is None:
        return -np.einsum("...ac,...lcd,...db->...lab", ginv, dg, ginv)
    out = dinv[..., None, :, None] * dg  # in place from here on, for large batches
    out *= dinv[..., None, None, :]
    return np.negative(out, out=out)


@dataclass
class PhaseTrajectory:
    """Samples of a Hamilton flow with the shell residual at every sample."""

    tau: Array
    x: Array
    p: Array
    H: Array
    HT: Array
    integrator: str
    dt: Optional[float]
    max_shell_drift: float

    def __len__(self) -> int:
        return self.tau.size


def _fd_phase_grads(value: PhaseFn):
    """Central finite-difference gradients (d_x, d_p) of a phase scalar."""
    return (lambda x, p: fd_partials(lambda xx: value(xx, p), x),
            lambda x, p: fd_partials(lambda pp: value(x, pp), p))


def custom_hamiltonian(dim: int, value: PhaseFn,
                       grad_x: Optional[PhaseGrad] = None,
                       grad_p: Optional[PhaseGrad] = None) -> HamiltonianModel:
    """Wrap a user-supplied scalar; missing gradients fall back to central
    finite differences of ``value``."""
    fd_x, fd_p = _fd_phase_grads(value)
    grad_x = grad_x if grad_x is not None else fd_x
    grad_p = grad_p if grad_p is not None else fd_p
    return HamiltonianModel(dim, value, grad_x, grad_p,
                            _composed_flow(grad_x, grad_p))


def standard_hamiltonian(metric: MetricField, potential: PotentialField,
                         mass: float = 1.0, charge: float = 1.0) -> HamiltonianModel:
    """H = g^{mu nu}(p - eA)_mu (p - eA)_nu / (2 mass), with analytic gradients.

    The factor 1/2 makes the shell residual equal (2/mass) H - 1 and the flow
    velocity dH/dp = g^{-1}(p - eA)/mass, so states on the shell map to unit
    vectors g(u, u) = 1.  ``grad_x``, ``grad_p`` and ``flow`` also take
    batches x, p (..., m); ``value`` takes one point.
    """
    if metric.dim != potential.dim:
        raise DimensionMismatch("metric and potential dimensions differ")
    m = float(mass)
    e = float(charge)
    if not m > 0.0:
        raise ValueError("mass must be positive")
    std = StandardData(metric, potential, m, e)

    def kinetic(x, p):
        return p - e * _field_at(potential.value, x)

    def value(x, p):
        w = kinetic(x, p)
        ginv = inverse_metric_at(metric, x)
        return 0.5 * float(w @ ginv @ w) / m

    def grad_p(x, p):
        w = kinetic(x, p)
        return _dot(inverse_metric_at(metric, x), w) / m

    def dh_dx(x, w, ginv):
        dg = _field_at(metric.partials, x)
        da = _field_at(potential.partials, x)
        return _standard_dh_dx(std, w, ginv, _dginv(ginv, dg), da)

    def grad_x(x, p):
        w = kinetic(x, p)
        return dh_dx(x, w, inverse_metric_at(metric, x))

    def flow(x, p):
        w = kinetic(x, p)
        ginv = inverse_metric_at(metric, x)
        return _dot(ginv, w) / m, -dh_dx(x, w, ginv)

    flow._diagonal_stage = value._diagonal_stage = _diagonal_stage(std, kinetic)
    return HamiltonianModel(metric.dim, value, grad_x, grad_p, flow, std)


def _diagonal_stage(std: StandardData, kinetic):
    """``stage(x, p, shell=None) -> (flow, H, d)``: the flow (dH/dp, -dH/dx),
    concatenated, at one phase point where g and its partials are diagonal;
    None elsewhere, which leaves the point to ``flow``.

    With g = diag(d), dd[mu, a] = d_mu g_aa and v_a = w_a / d_a, w = p - eA,
    the flow is dH/dp = v / mass and -dH/dx = dd (v^2) / (2 mass) +
    (e / mass) dA v, from d_lam g^{aa} = -dd[lam, a] / d_a^2: O(m^2) work
    instead of the O(m^3) partials of the inverse.  v is w times 1/d, as the
    closed-form inverse applies it, so dH/dp has the bits of ``flow``.

    ``shell`` is the metric of the integrator's shell monitor at a settled
    point: H = v . w / (2 mass) is given then, with the bits of ``value``,
    and d too when that metric is this model's; else both are None.  A
    stage reads g and its partials once, through
    :func:`geometry._diagonal_form`, in the order of ``flow``, so errors and
    their messages are the same; a zero or non-finite entry gives None.  At
    charge 0 the potential is not read, as in the geodesic kernel: a point
    where only the potential fails (a Coulomb center) is integrated, where
    ``flow`` raises.  The flow holds no -0.
    """
    metric, potential, mass, e = std.metric, std.potential, std.mass, std.charge

    def stage(x, p, shell=None):
        w = p if e == 0.0 else kinetic(x, p)
        form = _diagonal_form(metric, x)
        if form is None:
            return None
        d, dd = form
        v = w * (1.0 / d)
        k = np.concatenate((v, 0.5 * (dd @ (v * v))))
        k /= mass
        if e != 0.0:
            k[d.size:] += (e / mass) * (_field_at(potential.partials, x) @ v)
        k += 0.0
        if shell is None:
            return k, None, None
        return k, 0.5 * float(v @ w) / mass, d if shell is metric else None

    return stage


def _standard_dh_dx(std: StandardData, w: Array, ginv: Array, dginv: Array,
                    da: Array) -> Array:
    """d_lam H of the standard family from w = p - eA, g^{-1}, its partials
    and the partials of A at one point, or for a batch (leading axes)."""
    m, e = std.mass, std.charge
    t_metric = 0.5 * np.einsum("...lab,...a,...b->...l", dginv, w, w) / m
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
    g = metric_at(_shell_metric(h, metric), s.x)
    v = legendre_velocity(h, s)
    return float(v @ g @ v) - 1.0


def mass_shell_scalar(h: HamiltonianModel,
                      metric: Optional[MetricField] = None) -> HamiltonianModel:
    """The shell residual H_T as a phase-space scalar with gradients.

    For the standard family the gradients are analytic (computed from the
    explicit form g^{ab}(p - eA)(p - eA)/mass^2 - 1, independently of the
    gradients of H) and ``flow`` shares one metric inversion between them;
    all three also take batches x, p (..., m).  Otherwise they fall back to
    finite differences.
    """
    shell_metric = _shell_metric(h, metric)

    def value(x, p):
        g = metric_at(shell_metric, x)
        v = np.asarray(h.grad_p(x, p), float)
        return float(v @ g @ v) - 1.0

    if h.standard is None:
        fd_x, fd_p = _fd_phase_grads(value)
        return HamiltonianModel(h.dim, value, fd_x, fd_p, _composed_flow(fd_x, fd_p))

    std = h.standard
    e, m2 = std.charge, std.mass ** 2

    def kinetic(x, p):
        return p - e * _field_at(std.potential.value, x)

    def dh_dx(x, w, ginv):
        dg = _field_at(std.metric.partials, x)
        da = _field_at(std.potential.partials, x)
        return (np.einsum("...lab,...a,...b->...l", _dginv(ginv, dg), w, w)
                - 2.0 * e * np.einsum("...ab,...a,...lb->...l", ginv, w, da)) / m2

    def grad_p(x, p):
        return 2.0 * _dot(inverse_metric_at(std.metric, x), kinetic(x, p)) / m2

    def grad_x(x, p):
        return dh_dx(x, kinetic(x, p), inverse_metric_at(std.metric, x))

    def flow(x, p):
        w = kinetic(x, p)
        ginv = inverse_metric_at(std.metric, x)
        return 2.0 * _dot(ginv, w) / m2, -dh_dx(x, w, ginv)

    return HamiltonianModel(h.dim, value, grad_x, grad_p, flow)


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
    grad_x, grad_p = lambda x, p: ex.copy(), lambda x, p: zero.copy()
    return HamiltonianModel(dim, lambda x, p: float(x[lam]), grad_x, grad_p,
                            _composed_flow(grad_x, grad_p))


def momentum_scalar(dim: int, lam: int) -> HamiltonianModel:
    """The momentum function p_lam as a phase-space scalar."""
    ep = np.zeros(dim)
    ep[lam] = 1.0
    zero = np.zeros(dim)
    grad_x, grad_p = lambda x, p: zero.copy(), lambda x, p: ep.copy()
    return HamiltonianModel(dim, lambda x, p: float(p[lam]), grad_x, grad_p,
                            _composed_flow(grad_x, grad_p))


def on_shell_momentum(h: HamiltonianModel, x, u) -> Array:
    """Momenta matching a four-velocity: p = mass g u + charge A.

    Standard family only.  When g(u, u) = 1 the resulting phase point lies on
    the mass shell and legendre_velocity maps it back to u.
    """
    if h.standard is None:
        raise ValueError("on_shell_momentum requires a standard-family Hamiltonian")
    std = h.standard
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    g = metric_at(std.metric, x)
    a_form = np.asarray(std.potential.value(x), float)
    return std.mass * (g @ u) + std.charge * a_form


def second_order_rhs(h: HamiltonianModel, x, u) -> Array:
    """Acceleration of the second-order reduction of the Hamilton flow.

    Evaluates  a^lam = (dH/dp_mu) d_mu dH/dp_lam - (d_mu H) d^2H/dp_lam dp_mu
    at the momenta p(x, u) of :func:`on_shell_momentum`.  For the standard
    family this equals the geodesic right-hand side of the charged connection
    built from the same metric and potential.  Takes one state or a batch
    x, u (..., m).
    """
    if h.standard is None:
        raise ValueError("second_order_rhs requires a standard-family Hamiltonian")
    std = h.standard
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    m, e = std.mass, std.charge
    g = metric_at(std.metric, x)
    ginv = inverse_metric_at(std.metric, x)
    dg = _field_at(std.metric.partials, x)
    da = _field_at(std.potential.partials, x)
    dginv = _dginv(ginv, dg)

    ea = e * _field_at(std.potential.value, x)
    w = m * _dot(g, u)                   # kinetic momenta p - eA
    p = w + ea
    gp = _dot(ginv, w) / m               # dH/dp, equals u up to rounding
    # mixed[lam, mu] = d_mu dH/dp_lam
    mixed = (np.einsum("...mln,...n->...lm", dginv, w)
             - e * np.einsum("...ln,...mn->...lm", ginv, da)) / m
    # dH/dx at p, with p - eA recomputed from p as H's own gradient does
    gx = _standard_dh_dx(std, p - ea, ginv, dginv, da)
    return _dot(mixed, gp) - _dot(ginv, gx) / m


def _phase_stage(h: HamiltonianModel):
    """The flow (dH/dp, -dH/dx), concatenated, that integrate_hamiltonian
    evaluates at each RK4 stage of one run, with H and the diagonal of g
    where the stage gives them: ``stage(x, p, shell=None) -> (flow, H or
    None, d or None)``.

    The ``flow`` and ``value`` of :func:`standard_hamiltonian` carry an
    O(m^2) kernel for points where the metric is diagonal; wrappers made
    with ``functools.wraps`` keep it, and a model whose ``flow`` or ``value``
    was replaced otherwise is integrated through them.  Where the kernel
    does not apply, the run goes on with ``h.flow`` (:func:`_kernel_first`).
    """
    kernel = getattr(h.flow, "_diagonal_stage", None)
    if getattr(h.value, "_diagonal_stage", None) is not kernel:
        kernel = None

    def general(x, p, shell=None):
        return np.concatenate(h.flow(x, p)), None, None

    return _kernel_first(kernel, general)


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
    H_T there.  Where the O(m^2) kernel of the standard family applies (see
    :func:`_phase_stage`), H comes from that first stage, and so does g =
    diag(d) when ``metric`` is the model's own: H_T = (v d) . v - 1, with the
    bits of v . g . v.  Elsewhere H comes from ``h.value`` and g from
    :func:`metric_at`, read after the flow.
    """
    shell_metric = _shell_metric(h, metric)
    m = np.size(s0.x)
    stage = _phase_stage(h)

    def flow(y):
        return stage(y[:m], y[m:])[0]

    def first_stage(y):
        """The flow at y, the shell residual of its velocity and H (None
        when ``h.value`` gives it)."""
        k, hv, d = stage(y[:m], y[m:], shell_metric)
        v = k[:m]
        if d is None:
            return k, float(v @ metric_at(shell_metric, y[:m]) @ v) - 1.0, hv
        return k, float((v * d) @ v) - 1.0, hv

    def settle(y):
        nonlocal drift
        k1, ht, hv = first_stage(y)
        drift = max(drift, abs(ht))
        return y, (ht, hv), k1

    y0 = np.concatenate((s0.x, s0.p)).astype(float)
    k1, ht0, hv0 = first_stage(y0)
    if abs(ht0) > 1e-8:
        warnings.warn(
            f"initial phase point is off the mass shell: H_T = {ht0!r}",
            stacklevel=2,
        )
    drift = abs(ht0)

    taus, ys, values = _rk4(flow, y0, (ht0, hv0), dt, steps, settle,
                            record_every, k1)
    ys = np.stack(ys)
    hts, hs = zip(*values)
    return PhaseTrajectory(
        tau=np.asarray(taus),
        x=ys[:, :m],
        p=ys[:, m:],
        H=np.asarray([float(h.value(y[:m], y[m:])) if hv is None else hv
                      for y, hv in zip(ys, hs)]),
        HT=np.asarray(hts),
        integrator="rk4",
        dt=dt,
        max_shell_drift=drift,
    )
