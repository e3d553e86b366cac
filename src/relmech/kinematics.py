"""Three-velocity / four-velocity kinematics.

On a chart (q^0, q^i) a nonzero four-velocity u determines the
three-velocities v^i = u^i / u^0; conversely a three-velocity plus a branch
sign determines the unique pair of four-velocities on the unit level set
G(x, u) = 1.  Chart changes act on three-velocities projectively:

    v'^i = (J[i, j] v^j + J[i, 0]) / (J[0, j] v^j + J[0, 0]),

with J the Jacobian of the transition.  Two four-velocities at the same
point describe the same unparameterized worldline direction exactly when
they are proportional; :func:`same_jet` tests that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .dynamics import Trajectory
from .errors import (
    COMPUTATION_ERRORS,
    ConstraintUnreachable,
    DimensionMismatch,
    DomainError,
    NonMonotoneTime,
    ProjectiveInfinity,
    ZeroTimeVelocity,
    ZeroVector,
)
from .geometry import Array, GTensorField, _first_failure, _power, g_value

#: projective maps blow up when the chart-time denominator is this small
DENOMINATOR_FLOOR = 1e-12

#: default relative tolerance for collinearity tests
COLLINEARITY_TOL = 1e-10


@dataclass(frozen=True)
class FourState:
    """A point x^lam and a four-velocity u^lam = dx^lam/dtau."""

    x: Array
    u: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.x.shape != self.u.shape or self.x.ndim != 1:
            raise DimensionMismatch("x and u must be 1-d arrays of equal length")


@dataclass(frozen=True)
class ThreeVelocity:
    """Chart time q^0, spatial point q^i and three-velocities v^i = dq^i/dq^0."""

    q0: float
    q: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "q0", float(self.q0))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.q.shape != self.v.shape or self.q.ndim != 1:
            raise DimensionMismatch("q and v must be 1-d arrays of equal length")
        # one Python pass over the few entries: cheaper than np.isfinite
        if not all(map(math.isfinite, [self.q0, *self.q.tolist(), *self.v.tolist()])):
            raise ValueError("three-velocity entries must be finite")

    @property
    def point(self) -> Array:
        """The full chart point (q^0, q^1, ..., q^{m-1})."""
        return np.concatenate(([self.q0], self.q))


@dataclass(frozen=True)
class ChartTransition:
    """A chart change x -> x' with its Jacobian J[lam, mu] = dx'^lam/dx^mu."""

    map: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]


def lorentz_boost_matrix(alpha: float, dim: int = 4) -> Array:
    """Boost with rapidity ``alpha`` mixing the 0 and 1 axes.

    x'^0 = x^0 ch(a) - x^1 sh(a),  x'^1 = -x^0 sh(a) + x^1 ch(a).
    """
    if dim < 2:
        raise DimensionMismatch("boost needs at least 2 dimensions")
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    lam = np.eye(dim)
    lam[0, 0] = ch
    lam[0, 1] = -sh
    lam[1, 0] = -sh
    lam[1, 1] = ch
    return lam


def lorentz_boost_transition(alpha: float, dim: int = 4) -> ChartTransition:
    """The boost of :func:`lorentz_boost_matrix` as a chart transition."""
    lam = lorentz_boost_matrix(alpha, dim)
    return ChartTransition(map=lambda x: lam @ x, jacobian=lambda x: lam.copy())


def boost_four(alpha: float, u) -> Array:
    """Linear action of the boost on a four-velocity."""
    u = np.asarray(u, dtype=float)
    return lorentz_boost_matrix(alpha, u.size) @ u


def three_from_four(s: FourState) -> ThreeVelocity:
    """Project a four-state to the chart three-velocity, v^i = u^i / u^0.

    Invariant under rescaling of u.  Raises :class:`ZeroTimeVelocity` when
    the time component vanishes.
    """
    u0 = s.u[0]
    if abs(u0) < 1e-300:
        raise ZeroTimeVelocity("four-velocity has vanishing time component")
    return ThreeVelocity(q0=s.x[0], q=s.x[1:], v=s.u[1:] / u0)


def four_from_three(t: ThreeVelocity, gfield: GTensorField,
                    sign: int = 1) -> FourState:
    """Lift a three-velocity to the four-velocity with G(x, u) = 1.

    By homogeneity the reduced form at (x, v) is Gbar = G(x, (1, v)); the
    branch choice gives u^0 = sign * Gbar^(-1/2N) and u^i = u^0 v^i.  Raises
    :class:`ConstraintUnreachable` when Gbar <= 0 (no unit-normalized
    four-velocity exists over this three-velocity).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = t.point
    if x.size != gfield.dim:
        raise DimensionMismatch(
            f"three-velocity lives in dimension {x.size}, field in {gfield.dim}"
        )
    uhat = np.concatenate(([1.0], t.v))
    gbar = g_value(gfield, x, uhat)
    if not gbar > 0.0:
        raise ConstraintUnreachable(
            f"no unit-shell lift: reduced form Gbar = {gbar:g} is not positive"
        )
    u = sign * gbar ** (-1.0 / (2 * gfield.order_half)) * uhat
    if sign < 0:
        u += 0.0  # u^0 < 0 turns the zero components of v into -0
    return FourState(x=x, u=u)


def projective_transform(t: ChartTransition, s: ThreeVelocity) -> ThreeVelocity:
    """Push a three-velocity through a chart transition.

    Implements the projective law quoted in the module docstring with the
    Jacobian evaluated at the base point.  Raises
    :class:`ProjectiveInfinity` when the image leaves the affine chart.
    """
    x = s.point
    jac = np.asarray(t.jacobian(x), dtype=float)
    if jac.shape != (x.size, x.size):
        raise DimensionMismatch(
            f"jacobian must be {(x.size,) * 2}, got {jac.shape}"
        )
    if abs(np.linalg.det(jac)) < 1e-300:
        raise DomainError("chart transition jacobian is singular here")
    denom = jac[0, 1:] @ s.v + jac[0, 0]
    if abs(denom) < DENOMINATOR_FLOOR:
        raise ProjectiveInfinity(
            "transformed three-velocity leaves the affine chart"
        )
    num = jac[1:, 1:] @ s.v + jac[1:, 0]
    xp = np.asarray(t.map(x), dtype=float)
    return ThreeVelocity(q0=xp[0], q=xp[1:], v=num / denom)


def boost_three(alpha: float, v) -> Array:
    """Boost a three-velocity by rapidity ``alpha`` along the first axis.

    v'^1 = (v^1 ch - sh) / (-v^1 sh + ch),  v'^{2,3} = v^{2,3} / (-v^1 sh + ch).

    Rapidities compose additively; light speed (|v| = 1 along the boost axis)
    is a fixed point.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch("v must be a 1-d vector")
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    denom = -v[0] * sh + ch
    if abs(denom) < DENOMINATOR_FLOOR:
        raise ProjectiveInfinity("boosted three-velocity leaves the affine chart")
    out = v / denom
    out[0] = (v[0] * ch - sh) / denom
    return out


def same_jet(u, w, tol: float = COLLINEARITY_TOL) -> bool:
    """Whether two nonzero velocities span the same line through the point.

    True exactly when w = r u for some nonzero r, tested through the 2x2
    minors of the stacked pair: all |u_i w_j - u_j w_i| <= tol ||u|| ||w||.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != w.shape or u.ndim != 1:
        raise DimensionMismatch("u and w must be 1-d arrays of equal length")
    nu, nw = np.linalg.norm(u), np.linalg.norm(w)
    if nu == 0.0 or nw == 0.0:
        raise ZeroVector("same_jet requires nonzero vectors")
    minors = np.outer(u, w)
    minors = minors - minors.T
    return bool(np.max(np.abs(minors)) <= tol * nu * nw)


def lift_three_solution(samples: Iterable, gfield: GTensorField,
                        sign: int = 1) -> Trajectory:
    """Lift a chart-time solution (q^0, q^i(q^0), v^i(q^0)) to proper time.

    Each sample is a :class:`ThreeVelocity` (or a (q0, q, v) triple).  The
    chart times must be strictly increasing.  Every sample is lifted onto the
    unit level set as by :func:`four_from_three`, all samples in batched
    calls with the bits of one call per sample, and tau is accumulated by
    trapezoidal quadrature of d tau/d q^0 = 1/u^0.  For the sign = -1 branch
    tau decreases with q^0, so the samples are stored in reversed order to
    keep tau increasing along the trajectory.  A chart-time run lifts its
    own RK4 record through the same code.
    """
    pts = [s if isinstance(s, ThreeVelocity) else ThreeVelocity(*s)
           for s in samples]
    if not pts:
        raise ValueError("need at least one sample")
    return _lift(np.array([p.q0 for p in pts]), [p.q for p in pts],
                 [p.v for p in pts], gfield, sign)


def _lift(q0s: Array, qs, vs, gfield: GTensorField, sign: int) -> Trajectory:
    """:func:`lift_three_solution` of the samples (q0s[k], qs[k], vs[k]):
    q0s an array, qs and vs 2-d arrays or lists of rows."""
    if q0s.size > 1 and not np.all(np.diff(q0s) > 0.0):
        raise NonMonotoneTime("chart time samples must be strictly increasing")

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    try:  # all samples at once, each row with the bits of a one-sample lift
        xs = np.column_stack((q0s, np.asarray(qs, dtype=float)))
        uhat = np.column_stack((np.ones(q0s.size), np.asarray(vs, dtype=float)))
        gbar = g_value(gfield, xs, uhat)
        if _first_failure(gbar > 0.0) is not None:
            raise ConstraintUnreachable("a reduced form Gbar is not positive")
    except COMPUTATION_ERRORS:  # lifted one by one, the first failing sample raises its own error
        for q0, q, v in zip(q0s, qs, vs):
            four_from_three(ThreeVelocity(q0, q, v), gfield, sign)
        raise
    us = (sign * _power(gbar, -1.0 / (2 * gfield.order_half)))[:, None] * uhat
    if sign < 0:
        us += 0.0  # as in four_from_three
    dtau_dq0 = 1.0 / us[:, 0]

    tau = np.zeros(q0s.size)
    if q0s.size > 1:
        increments = 0.5 * (dtau_dq0[1:] + dtau_dq0[:-1]) * np.diff(q0s)
        tau[1:] = np.cumsum(increments)

    gs = g_value(gfield, xs, us)

    if sign < 0 and q0s.size > 1:
        tau, xs, us, gs = tau[::-1].copy(), xs[::-1].copy(), us[::-1].copy(), gs[::-1].copy()

    return Trajectory(
        tau=tau,
        x=xs,
        u=us,
        G=gs,
        max_constraint_drift=float(np.max(np.abs(gs - 1.0))),
    )
