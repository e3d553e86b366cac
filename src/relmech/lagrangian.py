"""Reparameterization-invariant Lagrangians and their variational derivatives.

The model Lagrangian is

    L(x, u) = mass * G(x, u)^(1/2N) + charge * u^mu A_mu(x),

with G the fully symmetric rank-2N velocity form (positive where evaluated)
and A a one-form.  L is positively homogeneous of degree one in u, which
forces the identity u . calE = 0 on its variational derivatives calE for ALL
arguments, solutions or not.  Because of that identity the Euler-Lagrange
system is underdetermined; it is closed by the unit-level constraint
G(x, u) = 1, on which it is equivalent to the determined system E = 0 (the
"reduced" covector computed by :func:`euler_lagrange_E`).

The chart-local picture eliminates the parameter: with v^i = u^i/u^0 and
Gbar(x, v) = G(x, (1, v)), the three-velocity Lagrangian

    Lbar = mass * Gbar^(1/2N) + charge * (v^i A_i + A_0)

has Euler-Lagrange covector Ebar_i tied to calE_i by calE_i = u^0 Ebar_i
along lifted solutions, with the time component fixed by
Ebar_0 = -v^i Ebar_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _rk4
from .errors import DimensionMismatch, DomainError, NonPositiveG, StepRejected
from .geometry import (
    Array,
    GTensorField,
    PotentialField,
    _dot,
    _field_at,
    _first_failure,
    _norm,
    _power,
    _scalar,
    contract_all,
    faraday_at,
    g_value,
)
from .kinematics import ThreeVelocity, lift_three_solution

#: floor added to normalization denominators so identities stay scale-free
RESIDUAL_FLOOR = 1e-30


@dataclass(frozen=True)
class LagrangianModel:
    """Velocity form, potential and the particle constants mass, charge.

    mass = charge = 1 gives the bare homogeneous Lagrangian
    G^(1/2N) + u . A.
    """

    gfield: GTensorField
    potential: PotentialField
    mass: float = 1.0
    charge: float = 1.0

    def __post_init__(self):
        if self.gfield.dim != self.potential.dim:
            raise DimensionMismatch(
                f"G field dimension {self.gfield.dim} != potential dimension "
                f"{self.potential.dim}"
            )
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")

    @property
    def dim(self) -> int:
        return self.gfield.dim

    @property
    def order_half(self) -> int:
        return self.gfield.order_half


@dataclass(frozen=True)
class ELResidual:
    """Variational data at one (x, u, a): reduced covector E, full covector
    calE, and the constraint value G (arrays over the batch axes for a
    batch)."""

    E: Array
    cal_E: Array
    G: float


def _require_positive(g) -> None:
    i = _first_failure(g > 0.0)
    if i is not None:
        raise NonPositiveG(f"G = {np.ravel(g)[i]:g} is not positive here")


def lagrangian_value(model: LagrangianModel, x, u) -> float:
    """L(x, u) = mass * G^(1/2N) + charge * u . A(x)."""
    g = g_value(model.gfield, x, u)
    _require_positive(g)
    a_form = np.asarray(model.potential.value(np.asarray(x, float)), float)
    n2 = 2 * model.order_half
    return model.mass * g ** (1.0 / n2) + model.charge * float(np.dot(u, a_form))


def constraint_value(model: LagrangianModel, x, u) -> float:
    """The constraint scalar G(x, u); the unit level set is G = 1."""
    return g_value(model.gfield, x, u)


def _velocity_form_pieces(model: LagrangianModel, x, u):
    """Shared contractions of G and its partials with the velocity.

    Returns (G, dG_full, dG_first, G_red, c) where

      dG_full[beta] = d_beta G_{...} u ... u            (all 2N slots filled)
      dG_first[beta] = u^mu d_mu G_{beta ...} u ... u   (2N - 1 slots filled)
      G_red[beta, mu] = G_{beta mu ...} u ... u         (2N - 2 slots filled)
      c[lam] = G_{lam ...} u ... u                      (2N - 1 slots filled)

    x and u may also be batches (..., m) of equal shape; each piece then
    gains the batch axes in front, and G is an array.
    """
    gf = model.gfield
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[-1:] != (gf.dim,) or u.shape != x.shape:
        raise DimensionMismatch(f"x and u must have shape ({gf.dim},) or (..., {gf.dim})")
    n2 = 2 * gf.order_half
    gt = _field_at(gf.value, x)
    dg = _field_at(gf.partials, x)
    g = _scalar(contract_all(gt, u, n2))
    dg_full = contract_all(dg, u, n2)
    # u^mu d_mu G_{...}: the row-vector product np.tensordot(u, dg, 1) makes
    b = u.ndim - 1
    dg_u = u[..., None, :] @ dg.reshape(dg.shape[:b + 1] + (-1,))
    dg_first = contract_all(dg_u.reshape(dg.shape[:b] + dg.shape[b + 1:]), u, n2 - 1)
    g_red = contract_all(gt, u, n2 - 2)
    c = _dot(g_red, u)
    return g, dg_full, dg_first, g_red, c


def euler_lagrange_E(model: LagrangianModel, x, u, a) -> Array:
    """The reduced Euler-Lagrange covector E_beta(x, u, a).

    E_beta = mass * [ (d_beta G_{mu ...} / 2N - d_mu G_{beta ...}) u^mu u...u
                      - (2N - 1) G_{beta mu ...} a^mu u...u ]
             + charge * G^(1 - 1/2N) F_{beta mu} u^mu.

    E = 0 together with G = 1 is the determined equation of motion; its
    solutions never leave the unit level set.
    """
    return _euler_lagrange_E(model, x, u, a, _velocity_form_pieces(model, x, u))


def _euler_lagrange_E(model: LagrangianModel, x, u, a, pieces) -> Array:
    """:func:`euler_lagrange_E` from the :func:`_velocity_form_pieces` at (x, u)."""
    g, dg_full, dg_first, g_red, _ = pieces
    _require_positive(g)
    a = np.asarray(a, dtype=float)
    n2 = 2 * model.order_half
    f = faraday_at(model.potential, np.asarray(x, float))
    e_cov = model.mass * (dg_full / n2 - dg_first - (n2 - 1) * _dot(g_red, a))
    force = model.charge * _power(g, 1.0 - 1.0 / n2)
    return e_cov + force[..., None] * _dot(f, u)


def variational_derivative(model: LagrangianModel, x, u, a) -> ELResidual:
    """Full variational derivative calE of L at (x, u, a).

    calE_lam = E_beta [delta^beta_lam - u^beta c_lam / G] G^(1/2N - 1) with
    c_lam = G_{lam ...} u...u; the bracket projects out the u direction, so
    u . calE = 0 identically.  That identity is verified as a post-check (the
    normalization includes the pre-cancellation magnitude of E so that
    near-solutions, where calE is pure rounding noise, do not trip it).
    """
    u = np.asarray(u, dtype=float)
    pieces = _velocity_form_pieces(model, x, u)
    g, c = pieces[0], pieces[4]
    e_cov = _euler_lagrange_E(model, x, u, a, pieces)
    n2 = 2 * model.order_half
    weight = _power(g, 1.0 / n2 - 1.0)[..., None]
    cal = (e_cov - (_dot(e_cov, u) / g)[..., None] * c) * weight

    resid = np.abs(_dot(u, cal))
    norm_u = _norm(u)
    scale = (norm_u * _norm(cal) + norm_u * _norm(e_cov) * weight[..., 0]
             + RESIDUAL_FLOOR)
    i = _first_failure(resid <= 1e-10 * scale)
    if i is not None:
        raise ArithmeticError(
            f"u . calE = {np.ravel(resid)[i]:g} exceeds 1e-10 of scale "
            f"{np.ravel(scale)[i]:g}; the computation is numerically unreliable here"
        )
    return ELResidual(E=e_cov, cal_E=cal, G=g)


def noether_residual(model: LagrangianModel, x, u, a):
    """Normalized value of u . calE, which must vanish for ALL inputs.

    Returns |u . calE| / (||u|| ||calE|| + 1e-30); this is an algebraic
    identity forced by degree-one homogeneity, not an equation of motion.
    A float for one state; an array for a batch x, u, a (..., m).
    """
    res = variational_derivative(model, x, u, a)
    u = np.asarray(u, dtype=float)
    num = np.abs(_dot(u, res.cal_E))
    den = _norm(u) * _norm(res.cal_E) + RESIDUAL_FLOOR
    return _scalar(num / den)


def four_acceleration(model: LagrangianModel, x, u) -> Array:
    """Solve E(x, u, a) = 0 for the acceleration a.

    E is affine in a with coefficient matrix -mass (2N - 1) G_red, so one
    linear solve inverts it.  Along the resulting flow G is conserved, since
    d G / d tau = -(2N / (2N - 1)) u . E = 0.
    """
    g, dg_full, dg_first, g_red, _ = _velocity_form_pieces(model, x, u)
    _require_positive(g)
    n2 = 2 * model.order_half
    f = faraday_at(model.potential, np.asarray(x, float))
    rhs = (model.mass * (dg_full / n2 - dg_first)
           + model.charge * g ** (1.0 - 1.0 / n2) * (f @ u))
    return np.linalg.solve(model.mass * (n2 - 1) * g_red, rhs)


# ---------------------------------------------------------------------------
# chart-local three-velocity picture
# ---------------------------------------------------------------------------

def _reduced_pieces(model: LagrangianModel, t: ThreeVelocity):
    gf = model.gfield
    x = t.point
    if x.size != gf.dim:
        raise DimensionMismatch(
            f"three-velocity lives in dimension {x.size}, model in {gf.dim}"
        )
    n2 = 2 * gf.order_half
    uhat = np.concatenate(([1.0], t.v))
    gt = np.asarray(gf.value(x), dtype=float)
    gbar = float(contract_all(gt, uhat, n2))
    if not gbar > 0.0:
        raise NonPositiveG(
            f"reduced form Gbar = {gbar:g} is not positive; the chart-local "
            "three-velocity picture breaks down here"
        )
    return x, uhat, gt, gbar, n2


def three_lagrangian_value(model: LagrangianModel, t: ThreeVelocity) -> float:
    """Chart-local Lagrangian Lbar = mass Gbar^(1/2N) + charge (v.A_i + A_0)."""
    x, _, _, gbar, n2 = _reduced_pieces(model, t)
    a_form = np.asarray(model.potential.value(x), dtype=float)
    return (model.mass * gbar ** (1.0 / n2)
            + model.charge * float(t.v @ a_form[1:] + a_form[0]))


def three_euler_lagrange(model: LagrangianModel, t: ThreeVelocity, w) -> Array:
    """Euler-Lagrange covector Ebar_i of the chart-local Lagrangian.

    ``w = d v / d q^0`` is the three-acceleration.  The omitted time
    component satisfies Ebar_0 = -v^i Ebar_i by construction.  Writing
    c = G_{. ...} (1,v)...(1,v) (one slot free) and e1 = 1 - 1/2N:

        Ebar_i = mass [ d_i Gbar / (2N Gbar^e1) - d0( c_i / Gbar^e1 ) ]
                 + charge (F_{ij} v^j + F_{i0}),

    where d0 is the total chart-time derivative along the jet (q^0, q, v, w).
    """
    return _three_euler_lagrange(model, t, w)[0]


def _three_euler_lagrange(model: LagrangianModel, t: ThreeVelocity, w):
    """:func:`three_euler_lagrange` with the pieces :func:`three_acceleration`
    reuses: (Ebar, g_red, c, Gbar, 2N), with g_red and c as in its docstring.

    G and its partials, the potential's partials and Gbar are evaluated once.
    """
    x, uhat, gt, gbar, n2 = _reduced_pieces(model, t)
    w = np.asarray(w, dtype=float)
    if w.shape != t.v.shape:
        raise DimensionMismatch("w must match the shape of the three-velocity")
    what = np.concatenate(([0.0], w))

    dg = np.asarray(model.gfield.partials(x), dtype=float)
    g_red = contract_all(gt, uhat, n2 - 2)
    c = g_red @ uhat
    dgbar_coord = contract_all(dg, uhat, n2)
    # directional coordinate derivative along (1, v); the row-vector product
    # makes the bits of np.tensordot(v, dg[1:], 1) without its overhead
    dg_dir = dg[0] + (t.v @ dg[1:].reshape(t.v.size, -1)).reshape(dg.shape[1:])
    dir_c = contract_all(dg_dir, uhat, n2 - 1)
    d0_c = dir_c + (n2 - 1) * (g_red @ what)
    d0_gbar = float(contract_all(dg_dir, uhat, n2)) + n2 * float(c @ what)

    e1 = 1.0 - 1.0 / n2
    momentum_rate = d0_c / gbar ** e1 - e1 * c * d0_gbar / gbar ** (e1 + 1.0)

    f = faraday_at(model.potential, x)
    force = f[1:, 1:] @ t.v + f[1:, 0]
    ebar = (model.mass * (dgbar_coord[1:] / (n2 * gbar ** e1) - momentum_rate[1:])
            + model.charge * force)
    return ebar, g_red, c, gbar, n2


def three_acceleration(model: LagrangianModel, t: ThreeVelocity) -> Array:
    """Solve Ebar(t, w) = 0 for the three-acceleration w.

    Ebar is affine in w: Ebar(t, w) = Ebar(t, 0) + M w, where, with
    g_red = G_{. . ...} (1,v)...(1,v) (two slots free) and spatial i, j,

        M_ij = -mass [ (2N - 1) g_red_ij / Gbar^e1
                       - e1 2N c_i c_j / Gbar^(e1 + 1) ].

    So one evaluation of Ebar at w = 0 and one linear solve give w.
    """
    base, g_red, c, gbar, n2 = _three_euler_lagrange(model, t, np.zeros(t.v.size))
    c = c[1:]
    e1 = 1.0 - 1.0 / n2
    mat = -model.mass * ((n2 - 1) * g_red[1:, 1:] / gbar ** e1
                         - e1 * n2 * np.outer(c, c) / gbar ** (e1 + 1.0))
    return np.linalg.solve(mat, -base)


def integrate_three_velocity(model: LagrangianModel, start: ThreeVelocity,
                             dt: float, steps: int, sign: int = 1,
                             record_every: int = 1) -> Trajectory:
    """Integrate the chart-local equation in q^0 with classic fixed-step RK4
    and lift the run to proper time.

    The state is (q^0, q, v), with d(q^0, q, v)/dq^0 = (1, v, w) and w from
    :func:`three_acceleration`.  Each step sets q^0 to the previous chart
    time plus dt, since the RK4 sum (dt/6)*6 can miss dt by one ulp.  The
    run is lifted by :func:`lift_three_solution` on the sign branch ``sign``
    over the full grid (best tau quadrature), then every
    ``record_every``-th sample and the last are kept.  A failure names the
    last good chart time q^0, not a proper time.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n = start.v.size
    last = start

    def chart_state(y):
        return ThreeVelocity(y[0], y[1:n + 1], y[n + 1:])

    def rhs(y):
        try:
            three = chart_state(y)
        except ValueError as exc:  # a non-finite stage
            raise StepRejected("non-finite chart state") from exc
        return np.concatenate(([1.0], three.v, three_acceleration(model, three)))

    def settle(y):
        nonlocal last
        y[0] = last.q0 + dt
        last = chart_state(y)
        return y, last, None

    y0 = np.concatenate(([last.q0], last.q, last.v))
    try:
        samples = _rk4(rhs, y0, last, dt, steps, settle)[2]
    except StepRejected as exc:  # a non-finite stage or step
        raise StepRejected("non-finite chart state (last good chart time "
                           f"q^0 = {last.q0:.17g})") from exc
    except (DomainError, NonPositiveG) as exc:  # left the domain or the timelike region
        raise type(exc)(f"{exc} (last good chart time q^0 = {last.q0:.17g})") from exc

    traj = lift_three_solution(samples, model.gfield, sign)
    keep = np.append(np.arange(len(traj) - 1)[::record_every], len(traj) - 1)
    traj.tau, traj.x, traj.u, traj.G = (traj.tau[keep], traj.x[keep],
                                        traj.u[keep], traj.G[keep])
    return traj
