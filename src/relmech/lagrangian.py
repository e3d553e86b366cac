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

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _rk4
from .errors import DimensionMismatch, DomainError, NonPositiveG, SingularMetric, StepRejected
from .geometry import (
    Array,
    GTensorField,
    PotentialField,
    _diagonal,
    _dot,
    _fields_at,
    _first_failure,
    _float_form,
    _identity_cache,
    _norm,
    _power,
    _scalar,
    _scatter,
    contract_all,
    faraday_at,
    g_value,
)
from .kinematics import ThreeVelocity, _lift

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
    """L(x, u) = mass * G^(1/2N) + charge * u . A(x); at charge 0 the
    potential is not read."""
    g = g_value(model.gfield, x, u)
    _require_positive(g)
    n2 = 2 * model.order_half
    coupling = 0.0  # what a zero potential gives
    if model.charge != 0.0:
        a_form = np.asarray(model.potential.value(np.asarray(x, float)), float)
        coupling = model.charge * float(np.dot(u, a_form))
    return model.mass * g ** (1.0 / n2) + coupling


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
    gt, dg = _fields_at(gf, x, "value", "partials")
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
    linear solve with E at a = 0 inverts it.  Along the resulting flow G is conserved, since
    d G / d tau = -(2N / (2N - 1)) u . E = 0.
    """
    u = np.asarray(u, dtype=float)
    pieces = _velocity_form_pieces(model, x, u)
    rhs = _euler_lagrange_E(model, x, u, np.zeros(u.shape), pieces)
    return np.linalg.solve(model.mass * (2 * model.order_half - 1) * pieces[3], rhs)


# ---------------------------------------------------------------------------
# chart-local three-velocity picture
# ---------------------------------------------------------------------------

def _reduced_pieces(model: LagrangianModel, x: Array, v: Array):
    """(x, uhat, G, Gbar, 2N) at the chart point x = (q^0, q) and
    three-velocity v, arrays, with uhat = (1, v)."""
    gf = model.gfield
    if x.size != gf.dim:
        raise DimensionMismatch(
            f"three-velocity lives in dimension {x.size}, model in {gf.dim}"
        )
    n2 = 2 * gf.order_half
    uhat = np.concatenate(([1.0], v))
    gt = np.asarray(gf.value(x), dtype=float)
    gbar = float(contract_all(gt, uhat, n2))
    _require_reduced_positive(gbar)
    return x, uhat, gt, gbar, n2


def _require_reduced_positive(gbar: float) -> None:
    if not gbar > 0.0:
        raise NonPositiveG(
            f"reduced form Gbar = {gbar:g} is not positive; the chart-local "
            "three-velocity picture breaks down here"
        )


def three_lagrangian_value(model: LagrangianModel, t: ThreeVelocity) -> float:
    """Chart-local Lagrangian Lbar = mass Gbar^(1/2N) + charge (v.A_i + A_0);
    at charge 0 the potential is not read."""
    x, _, _, gbar, n2 = _reduced_pieces(model, t.point, t.v)
    coupling = 0.0  # what a zero potential gives
    if model.charge != 0.0:
        a_form = np.asarray(model.potential.value(x), dtype=float)
        coupling = model.charge * float(t.v @ a_form[1:] + a_form[0])
    return model.mass * gbar ** (1.0 / n2) + coupling


def three_euler_lagrange(model: LagrangianModel, t: ThreeVelocity, w) -> Array:
    """Euler-Lagrange covector Ebar_i of the chart-local Lagrangian.

    ``w = d v / d q^0`` is the three-acceleration.  The omitted time
    component satisfies Ebar_0 = -v^i Ebar_i by construction.  Writing
    c = G_{. ...} (1,v)...(1,v) (one slot free) and e1 = 1 - 1/2N:

        Ebar_i = mass [ d_i Gbar / (2N Gbar^e1) - d0( c_i / Gbar^e1 ) ]
                 + charge (F_{ij} v^j + F_{i0}),

    where d0 is the total chart-time derivative along the jet (q^0, q, v, w).
    """
    return _three_euler_lagrange(model, t.point, t.v, w)[0]


def _three_euler_lagrange(model: LagrangianModel, x: Array, v: Array, w):
    """:func:`three_euler_lagrange` with the pieces :func:`three_acceleration`
    reuses: (Ebar, g_red, c, Gbar, 2N), with g_red and c as in its docstring.

    G and its partials, the potential's partials and Gbar are evaluated once;
    at charge 0 the potential is not read.
    """
    x, uhat, gt, gbar, n2 = _reduced_pieces(model, x, v)
    w = np.asarray(w, dtype=float)
    if w.shape != v.shape:
        raise DimensionMismatch("w must match the shape of the three-velocity")
    what = np.concatenate(([0.0], w))

    dg = np.asarray(model.gfield.partials(x), dtype=float)
    g_red = contract_all(gt, uhat, n2 - 2)
    c = g_red @ uhat
    dgbar_coord = contract_all(dg, uhat, n2)
    # directional coordinate derivative along (1, v); the row-vector product
    # makes the bits of np.tensordot(v, dg[1:], 1) without its overhead
    dg_dir = dg[0] + (v @ dg[1:].reshape(v.size, -1)).reshape(dg.shape[1:])
    dir_c = contract_all(dg_dir, uhat, n2 - 1)
    d0_c = dir_c + (n2 - 1) * (g_red @ what)
    d0_gbar = float(contract_all(dg_dir, uhat, n2)) + n2 * float(c @ what)

    e1 = 1.0 - 1.0 / n2
    momentum_rate = d0_c / gbar ** e1 - e1 * c * d0_gbar / gbar ** (e1 + 1.0)

    ebar = model.mass * (dgbar_coord[1:] / (n2 * gbar ** e1) - momentum_rate[1:])
    if model.charge == 0.0:
        ebar += 0.0  # what 0 * force adds with a zero potential
    else:
        f = faraday_at(model.potential, x)
        ebar += model.charge * (f[1:, 1:] @ v + f[1:, 0])
    return ebar, g_red, c, gbar, n2


def three_acceleration(model: LagrangianModel, t: ThreeVelocity) -> Array:
    """Solve Ebar(t, w) = 0 for the three-acceleration w.

    Ebar is affine in w: Ebar(t, w) = Ebar(t, 0) + M w, where, with
    g_red = G_{. . ...} (1,v)...(1,v) (two slots free) and spatial i, j,

        M_ij = -mass [ (2N - 1) g_red_ij / Gbar^e1
                       - e1 2N c_i c_j / Gbar^(e1 + 1) ].

    So one evaluation of Ebar at w = 0 and one linear solve give w: for
    N = 1 and a diagonal g the closed form :func:`_diagonal_solve`, else
    ``np.linalg.solve``.  A singular M raises ``np.linalg.LinAlgError``.
    """
    return _solve_three_acceleration(model, t.point, t.v)


def _solve_three_acceleration(model: LagrangianModel, x: Array, v: Array) -> Array:
    """:func:`three_acceleration` at the chart point x = (q^0, q) and
    three-velocity v, arrays."""
    base, g_red, c, gbar, n2 = _three_euler_lagrange(model, x, v, np.zeros(v.size))
    d = _diagonal(g_red) if n2 == 2 else None
    if d is not None:
        return np.array(_diagonal_solve(d.tolist(), v.tolist(), base.tolist(),
                                        gbar ** 0.5, model.mass))
    c = c[1:]
    e1 = 1.0 - 1.0 / n2
    mat = -model.mass * ((n2 - 1) * g_red[1:, 1:] / gbar ** e1
                         - e1 * n2 * np.outer(c, c) / gbar ** (e1 + 1.0))
    return np.linalg.solve(mat, -base)


def _diagonal_solve(d: list, v: list, ebar: list, ge1: float, mass: float) -> list:
    """w from Ebar + M w = 0 for N = 1 and g = diag(d), with ge1 = Gbar^(1/2):
    M = -(mass / ge1) (diag(d_i) - c c^T / Gbar), c_i = d_i v^i, and
    Gbar - sum d_i (v^i)^2 = d_0, so Sherman-Morrison gives
    w_i = (ge1 / mass) (Ebar_i / d_i + v^i (v . Ebar) / d_0).  M is singular
    exactly where an entry of d is 0 (matrix determinant lemma), and there
    this raises ``np.linalg.LinAlgError``, as a solve does."""
    if 0.0 in d:
        raise np.linalg.LinAlgError("Singular matrix")
    s = 0.0
    for vi, e in zip(v, ebar):
        s += vi * e
    s /= d[0]
    scale = ge1 / mass
    return [scale * (e / di + vi * s) for e, di, vi in zip(ebar, d[1:], v)]


def _listed_three_acceleration(model: LagrangianModel, x: list, v: list) -> list:
    """:func:`three_acceleration` at lists x = (q^0, q) and v, as a list,
    without a ``ThreeVelocity``: the right-hand side of
    :func:`integrate_three_velocity` has tested the state's entries."""
    return _solve_three_acceleration(model, np.array(x, dtype=float),
                                     np.array(v, dtype=float)).tolist()


def _float_three_acceleration(model: LagrangianModel):
    """:func:`three_acceleration` in Python floats for an N = 1 G field
    whose callables declare a float form, as ``GTensorField.from_metric``
    keeps the metric's; None for any other field, or at a nonzero charge
    where the potential declares no form.

    ``stage(x, v)`` takes lists x = (q^0, q) and v and returns w as a list,
    with the bits of ``three_acceleration``, its errors and their messages.
    This picture never inverts g, so the stage makes no condition test on
    d.  Where floats cannot follow numpy, that stage calls
    ``three_acceleration`` itself: where Gbar is not finite and where
    Gbar^(3/2) underflows to 0, which numpy divides by and Python does not.
    Written out for N = 1, g = diag(d) and dd[mu, a] = d_mu g_aa, with
    u = (1, v), the stage follows the order rule of :mod:`relmech.dynamics`:
    c = d u, (dg . u) and dg_dir . u have one term per entry, copied in
    floats with + 0.0 for numpy's +0, while Gbar = c . u, the rows
    (dg . u) . u, v . dd[1:], (dg_dir . u) . u and F[1:, 1:] v each stay one
    ``np.dot`` of numpy's shape, and the solve is the closed form of
    :func:`_diagonal_solve` that ``three_acceleration`` makes for such a g.
    A slope-free metric, or a potential without spatial slopes in
    F[1:, 1:], makes those products +0 without a call.  F[1:, 0] and the
    F[1:, 1:] array (None without spatial slopes) are kept in an
    ``_identity_cache`` keyed by the potential's slopes, as the soldering
    matrix of :func:`dynamics._float_acceleration` is: built once per run
    in a uniform field.
    """
    gf, mass, charge = model.gfield, model.mass, model.charge
    form = _float_form(gf)
    potential_form = _float_form(model.potential) if charge != 0.0 else None
    if form is None or (charge != 0.0 and potential_form is None):
        return None
    m = gf.dim
    n = m - 1

    def build_faraday(slopes_a, _):
        """(F[1:, 0], F[1:, 1:]), the block None where it has no entry that
        can be nonzero."""
        da = _scatter(slopes_a, m)
        block = None
        if any(lam > 0 and mu > 0 for lam, mu, _ in slopes_a):
            block = np.array([da[i * m + j] - da[j * m + i] for i in range(1, m)
                              for j in range(1, m)]).reshape(n, n)
        return [da[i * m] - da[i] for i in range(1, m)], block

    faraday = _identity_cache(build_faraday)

    def stage(x, v):
        d, slopes = form(x)
        uhat = [1.0, *v]
        ua = np.array(uhat)
        c = [di * ui + 0.0 for di, ui in zip(d, uhat)]
        gbar = float(np.dot(np.array(c), ua))
        _require_reduced_positive(gbar)
        ge1, ge2 = gbar ** 0.5, gbar ** 1.5  # Gbar^e1 and Gbar^(e1 + 1)
        if not (gbar < math.inf and ge2 > 0.0):
            return _listed_three_acceleration(model, x, v)
        if slopes:
            rows = [0.0] * (m * m)  # dg . u
            dd = [0.0] * (n * m)  # d_i g_aa, i spatial
            dd0 = [0.0] * m  # d_0 g_aa
            for mu, a, val in slopes:
                rows[mu * m + a] = val * uhat[a] + 0.0
                if mu:
                    dd[(mu - 1) * m + a] = val
                else:
                    dd0[a] = val
            dgbar = np.dot(np.array(rows).reshape(m, m), ua).tolist()
            dir_dd = np.dot(np.array(v), np.array(dd).reshape(n, m)).tolist()
            dir_c = [(p + q) * ui + 0.0 for p, q, ui in zip(dd0, dir_dd, uhat)]
            d0_gbar = float(np.dot(np.array(dir_c), ua))
        else:
            dgbar = dir_c = [0.0] * m
            d0_gbar = 0.0
        ebar = [mass * (g / (2 * ge1) - (dc / ge1 - 0.5 * ci * d0_gbar / ge2))
                for g, dc, ci in zip(dgbar[1:], dir_c[1:], c[1:])]
        if charge == 0.0:
            ebar = [e + 0.0 for e in ebar]
        else:
            f0, block = faraday(potential_form(x)[1])
            fv = [0.0] * n if block is None else np.dot(block, np.array(v)).tolist()
            ebar = [e + charge * (t + f) for e, t, f in zip(ebar, fv, f0)]
        return _diagonal_solve(d, v, ebar, ge1, mass)

    return stage


def integrate_three_velocity(model: LagrangianModel, start: ThreeVelocity,
                             dt: float, steps: int, sign: int = 1,
                             record_every: int = 1) -> Trajectory:
    """Integrate the chart-local equation in q^0 with classic fixed-step RK4
    and lift the run to proper time.

    The state is (q^0, q, v), with d(q^0, q, v)/dq^0 = (1, v, w) and w from
    :func:`three_acceleration`, or with its bits from the float stage of
    :func:`_float_three_acceleration` at every stage where the model has
    one.  Each step sets q^0 to the previous chart time plus dt, since the
    RK4 sum (dt/6)*6 can miss dt by one ulp.
    The RK4 core's own record of every state is lifted on the sign branch
    ``sign`` over the full grid (best tau quadrature), with the bits and
    errors of :func:`relmech.kinematics.lift_three_solution` on the same
    samples, then every ``record_every``-th sample and the last are kept.
    A failure names the last good chart time q^0, not a proper time; a
    singular system for w (at the polar axis, for one) raises
    :class:`SingularMetric`.

    Chart time is a parameter of the motion only while u^0 keeps its sign.
    Where u^0 passes through 0, the condition that
    :class:`relmech.kinematics.ZeroTimeVelocity` names, v = u / u^0 grows
    without bound as q^0 nears that point (on a euclidean metric in a
    uniform E and B field, for one), and the run ends as
    :class:`StepRejected` "non-finite chart state (last good chart time
    q^0 = ...)" once the state or a stage overflows; ``relmech simulate``
    exits 3 with that line.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n = start.v.size
    q0 = start.q0
    stage = _float_three_acceleration(model) if n + 1 == model.dim else None
    if stage is None:
        stage = lambda x, v: _listed_three_acceleration(model, x, v)

    def rhs(y):
        if not (math.isfinite(sum(y)) or all(map(math.isfinite, y))):
            raise StepRejected("non-finite chart state")
        return [1.0, *y[n + 1:], *stage(y[:n + 1], y[n + 1:])]

    def settle(y, recorded):
        nonlocal q0
        q0 = y[0] = q0 + dt
        return y, None, None

    y0 = [q0, *start.q.tolist(), *start.v.tolist()]
    try:
        ys = _rk4(rhs, y0, None, dt, steps, settle)[1]
    except (StepRejected, ArithmeticError) as exc:  # an overflowing stage, a non-finite state
        raise StepRejected("non-finite chart state (last good chart time "
                           f"q^0 = {q0:.17g})") from exc
    except (DomainError, NonPositiveG) as exc:  # left the domain or the timelike region
        raise type(exc)(f"{exc} (last good chart time q^0 = {q0:.17g})") from exc
    except np.linalg.LinAlgError as exc:  # the solve for w
        raise SingularMetric(f"chart-time system for w is singular (last good chart "
                             f"time q^0 = {q0:.17g})") from exc

    record = np.array(ys).reshape(-1, 2 * n + 1)
    traj = _lift(record[:, 0], record[:, 1:n + 1], record[:, n + 1:], model.gfield, sign)
    keep = np.append(np.arange(len(traj) - 1)[::record_every], len(traj) - 1)
    traj.tau, traj.x, traj.u, traj.G = (traj.tau[keep], traj.x[keep],
                                        traj.u[keep], traj.G[keep])
    return traj
