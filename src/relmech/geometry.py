"""Metric, potential and symmetric even-rank tensor fields on coordinate charts.

Every field is a plain container of evaluation callables plus a dimension.
Evaluation is pure and the containers are frozen, so instances can be shared
freely between threads.

Index conventions used throughout the package:

* ``metric.partials(x)[lam, mu, nu]``   is  d_lam g_{mu nu}
* ``potential.partials(x)[lam, mu]``    is  d_lam A_mu
* ``christoffel_at(g, x)[mu, lam, nu]`` has mu, nu down and lam up.

The connection symbols returned by :func:`christoffel_at` carry the OPPOSITE
sign of the usual textbook Christoffel symbols,

    C[mu, lam, nu] = -1/2 g^{lam beta} (d_mu g_{beta nu} + d_nu g_{beta mu}
                                        - d_beta g_{mu nu}),

so that the free geodesic equation reads ``a^lam = C[mu, lam, nu] u^mu u^nu``
with no minus sign.  Keep this in mind when comparing against other codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularMetric

Array = np.ndarray
FieldFn = Callable[[Array], Array]

#: exact identifiers accepted by :func:`catalog_metric`
CATALOG_IDS = ("minkowski", "euclidean", "schwarzschild", "diagonal")

#: finite-difference step scale, cbrt(machine epsilon)
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

_COND_LIMIT = 1e12


def fd_partials(f: FieldFn, x: Array) -> Array:
    """Central finite differences of ``f`` at ``x``.

    The step for coordinate ``lam`` is ``FD_STEP * max(1, |x_lam|)``.  The
    result has shape ``(m,) + shape(f(x))`` with the derivative index first.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for lam in range(x.size):
        h = FD_STEP * max(1.0, abs(x[lam]))
        xp = x.copy()
        xm = x.copy()
        xp[lam] += h
        xm[lam] -= h
        rows.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h))
    return np.stack(rows)


def symmetrize(t: Array) -> Array:
    """Average an array over all permutations of its axes."""
    t = np.asarray(t, dtype=float)
    if t.ndim <= 1:
        return t
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(t.ndim)):
        out += t.transpose(perm)
    out /= math.factorial(t.ndim)
    return out


def _symmetrize_tail(t: Array) -> Array:
    """Symmetrize over every axis except the first (derivative) one."""
    t = np.asarray(t, dtype=float)
    k = t.ndim - 1
    if k <= 1:
        return t
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(1, k + 1)):
        out += t.transpose((0,) + perm)
    out /= math.factorial(k)
    return out


def contract_all(t: Array, u: Array, count: int) -> Array:
    """Contract the last ``count`` axes of ``t`` with the vector ``u``."""
    for _ in range(count):
        t = t @ u
    return t


def _check_point(x, dim: int, what: str = "point") -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatch(
            f"{what} must have shape ({dim},), got {x.shape}"
        )
    return x


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """A pseudo-Riemannian metric g_{mu nu}(x) on an m-dimensional chart.

    ``value(x)`` returns the symmetric m x m matrix, ``partials(x)`` the
    rank-3 array of coordinate derivatives (derivative index first).  When a
    field is built without analytic partials, central finite differences of
    ``value`` are used.
    """

    dim: int
    value: FieldFn
    partials: FieldFn
    catalog_id: Optional[str] = None
    domain_check: Optional[Callable[[Array], None]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"metric dimension must be >= 2, got {self.dim}")

    @classmethod
    def from_function(cls, dim: int, value: FieldFn,
                      partials: Optional[FieldFn] = None,
                      domain_check=None) -> "MetricField":
        if partials is None:
            partials = lambda x: fd_partials(value, x)
        return cls(dim, value, partials, None, domain_check)


def minkowski(dim: int = 4) -> MetricField:
    """Flat metric of signature (+, -, ..., -)."""
    g = np.diag([1.0] + [-1.0] * (dim - 1))
    dg = np.zeros((dim, dim, dim))
    return MetricField(dim, lambda x: g.copy(), lambda x: dg.copy(),
                       "minkowski", None, {})


def euclidean(dim: int = 4) -> MetricField:
    """Flat metric of signature (+, +, ..., +)."""
    g = np.eye(dim)
    dg = np.zeros((dim, dim, dim))
    return MetricField(dim, lambda x: g.copy(), lambda x: dg.copy(),
                       "euclidean", None, {})


def diagonal_metric(entries: Sequence[float]) -> MetricField:
    """Constant diagonal metric given by ``entries``."""
    d = np.asarray(entries, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise DimensionMismatch("diagonal metric needs at least 2 entries")
    for i, entry in enumerate(d.tolist()):
        if entry == 0.0 or not math.isfinite(entry):
            raise ValueError(
                f"diag[{i}] = {entry!r}: diagonal metric entries must be "
                "finite and nonzero"
            )
    g = np.diag(d)
    dg = np.zeros((d.size,) * 3)
    return MetricField(d.size, lambda x: g.copy(), lambda x: dg.copy(),
                       "diagonal", None, {"diag": tuple(d)})


def schwarzschild(mass: float = 1.0) -> MetricField:
    """Schwarzschild metric in (t, r, theta, phi) coordinates, signature (+,-,-,-).

    The chart is restricted to r > 2M (with a small safety margin at the
    horizon); points at or below it raise :class:`DomainError`.
    """
    big_m = float(mass)
    if big_m <= 0:
        raise ValueError("schwarzschild mass must be positive")
    r_min = 2.0 * big_m * (1.0 + 1e-9)

    def check(x):
        r = x[1]
        if not r > r_min:
            raise DomainError(
                f"schwarzschild chart requires r > 2M = {2 * big_m:g}; got r = {r:g}"
            )

    def value(x):
        check(x)
        r, th = x[1], x[2]
        f = 1.0 - 2.0 * big_m / r
        s2 = math.sin(th) ** 2
        return np.diag([f, -1.0 / f, -r * r, -r * r * s2])

    def partials(x):
        check(x)
        r, th = x[1], x[2]
        f = 1.0 - 2.0 * big_m / r
        df = 2.0 * big_m / (r * r)
        s, c = math.sin(th), math.cos(th)
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = df
        dg[1, 1, 1] = df / (f * f)
        dg[1, 2, 2] = -2.0 * r
        dg[1, 3, 3] = -2.0 * r * s * s
        dg[2, 3, 3] = -2.0 * r * r * s * c
        return dg

    return MetricField(4, value, partials, "schwarzschild", check,
                       {"M": big_m})


def catalog_metric(name: str, *, dim: int = 4, mass: float = 1.0,
                   diag: Optional[Sequence[float]] = None) -> MetricField:
    """Build a metric from its catalog identifier.

    Identifiers are the exact strings "minkowski", "euclidean",
    "schwarzschild" and "diagonal".
    """
    if name == "minkowski":
        return minkowski(dim)
    if name == "euclidean":
        return euclidean(dim)
    if name == "schwarzschild":
        if dim != 4:
            raise DimensionMismatch("schwarzschild chart is four-dimensional")
        return schwarzschild(mass)
    if name == "diagonal":
        if diag is None:
            raise ValueError("diagonal metric requires the diag entries")
        if len(diag) != dim:
            raise DimensionMismatch(
                f"diagonal metric needs {dim} entries, got {len(diag)}"
            )
        return diagonal_metric(diag)
    raise ValueError(f"unknown metric id {name!r}; expected one of {CATALOG_IDS}")


def metric_at(metric: MetricField, x) -> Array:
    """Evaluate g_{mu nu} at ``x``.

    Raises :class:`DomainError` outside the chart domain and
    :class:`DimensionMismatch` for a wrong-length point.
    """
    x = _check_point(x, metric.dim)
    if metric.domain_check is not None:
        metric.domain_check(x)
    return np.asarray(metric.value(x), dtype=float)


def inverse_metric_at(metric: MetricField, x) -> Array:
    """Inverse metric g^{mu nu} at ``x``.

    A diagonal metric (every nonzero entry on a nonzero diagonal) is inverted
    in closed form, ``diag(1 / d)``; every other metric goes through LAPACK
    and is symmetrized.  The two agree exactly on diagonal input.

    Raises :class:`SingularMetric` when the metric cannot be inverted or its
    condition number (infinity norm estimate) exceeds 1e12.  For a diagonal
    metric that estimate is ``max|d| * max|1/d|``, the same number the
    infinity norms give, so both paths reject the same metrics.
    """
    g = metric_at(metric, x)
    d = g.diagonal()
    if np.count_nonzero(g) == np.count_nonzero(d) == d.size:
        dinv = 1.0 / d
        _check_condition(abs(d).max() * abs(dinv).max(), x)
        return np.diag(dinv)
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric is singular at x = {x}") from exc
    _check_condition(np.linalg.norm(g, np.inf) * np.linalg.norm(inv, np.inf), x)
    return 0.5 * (inv + inv.T)


def _check_condition(cond, x) -> None:
    if not cond < _COND_LIMIT:
        raise SingularMetric(
            f"metric is numerically singular at x = {x} (cond ~ {cond:.3e})"
        )


def _christoffel_and_inverse(metric: MetricField, x) -> tuple[Array, Array]:
    """Connection symbols and inverse metric at ``x`` from one inversion."""
    dg = np.asarray(metric.partials(_check_point(x, metric.dim)), dtype=float)
    ginv = inverse_metric_at(metric, x)
    # S[mu, beta, nu] = d_mu g_{beta nu} + d_nu g_{beta mu} - d_beta g_{mu nu}
    s = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
    c = -0.5 * np.einsum("lb,mbn->mln", ginv, s)
    return 0.5 * (c + c.transpose(2, 1, 0)), ginv


def christoffel_at(metric: MetricField, x) -> Array:
    """Connection symbols C[mu, lam, nu] of ``metric`` at ``x``.

    These carry the sign convention described in the module docstring (the
    negative of the textbook Christoffel symbols); they are symmetric in the
    outer indices mu, nu.  Constant metrics give identically zero.
    """
    return _christoffel_and_inverse(metric, x)[0]


# ---------------------------------------------------------------------------
# one-form potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialField:
    """A one-form A_mu(x) together with its coordinate derivatives."""

    dim: int
    value: FieldFn
    partials: FieldFn

    @classmethod
    def from_function(cls, dim: int, value: FieldFn,
                      partials: Optional[FieldFn] = None) -> "PotentialField":
        if partials is None:
            partials = lambda x: fd_partials(value, x)
        return cls(dim, value, partials)


def zero_potential(dim: int = 4) -> PotentialField:
    a = np.zeros(dim)
    da = np.zeros((dim, dim))
    return PotentialField(dim, lambda x: a.copy(), lambda x: da.copy())


def uniform_field(e_field=(0.0, 0.0, 0.0), b_field=(0.0, 0.0, 0.0)) -> PotentialField:
    """Linear potential on a 4-dimensional chart with constant field strength.

    The components are chosen so that F_{i0} = E_i and (F_{23}, F_{31},
    F_{12}) = (B_1, B_2, B_3) exactly:

        A_0 = E . x,   A_1 = B_2 x^3,   A_2 = B_3 x^1,   A_3 = B_1 x^2.
    """
    ee = np.asarray(e_field, dtype=float)
    bb = np.asarray(b_field, dtype=float)
    if ee.shape != (3,) or bb.shape != (3,):
        raise DimensionMismatch("uniform_field takes 3-component E and B")

    da = np.zeros((4, 4))
    da[1:, 0] = ee          # d_i A_0 = E_i
    da[3, 1] = bb[1]        # d_3 A_1 = B_2
    da[1, 2] = bb[2]        # d_1 A_2 = B_3
    da[2, 3] = bb[0]        # d_2 A_3 = B_1

    def value(x):
        return np.array([
            ee @ x[1:4],
            bb[1] * x[3],
            bb[2] * x[1],
            bb[0] * x[2],
        ])

    return PotentialField(4, value, lambda x: da.copy())


def coulomb_potential(charge: float, center=(0.0, 0.0, 0.0)) -> PotentialField:
    """Potential A_0 = q / |x - center| on a 4-dimensional chart."""
    q = float(charge)
    c = np.asarray(center, dtype=float)
    if c.shape != (3,):
        raise DimensionMismatch("coulomb center must have 3 components")

    def value(x):
        rho = np.linalg.norm(x[1:4] - c)
        if rho < 1e-12:
            raise DomainError("coulomb potential is singular at its center")
        out = np.zeros(4)
        out[0] = q / rho
        return out

    def partials(x):
        d = x[1:4] - c
        rho = np.linalg.norm(d)
        if rho < 1e-12:
            raise DomainError("coulomb potential is singular at its center")
        da = np.zeros((4, 4))
        da[1:, 0] = -q * d / rho ** 3
        return da

    return PotentialField(4, value, partials)


def faraday_at(potential: PotentialField, x) -> Array:
    """Field strength F_{lam mu} = d_lam A_mu - d_mu A_lam at ``x``."""
    x = _check_point(x, potential.dim)
    da = np.asarray(potential.partials(x), dtype=float)
    if da.shape != (potential.dim, potential.dim):
        raise DimensionMismatch(
            f"potential partials must be {(potential.dim,) * 2}, got {da.shape}"
        )
    return da - da.T


# ---------------------------------------------------------------------------
# symmetric even-rank velocity forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GTensorField:
    """Fully symmetric rank-2N tensor field G_{a1...a2N}(x).

    Contracting with 2N copies of a velocity yields the scalar form G(x, u);
    see :func:`g_value`.  Dense storage, intended for N in {1, 2} and m <= 8.
    """

    dim: int
    order_half: int
    value: FieldFn
    partials: FieldFn

    def __post_init__(self):
        if self.order_half < 1:
            raise ValueError("order_half must be >= 1")

    @classmethod
    def from_metric(cls, metric: MetricField) -> "GTensorField":
        """The N=1 field whose value coincides with the metric everywhere."""
        return cls(metric.dim, 1, metric.value, metric.partials)

    @classmethod
    def from_constant(cls, tensor) -> "GTensorField":
        t = symmetrize(np.asarray(tensor, dtype=float))
        rank = t.ndim
        if rank % 2 != 0 or rank == 0:
            raise DimensionMismatch("constant G tensor must have even rank")
        dim = t.shape[0]
        if any(s != dim for s in t.shape):
            raise DimensionMismatch("constant G tensor must be hypercubic")
        dt = np.zeros((dim,) + t.shape)
        return cls(dim, rank // 2, lambda x: t.copy(), lambda x: dt.copy())

    @classmethod
    def from_function(cls, dim: int, order_half: int, value: FieldFn,
                      partials: Optional[FieldFn] = None) -> "GTensorField":
        """Wrap a tensor-valued function, symmetrizing its output.

        Supported for order_half in {1, 2} and dim <= 8 (dense storage).
        """
        if order_half not in (1, 2):
            raise ValueError("dense G fields support order_half 1 or 2")
        if dim > 8:
            raise ValueError("dense G fields support dim <= 8")
        sym_value = lambda x: symmetrize(np.asarray(value(x), dtype=float))
        if partials is None:
            sym_partials = lambda x: fd_partials(sym_value, x)
        else:
            sym_partials = lambda x: _symmetrize_tail(
                np.asarray(partials(x), dtype=float))
        return cls(dim, order_half, sym_value, sym_partials)


def g_value(gfield: GTensorField, x, u) -> float:
    """Full contraction G_{a1...a2N}(x) u^{a1} ... u^{a2N}.

    Positively homogeneous of degree 2N in ``u``.
    """
    x = _check_point(x, gfield.dim)
    u = _check_point(u, gfield.dim, "vector")
    t = np.asarray(gfield.value(x), dtype=float)
    if t.ndim != 2 * gfield.order_half:
        raise DimensionMismatch(
            f"G tensor must have rank {2 * gfield.order_half}, got {t.ndim}"
        )
    return float(contract_all(t, u, t.ndim))
