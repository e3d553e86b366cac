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

Float forms.  Each catalog field is declared once, by its float form: a
function of the point that gives the field's numbers as floats.  The
integrators' RK4 stages read it, and :func:`_from_form` derives ``value``
and ``partials`` from it, so they have its bits by construction; both
carry it as ``float_form``.  A form takes one point, a row, or a block's
columns: then ``x[k]`` is the array of the block's k-th coordinates, and
each number the form gives is an array of the rows' numbers, or one
number for every row, with each row's bits (see the block reads below).
A diagonal metric's form gives ``(d, slopes)`` with g = diag(d) and
``slopes`` the (mu, a, d_mu g_aa) entries that can be nonzero, in that
index order; a potential's form gives ``(A, slopes)`` with the (lam, mu,
d_lam A_mu) entries that can be nonzero and ``A()`` the components,
computed only when called, since most stages read the slopes alone.  A
form only reads the field: it gives its numbers or raises what ``value``
and ``partials`` raise there, with their messages.  Whether g can be
inverted is for the two float stages that stand in for g^-1 to decide, the
geodesic and the Hamiltonian one: each makes the condition test of
:func:`inverse_metric_at` on d, :func:`_check_diagonal`, before it divides
by d.  A field whose ``value`` or ``partials`` was replaced declares no
form (:func:`_float_form`), nor does a G field of order N > 1, and a
``from_function`` field declares one only when both of its callables carry
the same form.

The float stages keep the force matrix they build from a form's d and
slopes in an :func:`_identity_cache`: one entry, keyed by the identity of
those objects.  The entry is one tuple (key a, key b, value), read once per
call and replaced whole, so threads that share a stage never pair one
call's key with another call's value, and it holds its key objects alive,
so no other object can take their identity.  The cache relies on two more
promises.  A form returns tuples, which nobody mutates, so an object that
is still the key holds the numbers the matrix was built from.  And a field
whose numbers do not change returns the same objects at every call: a
constant metric the same d and slopes, and ``zero_potential`` and
``uniform_field`` the same slopes, so such a field builds the matrix once
per run.  Where a form returns new objects at every call, as Schwarzschild's
and ``coulomb_potential``'s do, the stage builds the matrix at every call.
The two stages that test d skip the test, on the same promises, for the d
object that passed it last: a constant metric is tested at the first call.

The forms also serve block reads: :func:`metric_at`,
:func:`inverse_metric_at`, the connection symbols, :func:`faraday_at`,
:func:`g_value` and the batched kernels of the other modules read a batch
of points through :func:`_fields_at`, one form call for the whole batch
and every callable a reader names (a field and its partials together,
where it reads both), with the bits, the errors and the warnings of the
per-row loop :func:`_field_at`.  A block's arithmetic is numpy's on the
columns, which rounds as the floats of one row do, except where libm
computes a number: Schwarzschild's sin, cos and ``s ** 2`` go entry by
entry through Python floats (:func:`_libm`, :func:`_power`), and
``uniform_field``'s E . x is one ddot per row.  A form that cannot take
columns, as Coulomb's, raises there; that block, and a block where the
form raises or sets a floating-point flag, is read row by row.
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
    return np.stack([symmetrize(s) for s in np.asarray(t, dtype=float)])


def contract_all(t: Array, u: Array, count: int) -> Array:
    """Contract the last ``count`` axes of ``t`` with the vector ``u``, one
    :func:`_dot` per axis: ``t @ u`` for a single point.

    A batch of vectors u (..., m) pairs each row with the same leading axes
    of ``t``.
    """
    for _ in range(count):
        t = _dot(t, u)
    return t


def _dot(t: Array, u: Array) -> Array:
    """``t @ u`` for a vector ``u``, row by row for a batch u (..., m) whose
    axes lead ``t`` too.  Each row makes the BLAS call of a single point, so
    the bits match; a plain ``t @ u`` broadcasts a batch wrongly."""
    if u.ndim == 1:
        return t @ u
    if t.ndim == u.ndim:
        return (t[..., None, :] @ u[..., :, None])[..., 0, 0]
    core = (1,) * (t.ndim - u.ndim - 1) + u.shape[-1:] + (1,)
    return (t @ u.reshape(u.shape[:-1] + core))[..., 0]


def _vecmat(u: Array, t: Array) -> Array:
    """``u @ t`` for a vector ``u`` and a matrix ``t``, row by row for a
    batch, as :func:`_dot`."""
    if u.ndim == 1:
        return u @ t
    return (u[..., None, :] @ t)[..., 0, :]


def _norm(u: Array) -> Array:
    """Euclidean norm over the last axis, ``np.linalg.norm`` of each row."""
    return np.sqrt(_dot(u, u))


def _power(g, e: float) -> Array:
    """``g ** e`` by libm pow for each entry, as Python floats compute it.

    numpy's vectorised power rounds differently on some machines, so a batch
    goes entry by entry.  One value gives a numpy scalar.
    """
    if isinstance(g, float) or g.ndim == 0:
        return np.float64(float(g) ** e)
    return np.array([v ** e for v in g.ravel().tolist()]).reshape(g.shape)


def _scalar(v):
    """A float for one point, the array for a batch."""
    return float(v) if v.ndim == 0 else v


def _first_failure(ok) -> Optional[int]:
    """Flat index of the first point where ``ok`` is False, else None."""
    if ok is True or ok is np.True_:  # one point that passes, the common case
        return None
    ok = np.asarray(ok)
    if ok.all():
        return None
    return int(np.flatnonzero(~ok)[0])


def _check_point(x, dim: int, what: str = "point") -> Array:
    """``x`` as a float array of shape (dim,), or (..., dim) for a batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise DimensionMismatch(
            f"{what} must have shape ({dim},) or (..., {dim}), got {x.shape}"
        )
    return x


def _field_at(fn: FieldFn, x: Array) -> Array:
    """``fn`` at the point ``x``, or at each row of a batch x (..., m) with
    the results stacked behind the batch axes.

    Field callables take one point: a vectorised field could round
    differently from its scalar form.  This is the per-row loop of every
    field; :func:`_fields_at` reads a block through the field's float form
    instead, where it declares one.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    first = np.asarray(fn(rows[0]), dtype=float)
    out = np.empty((len(rows),) + first.shape)  # filled in place: no list of rows
    out[0] = first
    for i in range(1, len(rows)):
        value = np.asarray(fn(rows[i]), dtype=float)
        if value.shape != first.shape:
            raise DimensionMismatch(
                f"field value has shape {value.shape} at {rows[i]}, {first.shape} at {rows[0]}"
            )
        out[i] = value
    return out.reshape(x.shape[:-1] + first.shape)


def _fields_at(field, x, *names: str) -> list:
    """``_field_at(getattr(field, name), x)`` for each of ``names``, each
    "value" or "partials", with the bits, the first error and the warnings
    of that per-row loop.

    A batch x (..., m) of a field that declares a float form is read by one
    call of the form on the batch's columns (:func:`_form_block`).  Where
    that call cannot be made or fails, each callable reads the rows one by
    one: a single point, a field without a form, a form that cannot take
    columns (Coulomb's), and a batch where the form raises or sets a
    floating-point flag, so that the first row where the form fails raises
    there, and each row warns as the callables do.
    """
    x = np.asarray(x)
    m = field.dim
    outs = None
    if x.ndim > 1 and x.size and x.shape[-1] == m:
        outs = _form_block(field, x.reshape(-1, m), names)
    if outs is None:
        return [_field_at(getattr(field, name), x) for name in names]
    return [out.reshape(x.shape[:-1] + out.shape[1:]) for out in outs]


def _form_block(field, rows: Array, names) -> Optional[list]:
    """The arrays of ``field``'s callables in ``names`` at the rows (n, m),
    from one call of its float form on their columns, ``rows.T``; None where
    the field declares no form, or where that call (a potential's ``A()``
    too, where ``names`` reads the value) raises or sets a floating-point
    flag.

    The form gives each entry and slope as an array of the rows' numbers or
    as one number for every row, and each is stored whole where the
    callables put it, into zeros.  Array arithmetic rounds as the floats of
    one row do, and a form computes what numpy cannot round alike (libm's
    sin, cos and pow) entry by entry, so each row gets the callables' bits.
    """
    form = _float_form(field)
    if form is None:
        return None
    n, m = rows.shape
    potential = isinstance(field, PotentialField)
    # flat offsets within one row: slope (lam, mu) at lam * lam_step + mu *
    # mu_step, entry k at k * mu_step
    lam_step, mu_step = (m, 1) if potential else (m * m, m + 1)
    shapes = {"value": (m,) if potential else (m, m),
              "partials": (m, m) if potential else (m, m, m)}
    outs = [np.zeros((n,) + shapes[name]) for name in names]
    try:
        with np.errstate(all="raise"):
            entries, slopes = form(rows.T)
            if potential and "value" in names:
                entries = entries()
            for name, out in zip(names, outs):
                flat = out.reshape(n, -1)
                if name == "value":
                    for k, v in enumerate(entries):
                        flat[:, k * mu_step] = v
                else:
                    for lam, mu, v in slopes:
                        flat[:, lam * lam_step + mu * mu_step] = v
    except Exception:  # whatever a form that cannot take columns raises: the
        return None  # per-row loop raises or warns as the callables do
    return outs


def _libm(fn: Callable, v: Array) -> Array:
    """``fn`` of each entry of ``v`` through Python floats, as at one point:
    numpy's own sin, cos and power can round otherwise (:func:`_power`)."""
    return np.array(list(map(fn, v.tolist())))


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """A pseudo-Riemannian metric g_{mu nu}(x) on an m-dimensional chart.

    ``value(x)`` returns the symmetric m x m matrix, ``partials(x)`` the
    rank-3 array of coordinate derivatives (derivative index first).  Both
    raise :class:`DomainError` at a point outside the chart; every reader of
    the field calls one of them, so that is where the chart ends.  When a
    field is built without analytic partials, central finite differences of
    ``value`` are used.
    """

    dim: int
    value: FieldFn
    partials: FieldFn
    catalog_id: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"metric dimension must be >= 2, got {self.dim}")

    @classmethod
    def from_function(cls, dim: int, value: FieldFn,
                      partials: Optional[FieldFn] = None) -> "MetricField":
        """Wrap ``value`` and ``partials``, which raise :class:`DomainError`
        outside the chart.  Without ``partials``, central finite differences
        of ``value`` are used: the checked ``value`` is then also called at
        x +- h, so a point within a step h of the chart's edge raises from
        the partials."""
        if partials is None:
            partials = lambda x: fd_partials(value, x)
        return cls(dim, value, partials)


def minkowski(dim: int = 4) -> MetricField:
    """Flat metric of signature (+, -, ..., -)."""
    return _constant_metric([1.0] + [-1.0] * (dim - 1), "minkowski", {})


def euclidean(dim: int = 4) -> MetricField:
    """Flat metric of signature (+, +, ..., +)."""
    return _constant_metric([1.0] * dim, "euclidean", {})


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
    return _constant_metric(d.tolist(), "diagonal", {"diag": tuple(d)})


def _constant_metric(entries: list, catalog_id: str, params: dict) -> MetricField:
    """The metric diag(entries) with zero partials, whose float form
    returns the same d and slopes at every call: a float stage that tests d
    tests it at its first call alone where it passes, and raises at every
    call where :func:`inverse_metric_at` rejects d."""
    f = tuple(float(v) for v in entries), ()
    return _from_form(MetricField, len(entries), lambda x: f, catalog_id, params)


def schwarzschild(mass: float = 1.0) -> MetricField:
    """Schwarzschild metric in (t, r, theta, phi) coordinates, signature (+,-,-,-).

    The chart is restricted to r > 2M (with a small safety margin at the
    horizon); points at or below it raise :class:`DomainError`.
    """
    big_m = float(mass)
    if not big_m > 0:
        raise ValueError(f"schwarzschild mass must be positive, got {big_m!r}")
    r_min = 2.0 * big_m * (1.0 + 1e-9)
    two_m = 2.0 * big_m

    def form(x):
        r, th = x[1], x[2]
        if r.__class__ is Array:  # a block's columns; the per-row loop names
            # the first row outside the chart
            if not (r > r_min).all():
                raise DomainError(f"schwarzschild chart requires r > 2M = {2 * big_m:g}")
            s, c = _libm(math.sin, th), _libm(math.cos, th)
            ss = _power(s, 2)
        else:
            if not r > r_min:
                raise DomainError(
                    f"schwarzschild chart requires r > 2M = {2 * big_m:g}; got r = {r:g}"
                )
            r, th = float(r), float(th)  # Python floats: the same bits, sooner
            s, c = math.sin(th), math.cos(th)
            ss = s ** 2
        f = 1.0 - two_m / r
        rr = r * r
        try:
            df = two_m / rr
        except ZeroDivisionError:  # r * r underflows, for M below about 1e-154
            raise DomainError(
                f"schwarzschild chart cannot evaluate the metric at r = {r:g}: r * r underflows"
            ) from None
        r2 = -2.0 * r
        return (f, -1.0 / f, -rr, -rr * ss), (
            (1, 0, df), (1, 1, df / (f * f)), (1, 2, r2),
            (1, 3, r2 * s * s), (2, 3, r2 * r * s * c))

    return _from_form(MetricField, 4, form, "schwarzschild", {"M": big_m})


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
    """Evaluate g_{mu nu} at ``x``, or at each row of a batch x (..., m).

    Raises :class:`DomainError` outside the chart domain and
    :class:`DimensionMismatch` for a wrong-length point.
    """
    x = _check_point(x, metric.dim)
    return _fields_at(metric, x, "value")[0]


def inverse_metric_at(metric: MetricField, x) -> Array:
    """Inverse metric g^{mu nu} at ``x``, or at each row of a batch x (..., m).

    A diagonal metric (every nonzero entry on a nonzero diagonal) is inverted
    in closed form, ``diag(1 / d)``; every other metric goes through LAPACK
    and is symmetrized.  The two agree exactly on diagonal input.  A batch
    takes the closed form only when every point is diagonal; one that mixes
    the two kinds then gives its diagonal points the general path's
    results, whose later products may differ from the closed form's in the
    signs of zeros.

    Raises :class:`SingularMetric` when the metric cannot be inverted or its
    condition number (infinity norm estimate) exceeds 1e12, naming the first
    such point of a batch.  For a diagonal metric that estimate is
    ``max|d| * max|1/d|``, the same number the infinity norms give, so both
    paths reject the same metrics.
    """
    return _inverse(metric_at(metric, x), x)


def _inverse(g: Array, x) -> Array:
    """:func:`inverse_metric_at` of the metric ``g`` (m x m, or a stack of
    them) evaluated at ``x``, which names a failure."""
    d = _diagonal(g)
    if d is not None and np.count_nonzero(d) == d.size:  # cheaper than d.all()
        dinv = 1.0 / d
        _check_condition(abs(d).max(-1) * abs(dinv).max(-1), x)
        out = np.zeros(g.shape)
        out.reshape(d.shape[:-1] + (-1,))[..., ::d.shape[-1] + 1] = dinv
        return out
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        if g.ndim > 2:
            m = g.shape[-1]
            for gi, row in zip(g.reshape(-1, m, m), np.reshape(x, (-1, m))):
                _inverse(gi, row)  # raises for the first singular point
        raise SingularMetric(f"metric is singular at x = {np.asarray(x, dtype=float)}") from exc
    _check_condition(np.linalg.norm(g, np.inf, axis=(-2, -1))
                     * np.linalg.norm(inv, np.inf, axis=(-2, -1)), x)
    return 0.5 * (inv + inv.swapaxes(-1, -2))


def _diagonal(a: Array) -> Optional[Array]:
    """The diagonal of a square matrix whose nonzero entries all sit on it,
    else None.  For a stack of matrices: the diagonals, if every matrix is
    such."""
    d = a.diagonal(0, -2, -1)
    return d if np.count_nonzero(a) == np.count_nonzero(d) else None


def _check_diagonal(d: tuple, x) -> None:
    """Raise the SingularMetric that :func:`inverse_metric_at` raises at
    ``x`` for g = diag(d), with its message; return where it inverts g.
    Where an entry is zero or the sum of the |d| is not finite, g goes
    through :func:`_inverse`, which raises for every zero or non-finite
    entry; finite nonzero entries whose sum overflows pass on to the
    condition estimate max|d| / min|d|."""
    ad = list(map(abs, d))
    lo = min(ad)
    if not (lo > 0.0 and sum(ad) < math.inf):  # a sum of |d| is finite unless it is inf or nan
        _inverse(np.diag(d), x)
    cond = max(ad) * (1.0 / lo)
    if not cond < _COND_LIMIT:
        _check_condition(cond, x)


def _declare(field, form: Callable):
    """``field``, with ``form`` declared as the float form of its callables."""
    field.value.float_form = field.partials.float_form = form
    return field


def _from_form(cls, dim: int, form: Callable, *args):
    """The ``cls`` field (a metric or a potential) of dimension ``dim``
    whose float ``form`` is its one declaration: ``value`` and ``partials``
    put the form's numbers into zeros, so they have its bits and raise and
    warn where it does.  A metric's ``value`` is diag(d), a potential's the
    array of A(); ``partials`` places each slope.  ``args`` are the field's
    other constructor arguments."""
    if cls is PotentialField:
        def value(x):
            return np.array(form(x)[0](), dtype=float)

        def partials(x):
            return np.array(_scatter(form(x)[1], dim)).reshape(dim, dim)
    else:
        def value(x):
            g = np.zeros((dim, dim))
            g.reshape(-1)[::dim + 1] = form(x)[0]
            return g

        def partials(x):
            dg = np.zeros((dim, dim, dim))
            for mu, a, v in form(x)[1]:
                dg[mu, a, a] = v
            return dg
    return _declare(cls(dim, value, partials, *args), form)


def _scatter(slopes, m: int) -> list:
    """A potential form's (lam, mu, d_lam A_mu) slopes as d_lam A_mu at
    lam * m + mu of a flat list of m * m floats, zeros elsewhere."""
    da = [0.0] * (m * m)
    for lam, mu, v in slopes:
        da[lam * m + mu] = v
    return da


def _float_form(field) -> Optional[Callable]:
    """The float form that ``value`` and ``partials`` of ``field`` both
    declare, else None: replacing either callable drops it, and a wrapper
    made with ``functools.wraps`` keeps it.  A G field has a form only for
    N = 1, where G is a metric; one of higher order that carries a
    metric's callables has none."""
    if getattr(field, "order_half", 1) != 1:
        return None
    form = getattr(field.value, "float_form", None)
    return form if getattr(field.partials, "float_form", None) is form else None


def _identity_cache(build: Callable) -> Callable:
    """``build(a, b)`` behind a one-entry cache keyed by the identity of a
    and b (b is None for one key), as the float forms above describe."""
    entry = (None, None, None)

    def get(a, b=None):
        nonlocal entry
        key_a, key_b, value = entry
        if key_a is not a or key_b is not b:
            value = build(a, b)
            entry = a, b, value
        return value

    return get


def _check_condition(cond, x) -> None:
    i = _first_failure(cond < _COND_LIMIT)
    if i is not None:
        x = np.asarray(x, dtype=float)
        raise SingularMetric(
            f"metric is numerically singular at x = {x.reshape(-1, x.shape[-1])[i]} "
            f"(cond ~ {np.ravel(cond)[i]:.3e})"
        )


def _christoffel_and_inverse(metric: MetricField, x) -> tuple[Array, Array]:
    """Connection symbols and inverse metric at ``x`` (or a batch) from one
    inversion."""
    x = _check_point(x, metric.dim)
    ginv = inverse_metric_at(metric, x)
    dg = _fields_at(metric, x, "partials")[0]
    # S[mu, beta, nu] = d_mu g_{beta nu} + d_nu g_{beta mu} - d_beta g_{mu nu}
    s = dg + dg.swapaxes(-1, -3)
    s -= dg.swapaxes(-3, -2)
    del dg  # in place from here on: a batch's temporaries are large
    s = ginv[..., None, :, :] @ s  # g^{lam beta} S[mu, beta, nu], one matrix per mu
    s *= -0.5
    c = s + s.swapaxes(-1, -3)
    c *= 0.5
    return c, ginv


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
    zeros = (0.0,) * dim
    f = (lambda: zeros), ()
    return _from_form(PotentialField, dim, lambda x: f)


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

    e1, e2, e3 = ee.tolist()
    b1, b2, b3 = bb.tolist()
    # d_i A_0 = E_i, d_3 A_1 = B_2, d_1 A_2 = B_3, d_2 A_3 = B_1; a zero
    # component, -0.0 too, gives no slope
    slopes = tuple((lam, mu, v) for lam, mu, v in (
        (1, 0, e1), (1, 2, b3), (2, 0, e2), (2, 3, b1), (3, 0, e3), (3, 1, b2)) if v != 0.0)

    def components(x):
        xs = np.asarray(x[1:4])  # a point's (x^1, x^2, x^3), or a block's three columns
        e_x = float(np.dot(ee, xs)) if xs.ndim == 1 else _dot(ee, xs.T)  # one ddot per row
        return e_x, b2 * x[3], b3 * x[1], b1 * x[2]

    return _from_form(PotentialField, 4, lambda x: ((lambda: components(x)), slopes))


def coulomb_potential(charge: float, center=(0.0, 0.0, 0.0)) -> PotentialField:
    """Potential A_0 = q / |x - center| on a 4-dimensional chart."""
    q = float(charge)
    c = np.asarray(center, dtype=float)
    if c.shape != (3,):
        raise DimensionMismatch("coulomb center must have 3 components")

    c1, c2, c3 = c.tolist()

    def form(x):
        d = [x[1] - c1, x[2] - c2, x[3] - c3]
        a = np.array(d)
        rho = math.sqrt(a.dot(a))  # np.linalg.norm's bits
        if rho < 1e-12:
            raise DomainError("coulomb potential is singular at its center")
        try:
            rho3 = rho ** 3
        except OverflowError:  # as numpy's power gives it
            rho3 = math.inf
        return (lambda: (q / rho, 0.0, 0.0, 0.0)), tuple(
            (i, 0, -q * v / rho3) for i, v in enumerate(d, 1))

    return _from_form(PotentialField, 4, form)


def faraday_at(potential: PotentialField, x) -> Array:
    """Field strength F_{lam mu} = d_lam A_mu - d_mu A_lam at ``x``, or at
    each row of a batch x (..., m)."""
    x = _check_point(x, potential.dim)
    da = _fields_at(potential, x, "partials")[0]
    if da.shape[x.ndim - 1:] != (potential.dim, potential.dim):
        raise DimensionMismatch(
            f"potential partials must be {(potential.dim,) * 2}, "
            f"got {da.shape[x.ndim - 1:]}"
        )
    return da - da.swapaxes(-1, -2)


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


def g_value(gfield: GTensorField, x, u):
    """Full contraction G_{a1...a2N}(x) u^{a1} ... u^{a2N}.

    Positively homogeneous of degree 2N in ``u``.  A float for one point; an
    array for a batch of points x and vectors u, both (..., m).
    """
    x = _check_point(x, gfield.dim)
    u = _check_point(u, gfield.dim, "vector")
    if u.shape != x.shape:
        raise DimensionMismatch(f"vector shape {u.shape} differs from point shape {x.shape}")
    t = _fields_at(gfield, x, "value")[0]
    rank = t.ndim - x.ndim + 1
    if rank != 2 * gfield.order_half:
        raise DimensionMismatch(
            f"G tensor must have rank {2 * gfield.order_half}, got {rank}"
        )
    return _scalar(contract_all(t, u, rank))
