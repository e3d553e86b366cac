"""Seeded cross-module invariant checks.

Each check draws pseudo-random states from a seeded generator, evaluates an
algebraic identity that must hold for all inputs, and reports the worst
residual against a pinned tolerance.  Reports are plain dictionaries so they
serialize to JSON unchanged; given the same (metric, samples, seed) the
report is fully deterministic.

An identity takes its samples in blocks of up to ``_BLOCK`` (1024), and
draws each block whole, in this order: the block's points in one call,
then its velocities, then the identity's other normal draws (the
acceleration of the Noether identity, the momentum of the bracket) in one
call.  The velocities are rejection sampled in rounds: each round draws
one normal vector for every row still rejected, in row order, in one call,
so the block size is part of the random-number order and of the report.
Each identity is then evaluated on the block at once through the batched
kernels, which give every sample the bits its own evaluation would.  Each
of them reads a field of the block in one call of its float form on the
block's columns (:func:`relmech.geometry._fields_at`), and the velocity
draw reads d = g_aa the same way, so a block costs a fixed number of form
calls, whatever its size.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    connection_from,
    geodesic_condition_terms,
    geodesic_rhs,
    levi_civita_connection,
    project_to_shell,
)
from .errors import COMPUTATION_ERRORS, ConstraintUnreachable, SingularMetric
from .geometry import (
    GTensorField,
    MetricField,
    _check_point,
    _diagonal,
    _dot,
    _fields_at,
    _first_failure,
    _form_block,
    _norm,
    catalog_metric,
    contract_all,
    metric_at,
    uniform_field,
    zero_potential,
)
from .hamiltonian import (
    _bracket,
    mass_shell_scalar,
    second_order_rhs,
    standard_hamiltonian,
)
from .lagrangian import LagrangianModel, noether_residual

TOLERANCES = {
    "noether_identity": 1e-9,
    "projector_idempotence": 1e-10,
    "geodesic_condition": 1e-9,
    "poisson_bracket": 1e-12,
    "lagrangian_hamiltonian_rhs": 1e-8,
}

# fixed field strengths for the force-coupled checks; the identities hold for
# any values, these just keep magnitudes O(1)
_CHECK_E = (0.3, 0.0, 0.0)
_CHECK_B = (0.0, 0.0, 0.7)

# samples evaluated per batched call; bounds the memory a check uses
_BLOCK = 1024


def sample_point(metric: MetricField, rng: np.random.Generator) -> np.ndarray:
    """A pseudo-random chart point inside the metric's domain: one row of
    :func:`_points`."""
    return _points(metric, rng, 1)[0]


def _points(metric: MetricField, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` pseudo-random chart points (n, m) inside the metric's domain,
    drawn in one call.

    A Schwarzschild point is low + (high - low) r for r from
    ``rng.random``, which gives the bits and leaves the generator in the
    state of one scalar ``rng.uniform(low, high)`` call per coordinate.
    """
    if metric.catalog_id == "schwarzschild":
        big_m = metric.params.get("M", 1.0)
        low = np.array([-1.0, 3.0 * big_m, 0.4, 0.0])
        high = np.array([1.0, 20.0 * big_m, math.pi - 0.4, 2.0 * math.pi])
        return low + (high - low) * rng.random((n, 4))
    return rng.uniform(-2.0, 2.0, (n, metric.dim))


def sample_velocity(metric: MetricField, x, rng: np.random.Generator,
                    margin: float = 0.05) -> np.ndarray:
    """A pseudo-random velocity with G(x, u) > margin at the point ``x``, or
    at each row of a batch x (..., m).

    Components are drawn in an orthonormal frame of the metric with the
    first positive-signature direction boosted, then rejection sampled on the
    sign of the form.  A diagonal metric is its own frame, with d = g_aa
    from one call of its float form on the rows where it declares one, else
    from ``value`` at each row; any other metric takes the eigenvectors of
    ``np.linalg.eigh``.  The draw goes in rounds: each draws
    one ``rng.standard_normal`` vector for every row still rejected, in row
    order and in one call, and a row that no round accepts in 200 raises
    :class:`ConstraintUnreachable`.  A single point is a batch of one: the
    same ``standard_normal`` draws as one call per round.  Where an entry of
    d, or an eigenvalue of g, is zero (Schwarzschild's pole, for one), the
    frame has no finite scale, and the draw raises :class:`SingularMetric`
    before it draws.  Of a batch, the first row whose draw fails raises.
    """
    x = _check_point(x, metric.dim)
    u, error = _velocities(metric, x.reshape(-1, metric.dim), rng, margin)
    if error is not None:
        raise error
    return u.reshape(x.shape)


def _velocities(metric: MetricField, x: np.ndarray, rng: np.random.Generator,
                margin: float) -> tuple:
    """:func:`sample_velocity` at the points x (n, m): ``(u, error)``, where
    ``u`` holds the velocities of the rows before the first row whose draw
    fails and ``error`` is what that row raises, None if none fails.  The
    rounds draw for those rows alone."""
    block = _form_block(metric, x, ("value",))
    ds, frames, error = [], {}, None
    try:
        if block is not None:
            ds = block[0].diagonal(0, -2, -1)
        else:
            for row in x:
                g = metric_at(metric, row)
                d = _diagonal(g)
                if d is None:
                    d, frames[len(ds)] = np.linalg.eigh(g)
                ds.append(d)
    except COMPUTATION_ERRORS as exc:
        error = exc
    d = np.array(ds, dtype=float).reshape(len(ds), x.shape[-1])
    zero = _first_failure(d.all(axis=-1))
    if zero is not None:
        d, error = d[:zero], SingularMetric(f"metric is singular at x = {x[zero]}")
    n, m = d.shape
    sig = np.sign(d)
    scale = 1.0 / np.sqrt(np.abs(d))
    boost = np.argmax(sig > 0, axis=-1)
    u = np.empty((n, m))
    todo = np.arange(n)
    for _ in range(200):
        if not todo.size:
            break
        z = rng.standard_normal((todo.size, m))
        uhat = 0.5 * z
        rows, k = np.arange(todo.size), boost[todo]
        uhat[rows, k] = np.copysign(1.0 + np.abs(z[rows, k]), z[rows, k])
        keep = np.sum(sig[todo] * uhat * uhat, axis=-1) > margin
        u[todo[keep]] = scale[todo[keep]] * uhat[keep]
        todo = todo[~keep]
    if todo.size:
        n, error = int(todo[0]), ConstraintUnreachable(
            "velocity sampling failed to find G > margin")
    for i, frame in frames.items():
        if i < n:
            u[i] = frame @ u[i]
    return u[:n], error


def _check_record(name: str, samples: int, worst: float) -> dict:
    tol = TOLERANCES[name]
    return {
        "name": name,
        "samples": samples,
        "max_residual": worst,
        "tolerance": tol,
        "pass": bool(worst <= tol),
    }


def _block_residuals(identity, columns) -> list:
    """Residuals of ``identity`` on a block of drawn samples, its arguments
    stacked in ``columns``, in sample order.

    The block is evaluated in one batched call.  If that raises, or meets a
    floating-point overflow, division by zero or invalid operation, the block
    is evaluated again sample by sample: the first failing sample then
    raises, and warns, exactly as a per-sample loop would.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return np.ravel(identity(*columns)).tolist()
    except COMPUTATION_ERRORS:
        return [r for row in zip(*columns) for r in np.ravel(identity(*row)).tolist()]


def _worst(identity, draw, samples: int) -> float:
    """The largest residual of ``identity`` over ``samples`` draws.

    ``draw(n)`` draws a block of n samples and returns ``(columns,
    error)``: the identity's arguments, stacked, for the samples before the
    first whose draw fails, and what that draw raises, None if none fails.
    ``identity`` takes the arguments of one sample or of a block.  The
    samples drawn before a failing one are evaluated first, so a failure
    among them raises first.  NaN residuals are passed over, as
    ``max(worst, r)`` does.
    """
    worst = 0.0
    for start in range(0, samples, _BLOCK):
        columns, error = draw(min(_BLOCK, samples - start))
        if len(columns[0]):
            worst = max(worst, *_block_residuals(identity, columns))
        if error is not None:
            raise error
    return worst


def run_invariant_checks(metric_id: str, samples: int = 1000, seed: int = 0,
                         diag: Optional[Sequence[float]] = None) -> dict:
    """Run the invariant suite on one catalog metric.

    Checks: the reparameterization identity u . calE = 0, idempotence of the
    projector entering calE, the hyperboloid-preservation residual of the
    metric and charged connections, the bracket {H, H_T} of the standard
    Hamiltonian with its shell function, and agreement between the
    second-order Hamilton reduction and the geodesic right-hand side.
    """
    metric = catalog_metric(metric_id, diag=diag)
    rng = np.random.default_rng(seed)
    dim = metric.dim
    gfield = GTensorField.from_metric(metric)
    potential = uniform_field(_CHECK_E, _CHECK_B) if dim == 4 else zero_potential(dim)
    model = LagrangianModel(gfield, potential, mass=1.0, charge=1.0)
    ham = standard_hamiltonian(metric, potential, mass=1.0, charge=1.0)
    shell = mass_shell_scalar(ham)
    conn = connection_from(metric, potential, mass=1.0, charge=1.0)
    conn_free = levi_civita_connection(metric)

    def state(n):
        x = _points(metric, rng, n)
        u, error = _velocities(metric, x, rng, 0.05)
        return [x[:len(u)], u], error

    def state_and_normal(n):
        columns, error = state(n)
        return columns + [rng.standard_normal((len(columns[1]), dim))], error

    def phase_point(n):
        return [_points(metric, rng, n), rng.standard_normal((n, dim))], None

    def projector(x, u):
        n2 = 2 * gfield.order_half
        gt = _fields_at(gfield, x, "value")[0]
        g = contract_all(gt, u, n2)
        c = contract_all(gt, u, n2 - 1)
        # np.outer(u, c) / g, for each sample
        proj = np.eye(dim) - u[..., :, None] * c[..., None, :] / g[..., None, None]
        return np.stack([np.max(np.abs(proj @ proj - proj), axis=(-2, -1)),
                         np.max(np.abs(_dot(proj, u)), axis=-1) / _norm(u)], axis=-1)

    def geodesic_condition(x, u):
        k_free = conn_free.K(x, u)
        # conn.K(x, u) adds the soldering term to the same metric symbols
        residuals = []
        for k in (k_free, k_free + conn.soldering(x, u)):
            res, scale = geodesic_condition_terms(metric, x, u, k)
            residuals.append(np.abs(res) / scale)
        return np.stack(residuals, axis=-1)

    def rhs_agreement(x, u):
        u = project_to_shell(gfield, x, u)
        a_geo = geodesic_rhs(conn, x, u)
        a_ham = second_order_rhs(ham, x, u)
        big = lambda a: np.max(np.abs(a), axis=-1)
        denom = np.maximum(np.maximum(big(a_geo), big(a_ham)), 1e-12)
        return big(a_ham - a_geo) / denom

    identities = [
        ("noether_identity", lambda x, u, a: noether_residual(model, x, u, a),
         state_and_normal),
        ("projector_idempotence", projector, state),
        ("geodesic_condition", geodesic_condition, state),
        ("poisson_bracket", lambda x, p: np.abs(_bracket(ham, shell, x, p)),
         phase_point),
        ("lagrangian_hamiltonian_rhs", rhs_agreement, state),
    ]
    checks = [_check_record(name, samples, _worst(identity, draw, samples))
              for name, identity, draw in identities]

    return {
        "metric": metric_id,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
    }
