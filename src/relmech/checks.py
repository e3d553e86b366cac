"""Seeded cross-module invariant checks.

Each check draws pseudo-random states from a seeded generator, evaluates an
algebraic identity that must hold for all inputs, and reports the worst
residual against a pinned tolerance.  Reports are plain dictionaries so they
serialize to JSON unchanged; given the same (metric, samples, seed) the
report is fully deterministic.

Samples are drawn one at a time, in the order a per-sample loop would draw
them; where the metric declares a float form, each velocity is drawn in
Python floats from its d = g_aa, with the bits and the random numbers of
the numpy draw.  Each identity is then evaluated on a block of up to
``_BLOCK`` samples at once through the batched kernels, which give every
sample the bits its own evaluation would and read the block's fields
through the float forms (:func:`relmech.geometry._fields_at`).
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
    _float_form,
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
    """A pseudo-random chart point inside the metric's domain.

    A Schwarzschild point is drawn in one ``rng.random(4)`` call as
    low + (high - low) r, which gives the bits and leaves the generator in
    the state of one scalar ``rng.uniform(low, high)`` call per coordinate.
    """
    if metric.catalog_id == "schwarzschild":
        big_m = metric.params.get("M", 1.0)
        low = np.array([-1.0, 3.0 * big_m, 0.4, 0.0])
        high = np.array([1.0, 20.0 * big_m, math.pi - 0.4, 2.0 * math.pi])
        return low + (high - low) * rng.random(4)
    return rng.uniform(-2.0, 2.0, metric.dim)


def sample_velocity(metric: MetricField, x, rng: np.random.Generator,
                    margin: float = 0.05) -> np.ndarray:
    """A pseudo-random velocity with G(x, u) > margin.

    Components are drawn in an orthonormal frame of the metric with the
    first positive-signature direction boosted, then rejection sampled on the
    sign of the form.  A diagonal metric is its own frame; any other metric
    takes the eigenvectors of ``np.linalg.eigh``.

    Where the metric declares a float form, d comes from it and a draw is
    made in Python floats with the bits of the numpy draw: the same
    ``standard_normal`` calls, entrywise products, and the sum of sig u u
    left to right, as numpy sums fewer than 8 entries.  A point where d is
    not finite takes the numpy draw.  Where an entry of d, or an eigenvalue
    of g, is zero (Schwarzschild's pole, for one), the frame has no finite
    scale, and the draw raises :class:`SingularMetric`.
    """
    x = _check_point(x, metric.dim)
    form = _float_form(metric) if x.ndim == 1 and metric.dim < 8 else None
    if form is not None:
        d = form(x.tolist())[0]
        if 0.0 not in d and all(map(math.isfinite, d)):
            return _float_velocity(d, rng, margin)
    g = metric_at(metric, x)
    d = _diagonal(g)
    frame = None
    if d is None:
        d, frame = np.linalg.eigh(g)
    if not d.all():
        raise SingularMetric(f"metric is singular at x = {x}")
    sig = np.sign(d)
    scale = 1.0 / np.sqrt(np.abs(d))
    k = int(np.argmax(sig > 0))
    for _ in range(200):
        n = rng.standard_normal(metric.dim)
        uhat = 0.5 * n
        uhat[k] = math.copysign(1.0 + abs(n[k]), n[k])
        if float(np.sum(sig * uhat * uhat)) > margin:
            return scale * uhat if frame is None else frame @ (scale * uhat)
    raise ConstraintUnreachable("velocity sampling failed to find G > margin")


def _float_velocity(d: tuple, rng: np.random.Generator, margin: float) -> np.ndarray:
    """:func:`sample_velocity` for g = diag(d), d finite and nonzero, in
    Python floats."""
    sig = [1.0 if v > 0.0 else -1.0 for v in d]
    scale = [1.0 / math.sqrt(abs(v)) for v in d]
    k = sig.index(1.0) if 1.0 in sig else 0
    for _ in range(200):
        n = rng.standard_normal(len(d)).tolist()
        uhat = [0.5 * v for v in n]
        uhat[k] = math.copysign(1.0 + abs(n[k]), n[k])
        total = 0.0
        for s, v in zip(sig, uhat):
            total += s * v * v
        if total > margin:
            return np.array([c * v for c, v in zip(scale, uhat)])
    raise ConstraintUnreachable("velocity sampling failed to find G > margin")


def _check_record(name: str, samples: int, worst: float) -> dict:
    tol = TOLERANCES[name]
    return {
        "name": name,
        "samples": samples,
        "max_residual": worst,
        "tolerance": tol,
        "pass": bool(worst <= tol),
    }


def _block_residuals(identity, rows) -> list:
    """Residuals of ``identity`` on a block of drawn samples, in sample order.

    The block is evaluated in one batched call.  If that raises, or meets a
    floating-point overflow, division by zero or invalid operation, the block
    is evaluated again sample by sample: the first failing sample then
    raises, and warns, exactly as a per-sample loop would.
    """
    columns = [np.stack(column) for column in zip(*rows)]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return np.ravel(identity(*columns)).tolist()
    except COMPUTATION_ERRORS:
        return [r for row in rows for r in np.ravel(identity(*row)).tolist()]


def _worst(identity, draw, samples: int) -> float:
    """The largest residual of ``identity`` over ``samples`` draws.

    ``draw()`` returns one sample's arguments; ``identity`` takes them for
    one sample or stacked for a block.  NaN residuals are passed over, as
    ``max(worst, r)`` does.
    """
    worst = 0.0
    for start in range(0, samples, _BLOCK):
        rows = []
        try:
            for _ in range(min(_BLOCK, samples - start)):
                rows.append(draw())
        except COMPUTATION_ERRORS:
            if rows:  # a failure among the samples drawn before comes first
                _block_residuals(identity, rows)
            raise
        worst = max(worst, *_block_residuals(identity, rows))
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

    def state():
        x = sample_point(metric, rng)
        return x, sample_velocity(metric, x, rng)

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
         lambda: (*state(), rng.standard_normal(dim))),
        ("projector_idempotence", projector, state),
        ("geodesic_condition", geodesic_condition, state),
        ("poisson_bracket", lambda x, p: np.abs(_bracket(ham, shell, x, p)),
         lambda: (sample_point(metric, rng), rng.standard_normal(dim))),
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
