"""Seeded cross-module invariant checks.

Each check draws pseudo-random states from a seeded generator, evaluates an
algebraic identity that must hold for all inputs, and reports the worst
residual against a pinned tolerance.  Reports are plain dictionaries so they
serialize to JSON unchanged; given the same (metric, samples, seed) the
report is fully deterministic.
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
from .errors import ConstraintUnreachable
from .geometry import (
    GTensorField,
    MetricField,
    catalog_metric,
    contract_all,
    metric_at,
    uniform_field,
    zero_potential,
)
from .hamiltonian import (
    PhaseState,
    mass_shell_scalar,
    poisson_bracket,
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


def sample_point(metric: MetricField, rng: np.random.Generator) -> np.ndarray:
    """A pseudo-random chart point inside the metric's domain."""
    if metric.catalog_id == "schwarzschild":
        big_m = metric.params.get("M", 1.0)
        return np.array([
            rng.uniform(-1.0, 1.0),
            rng.uniform(3.0 * big_m, 20.0 * big_m),
            rng.uniform(0.4, math.pi - 0.4),
            rng.uniform(0.0, 2.0 * math.pi),
        ])
    return rng.uniform(-2.0, 2.0, metric.dim)


def sample_velocity(metric: MetricField, x, rng: np.random.Generator,
                    margin: float = 0.05) -> np.ndarray:
    """A pseudo-random velocity with G(x, u) > margin.

    Components are drawn in an orthonormal frame of the (diagonal) metric
    with the first positive-signature direction boosted, then rejection
    sampled on the sign of the form.
    """
    g = metric_at(metric, x)
    d = np.diag(g)
    sig = np.sign(d)
    scale = 1.0 / np.sqrt(np.abs(d))
    k = int(np.argmax(sig > 0))
    for _ in range(200):
        n = rng.standard_normal(metric.dim)
        uhat = 0.5 * n
        uhat[k] = math.copysign(1.0 + abs(n[k]), n[k])
        if float(np.sum(sig * uhat * uhat)) > margin:
            return scale * uhat
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

    checks = []

    worst = 0.0
    for _ in range(samples):
        x = sample_point(metric, rng)
        u = sample_velocity(metric, x, rng)
        a = rng.standard_normal(dim)
        worst = max(worst, noether_residual(model, x, u, a))
    checks.append(_check_record("noether_identity", samples, worst))

    worst = 0.0
    for _ in range(samples):
        x = sample_point(metric, rng)
        u = sample_velocity(metric, x, rng)
        n2 = 2 * gfield.order_half
        gt = np.asarray(gfield.value(x), float)
        g = float(contract_all(gt, u, n2))
        c = contract_all(gt, u, n2 - 1)
        proj = np.eye(dim) - np.outer(u, c) / g
        worst = max(
            worst,
            float(np.max(np.abs(proj @ proj - proj))),
            float(np.max(np.abs(proj @ u)) / np.linalg.norm(u)),
        )
    checks.append(_check_record("projector_idempotence", samples, worst))

    worst = 0.0
    for _ in range(samples):
        x = sample_point(metric, rng)
        u = sample_velocity(metric, x, rng)
        k_free = conn_free.K(x, u)
        # conn.K(x, u) adds the soldering term to the same metric symbols
        for k in (k_free, k_free + conn.soldering(x, u)):
            res, scale = geodesic_condition_terms(metric, x, u, k)
            worst = max(worst, abs(res) / scale)
    checks.append(_check_record("geodesic_condition", samples, worst))

    worst = 0.0
    for _ in range(samples):
        x = sample_point(metric, rng)
        p = rng.standard_normal(dim)
        worst = max(worst, abs(poisson_bracket(ham, shell, PhaseState(x, p))))
    checks.append(_check_record("poisson_bracket", samples, worst))

    worst = 0.0
    for _ in range(samples):
        x = sample_point(metric, rng)
        u = project_to_shell(gfield, x, sample_velocity(metric, x, rng))
        a_geo = geodesic_rhs(conn, x, u)
        a_ham = second_order_rhs(ham, x, u)
        denom = max(float(np.max(np.abs(a_geo))), float(np.max(np.abs(a_ham))), 1e-12)
        worst = max(worst, float(np.max(np.abs(a_ham - a_geo))) / denom)
    checks.append(_check_record("lagrangian_hamiltonian_rhs", samples, worst))

    return {
        "metric": metric_id,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
    }
