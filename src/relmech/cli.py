"""Scenario-driven command line front end.

Subcommands
-----------
simulate CONFIG   integrate one scenario and write a trajectory CSV
check             run the seeded invariant suite, print a JSON report
boost             boost a three-velocity along the first axis
compare CONFIG    integrate the geodesic and Hamiltonian pictures from
                  matched initial data and report their divergence

Exit codes: 0 success, 1 invariant/divergence failure, 2 usage or config
error, 3 runtime integration failure.

Configs are INI files with sections scenario, manifold, potential, particle,
integrator, output (and optionally compare).  Geodesic CSV columns are
``tau,x0..x{m-1},u0..u{m-1},G``; Hamiltonian CSV columns are
``tau,x0..x{m-1},p0..p{m-1},H,HT``.  Floats are written with 17 significant
digits, which round-trips binary64 exactly.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import run_invariant_checks
from .dynamics import Trajectory, connection_from, integrate_geodesic, project_to_shell
from .errors import DomainError, ProjectiveInfinity, RelMechError, StepRejected
from .geometry import (
    CATALOG_IDS,
    GTensorField,
    MetricField,
    PotentialField,
    catalog_metric,
    coulomb_potential,
    metric_at,
    uniform_field,
    zero_potential,
)
from .hamiltonian import (
    PhaseState,
    PhaseTrajectory,
    integrate_hamiltonian,
    on_shell_momentum,
    standard_hamiltonian,
)
from .kinematics import (
    FourState,
    ThreeVelocity,
    boost_three,
    four_from_three,
    lift_three_solution,
)
from .lagrangian import LagrangianModel, three_acceleration

SCENARIO_KINDS = ("geodesic", "hamiltonian", "compare", "three_velocity")
POTENTIAL_KINDS = ("none", "uniform_field", "coulomb")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@dataclass
class ScenarioConfig:
    kind: str
    dimension: int
    metric: str
    metric_params: dict
    potential_kind: str
    potential_params: dict
    mass: float
    charge: float
    x0: np.ndarray
    u0: Optional[np.ndarray]
    v0: Optional[np.ndarray]
    sign: int
    normalize: bool
    dt: float
    steps: int
    projection: str
    csv: Optional[str]
    every: int
    compare_tolerance: float
    compare_hamiltonian_charge: Optional[float]


def _parse_floats(raw: str, key: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.split(",")])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated reals, got {raw!r}") from exc


class _Section:
    def __init__(self, cp: configparser.ConfigParser, name: str):
        self.name = name
        self.data = dict(cp[name]) if cp.has_section(name) else {}

    def raw(self, key: str, default=None):
        return self.data.get(key, default)

    def string(self, key: str, default=None, choices=None):
        val = self.data.get(key, default)
        if val is None:
            raise ConfigError(f"{self.name}.{key}: required key is missing")
        val = str(val).strip()
        if choices is not None and val not in choices:
            raise ConfigError(
                f"{self.name}.{key}: must be one of {', '.join(choices)}; got {val!r}"
            )
        return val

    def number(self, key: str, default=None, parse=float):
        val = self.data.get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        try:
            return parse(val)
        except ValueError as exc:
            raise ConfigError(f"{self.name}.{key}: not a valid number: {val!r}") from exc

    def boolean(self, key: str, default=False):
        val = self.data.get(key)
        if val is None:
            return default
        lowered = str(val).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{self.name}.{key}: not a boolean: {val!r}")

    def vector(self, key: str, length: int, default=None):
        val = self.data.get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return np.asarray(default, dtype=float)
        arr = _parse_floats(val, f"{self.name}.{key}")
        if arr.size != length:
            raise ConfigError(
                f"{self.name}.{key}: expected {length} values, got {arr.size}"
            )
        return arr


def load_config(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc

    scenario = _Section(cp, "scenario")
    manifold = _Section(cp, "manifold")
    potential = _Section(cp, "potential")
    particle = _Section(cp, "particle")
    integrator = _Section(cp, "integrator")
    output = _Section(cp, "output")
    compare = _Section(cp, "compare")

    kind = scenario.string("kind", choices=SCENARIO_KINDS)
    dim = int(manifold.number("dimension", 4, parse=float))
    if dim < 2:
        raise ConfigError("manifold.dimension: must be an integer >= 2")
    metric_id = manifold.string("metric", choices=CATALOG_IDS)

    metric_params: dict = {}
    if metric_id == "schwarzschild":
        if dim != 4:
            raise ConfigError("manifold.dimension: schwarzschild requires dimension 4")
        big_m = manifold.number("m", 1.0)
        if not big_m > 0:
            raise ConfigError("manifold.M: must be positive")
        metric_params["mass"] = big_m
    elif metric_id == "diagonal":
        metric_params["diag"] = manifold.vector("diag", dim)

    pot_kind = potential.string("kind", "none", choices=POTENTIAL_KINDS)
    pot_params: dict = {}
    if pot_kind in ("uniform_field", "coulomb") and dim != 4:
        raise ConfigError(f"potential.kind: {pot_kind} requires dimension 4")
    if pot_kind == "uniform_field":
        pot_params["E"] = potential.vector("e", 3, default=np.zeros(3))
        pot_params["B"] = potential.vector("b", 3, default=np.zeros(3))
    elif pot_kind == "coulomb":
        pot_params["q"] = potential.number("q")
        pot_params["center"] = potential.vector("center", 3, default=np.zeros(3))

    mass = particle.number("mass", 1.0)
    if not mass > 0:
        raise ConfigError("particle.mass: must be positive")
    charge = particle.number("charge", 0.0)
    x0 = particle.vector("x0", dim)

    u_raw = particle.raw("u0")
    v_raw = particle.raw("v0")
    if (u_raw is None) == (v_raw is None):
        raise ConfigError("particle.u0: exactly one of particle.u0 / particle.v0 is required")
    u0 = particle.vector("u0", dim) if u_raw is not None else None
    v0 = particle.vector("v0", dim - 1) if v_raw is not None else None
    if kind == "three_velocity" and v0 is None:
        raise ConfigError("particle.v0: three_velocity scenarios require v0")

    sign_raw = particle.raw("sign", "+1")
    try:
        sign = int(float(sign_raw))
    except ValueError as exc:
        raise ConfigError(f"particle.sign: not a number: {sign_raw!r}") from exc
    if sign not in (1, -1):
        raise ConfigError("particle.sign: must be +1 or -1")
    normalize = particle.boolean("normalize", False)

    dt = integrator.number("dt", 1e-3)
    if not dt > 0:
        raise ConfigError("integrator.dt: must be > 0")
    steps = int(integrator.number("steps", 10000, parse=float))
    if steps < 1:
        raise ConfigError("integrator.steps: must be >= 1")
    projection = integrator.string("projection", "none", choices=("none", "rescale"))

    csv = output.raw("csv")
    every = int(output.number("every", 1, parse=float))
    if every < 1:
        raise ConfigError("output.every: must be >= 1")

    tol = compare.number("tolerance", 1e-6)
    if not tol > 0:
        raise ConfigError("compare.tolerance: must be > 0")
    ham_charge = compare.raw("hamiltonian_charge")
    ham_charge = float(ham_charge) if ham_charge is not None else None

    return ScenarioConfig(
        kind=kind, dimension=dim, metric=metric_id, metric_params=metric_params,
        potential_kind=pot_kind, potential_params=pot_params,
        mass=mass, charge=charge, x0=x0, u0=u0, v0=v0, sign=sign,
        normalize=normalize, dt=dt, steps=steps, projection=projection,
        csv=csv, every=every, compare_tolerance=tol,
        compare_hamiltonian_charge=ham_charge,
    )


def build_metric(cfg: ScenarioConfig) -> MetricField:
    return catalog_metric(cfg.metric, dim=cfg.dimension,
                          mass=cfg.metric_params.get("mass", 1.0),
                          diag=cfg.metric_params.get("diag"))


def build_potential(cfg: ScenarioConfig) -> PotentialField:
    if cfg.potential_kind == "uniform_field":
        return uniform_field(cfg.potential_params["E"], cfg.potential_params["B"])
    if cfg.potential_kind == "coulomb":
        return coulomb_potential(cfg.potential_params["q"], cfg.potential_params["center"])
    return zero_potential(cfg.dimension)


def initial_state(cfg: ScenarioConfig, metric: MetricField,
                  gfield: GTensorField) -> FourState:
    try:
        metric_at(metric, cfg.x0)
    except DomainError as exc:
        raise ConfigError(f"particle.x0: outside the manifold domain ({exc})") from exc
    if cfg.u0 is not None:
        u = cfg.u0
    else:
        three = ThreeVelocity(q0=cfg.x0[0], q=cfg.x0[1:], v=cfg.v0)
        u = four_from_three(three, gfield, cfg.sign).u
    if cfg.normalize:
        u = project_to_shell(gfield, cfg.x0, u)
    return FourState(x=cfg.x0, u=u)


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    m = traj.x.shape[1]
    cols = (["tau"] + [f"x{i}" for i in range(m)]
            + [f"u{i}" for i in range(m)] + ["G"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(traj)):
            row = [traj.tau[k], *traj.x[k], *traj.u[k], traj.G[k]]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_phase_csv(traj: PhaseTrajectory, path: str) -> None:
    m = traj.x.shape[1]
    cols = (["tau"] + [f"x{i}" for i in range(m)]
            + [f"p{i}" for i in range(m)] + ["H", "HT"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(traj)):
            row = [traj.tau[k], *traj.x[k], *traj.p[k], traj.H[k], traj.HT[k]]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _run_three_velocity(cfg: ScenarioConfig, gfield: GTensorField,
                        potential: PotentialField) -> Trajectory:
    """Integrate the chart-local equation in q^0 and lift to proper time."""
    model = LagrangianModel(gfield, potential, mass=cfg.mass, charge=cfg.charge)
    q = cfg.x0[1:].astype(float)
    v = cfg.v0.astype(float)
    q0 = float(cfg.x0[0])
    h = cfg.dt
    samples = [ThreeVelocity(q0, q.copy(), v.copy())]

    def chart_state(q0_, q_, v_):
        try:
            return ThreeVelocity(q0_, q_, v_)
        except ValueError as exc:  # a non-finite entry, in a stage or a step
            raise StepRejected("non-finite chart state (last good chart "
                               f"time q^0 = {_fmt(samples[-1].q0)})") from exc

    def rhs(q0_, q_, v_):
        return v_, three_acceleration(model, chart_state(q0_, q_, v_))

    for _ in range(cfg.steps):
        k1q, k1v = rhs(q0, q, v)
        k2q, k2v = rhs(q0 + 0.5 * h, q + 0.5 * h * k1q, v + 0.5 * h * k1v)
        k3q, k3v = rhs(q0 + 0.5 * h, q + 0.5 * h * k2q, v + 0.5 * h * k2v)
        k4q, k4v = rhs(q0 + h, q + h * k3q, v + h * k3v)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        q0 += h
        samples.append(chart_state(q0, q.copy(), v.copy()))

    # lift on the full grid (best tau quadrature), then thin the records
    traj = lift_three_solution(samples, gfield, cfg.sign)
    keep = np.zeros(len(traj), dtype=bool)
    keep[::cfg.every] = True
    keep[-1] = True
    traj.tau = traj.tau[keep]
    traj.x = traj.x[keep]
    traj.u = traj.u[keep]
    traj.G = traj.G[keep]
    return traj


#: errors that end an integration; each maps to exit code 3
_INTEGRATION_ERRORS = (RelMechError, np.linalg.LinAlgError)


def _integration_failed(exc: Exception) -> int:
    tau = getattr(exc, "tau", None)
    where = f" (last good tau = {_fmt(tau)})" if tau is not None else ""
    print(f"integration failed{where}: {exc}", file=sys.stderr)
    return 3


def cmd_simulate(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
        if cfg.kind == "compare":
            raise ConfigError("scenario.kind: use the compare subcommand for compare configs")
        if cfg.csv is None:
            raise ConfigError("output.csv: required key is missing")
        metric = build_metric(cfg)
        potential = build_potential(cfg)
        gfield = GTensorField.from_metric(metric)
        if cfg.kind == "three_velocity":
            try:
                metric_at(metric, cfg.x0)
            except DomainError as exc:
                raise ConfigError(
                    f"particle.x0: outside the manifold domain ({exc})"
                ) from exc
        else:
            state = initial_state(cfg, metric, gfield)
    except (ConfigError, RelMechError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if cfg.kind == "geodesic":
            conn = connection_from(metric, potential, cfg.mass, cfg.charge)
            traj = integrate_geodesic(conn, gfield, state, cfg.dt, cfg.steps,
                                      cfg.projection, cfg.every)
            write_trajectory_csv(traj, cfg.csv)
            drift = traj.max_constraint_drift
            print(f"wrote {cfg.csv}: {len(traj)} samples, "
                  f"max |G-1| = {_fmt(drift)}")
        elif cfg.kind == "hamiltonian":
            ham = standard_hamiltonian(metric, potential, cfg.mass, cfg.charge)
            p0 = on_shell_momentum(ham, state.x, state.u)
            ptraj = integrate_hamiltonian(ham, PhaseState(state.x, p0),
                                          cfg.dt, cfg.steps, cfg.every)
            write_phase_csv(ptraj, cfg.csv)
            print(f"wrote {cfg.csv}: {len(ptraj)} samples, "
                  f"max |H_T| = {_fmt(ptraj.max_shell_drift)}")
        else:  # three_velocity
            traj = _run_three_velocity(cfg, gfield, potential)
            write_trajectory_csv(traj, cfg.csv)
            print(f"wrote {cfg.csv}: {len(traj)} samples, "
                  f"max |G-1| = {_fmt(traj.max_constraint_drift)}")
    except _INTEGRATION_ERRORS as exc:
        return _integration_failed(exc)
    return 0


def cmd_check(metric_id: str, samples: int, seed: int,
              diag: Optional[str]) -> int:
    if metric_id not in CATALOG_IDS:
        print(f"unknown metric id {metric_id!r}; expected one of "
              f"{', '.join(CATALOG_IDS)}", file=sys.stderr)
        return 2
    if samples < 1:
        print("--samples must be >= 1", file=sys.stderr)
        return 2
    diag_entries = None
    if metric_id == "diagonal":
        raw = diag if diag is not None else "1,-1,-1,-1"
        try:
            diag_entries = [float(tok) for tok in raw.split(",")]
        except ValueError:
            print(f"--diag: expected comma-separated reals, got {raw!r}",
                  file=sys.stderr)
            return 2
    try:
        report = run_invariant_checks(metric_id, samples=samples, seed=seed,
                                      diag=diag_entries)
    except (RelMechError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


def cmd_boost(alpha: float, v_raw: str) -> int:
    try:
        v = np.array([float(tok) for tok in v_raw.split(",")])
    except ValueError:
        print(f"--v: expected comma-separated reals, got {v_raw!r}", file=sys.stderr)
        return 2
    if v.size != 3:
        print(f"--v: expected 3 components, got {v.size}", file=sys.stderr)
        return 2
    try:
        out = boost_three(alpha, v)
    except ProjectiveInfinity as exc:
        print(f"boost failed: {exc}", file=sys.stderr)
        return 3
    print(",".join(_fmt(val) for val in out))
    return 0


def cmd_compare(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
        if cfg.kind != "compare":
            raise ConfigError("scenario.kind: compare subcommand needs kind = compare")
        metric = build_metric(cfg)
        potential = build_potential(cfg)
        gfield = GTensorField.from_metric(metric)
        state = initial_state(cfg, metric, gfield)
    except (ConfigError, RelMechError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    ham_charge = (cfg.compare_hamiltonian_charge
                  if cfg.compare_hamiltonian_charge is not None else cfg.charge)
    try:
        conn = connection_from(metric, potential, cfg.mass, cfg.charge)
        traj = integrate_geodesic(conn, gfield, state, cfg.dt, cfg.steps,
                                  "none", cfg.every)
        ham = standard_hamiltonian(metric, potential, cfg.mass, ham_charge)
        p0 = on_shell_momentum(ham, state.x, state.u)
        ptraj = integrate_hamiltonian(ham, PhaseState(state.x, p0),
                                      cfg.dt, cfg.steps, cfg.every)
    except _INTEGRATION_ERRORS as exc:
        return _integration_failed(exc)

    divergence = float(np.max(np.abs(traj.x - ptraj.x)))
    report = {
        "divergence": divergence,
        "tolerance": cfg.compare_tolerance,
        "geodesic_max_constraint_drift": traj.max_constraint_drift,
        "hamiltonian_max_shell_drift": ptraj.max_shell_drift,
        "samples": int(len(traj)),
        "pass": bool(divergence <= cfg.compare_tolerance),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmech",
        description="Relativistic mechanics scenarios: geodesic and "
                    "Hamiltonian integration, invariant checks, boosts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario config, write CSV")
    p_sim.add_argument("config", help="path to an INI scenario config")

    p_check = sub.add_parser("check", help="run the seeded invariant suite")
    p_check.add_argument("--metric", required=True,
                         help=f"catalog id: {', '.join(CATALOG_IDS)}")
    p_check.add_argument("--samples", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--diag", default=None,
                         help="entries for the diagonal metric, e.g. 1,-1,-1,-1")

    p_boost = sub.add_parser("boost", help="boost a three-velocity")
    p_boost.add_argument("--alpha", type=float, required=True, help="rapidity")
    p_boost.add_argument("--v", required=True, help="three-velocity v1,v2,v3")

    p_cmp = sub.add_parser("compare",
                           help="geodesic vs Hamiltonian run from matched data")
    p_cmp.add_argument("config", help="path to an INI config with kind = compare")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config)
    if args.command == "check":
        return cmd_check(args.metric, args.samples, args.seed, args.diag)
    if args.command == "boost":
        return cmd_boost(args.alpha, args.v)
    if args.command == "compare":
        return cmd_compare(args.config)
    return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
