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
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import run_invariant_checks
from .dynamics import (Trajectory, _rk4, connection_from, integrate_geodesic,
                       project_to_shell)
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


def initial_state(cfg: ScenarioConfig, gfield: GTensorField) -> FourState:
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


def _run_three_velocity(cfg: ScenarioConfig, start: ThreeVelocity,
                        gfield: GTensorField,
                        potential: PotentialField) -> Trajectory:
    """Integrate the chart-local equation in q^0 and lift to proper time.

    The state is (q^0, q, v).  Each step sets q^0 to the previous chart time
    plus dt, since the RK4 sum (dt/6)*6 can miss dt by one ulp.  A failure
    names the last good chart time q^0, not a proper time.
    """
    model = LagrangianModel(gfield, potential, mass=cfg.mass, charge=cfg.charge)
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
        y[0] = last.q0 + cfg.dt
        last = chart_state(y)
        return y, last, None

    y0 = np.concatenate(([last.q0], last.q, last.v))
    try:
        samples = _rk4(rhs, y0, last, cfg.dt, cfg.steps, settle)[2]
    except StepRejected as exc:  # a non-finite stage or step
        raise StepRejected("non-finite chart state (last good chart time "
                           f"q^0 = {_fmt(last.q0)})") from exc
    except DomainError as exc:
        raise DomainError(
            f"{exc} (last good chart time q^0 = {_fmt(last.q0)})"
        ) from exc

    # lift on the full grid (best tau quadrature), then thin the records
    traj = lift_three_solution(samples, gfield, cfg.sign)
    keep = np.append(np.arange(0, len(traj) - 1, cfg.every), len(traj) - 1)
    traj.tau, traj.x, traj.u, traj.G = (traj.tau[keep], traj.x[keep],
                                        traj.u[keep], traj.G[keep])
    return traj


#: errors that end an integration; each maps to exit code 3
_INTEGRATION_ERRORS = (RelMechError, np.linalg.LinAlgError)


def _integration_failed(exc: Exception) -> int:
    tau = getattr(exc, "tau", None)
    where = f" (last good tau = {_fmt(tau)})" if tau is not None else ""
    print(f"integration failed{where}: {exc}", file=sys.stderr)
    return 3


def _configure(config_path: str, command: str):
    """Load and build the scenario of ``command`` (simulate or compare).

    Returns (cfg, metric, potential, gfield, state), where ``state`` is a
    ThreeVelocity for a three-velocity scenario and a FourState otherwise;
    or None after printing a config error.
    """
    try:
        cfg = load_config(config_path)
        if command == "compare" and cfg.kind != "compare":
            raise ConfigError("scenario.kind: compare subcommand needs kind = compare")
        if command == "simulate" and cfg.kind == "compare":
            raise ConfigError("scenario.kind: use the compare subcommand for compare configs")
        if command == "simulate" and cfg.csv is None:
            raise ConfigError("output.csv: required key is missing")
        metric = build_metric(cfg)
        potential = build_potential(cfg)
        gfield = GTensorField.from_metric(metric)
        try:
            metric_at(metric, cfg.x0)
        except DomainError as exc:
            raise ConfigError(f"particle.x0: outside the manifold domain ({exc})") from exc
        if cfg.kind == "three_velocity":
            state = ThreeVelocity(cfg.x0[0], cfg.x0[1:], cfg.v0)
        else:
            state = initial_state(cfg, gfield)
    except (ConfigError, RelMechError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    return cfg, metric, potential, gfield, state


def cmd_simulate(config_path: str) -> int:
    setup = _configure(config_path, "simulate")
    if setup is None:
        return 2
    cfg, metric, potential, gfield, state = setup

    try:
        if cfg.kind == "hamiltonian":
            ham = standard_hamiltonian(metric, potential, cfg.mass, cfg.charge)
            p0 = on_shell_momentum(ham, state.x, state.u)
            traj = integrate_hamiltonian(ham, PhaseState(state.x, p0),
                                         cfg.dt, cfg.steps, cfg.every)
            write, monitor, drift = write_phase_csv, "H_T", traj.max_shell_drift
        else:
            if cfg.kind == "geodesic":
                conn = connection_from(metric, potential, cfg.mass, cfg.charge)
                traj = integrate_geodesic(conn, gfield, state, cfg.dt, cfg.steps,
                                          cfg.projection, cfg.every)
            else:  # three_velocity
                traj = _run_three_velocity(cfg, state, gfield, potential)
            write, monitor, drift = (write_trajectory_csv, "G-1",
                                     traj.max_constraint_drift)
    except _INTEGRATION_ERRORS as exc:
        return _integration_failed(exc)

    try:
        write(traj, cfg.csv)
    except OSError as exc:
        print(f"config error: output.csv: cannot write {cfg.csv!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {cfg.csv}: {len(traj)} samples, max |{monitor}| = {_fmt(drift)}")
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
    if not (math.isfinite(alpha) and np.all(np.isfinite(v))):
        print("--alpha and --v must be finite", file=sys.stderr)
        return 2
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = boost_three(alpha, v)
    except ProjectiveInfinity as exc:
        print(f"boost failed: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, FloatingPointError):
        print(f"boost failed: the boost by rapidity {_fmt(alpha)} overflows "
              "a float", file=sys.stderr)
        return 3
    print(",".join(_fmt(val) for val in out))
    return 0


def cmd_compare(config_path: str) -> int:
    setup = _configure(config_path, "compare")
    if setup is None:
        return 2
    cfg, metric, potential, gfield, state = setup

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
