"""Scenario-driven command line front end.

Subcommands
-----------
simulate CONFIG   integrate one scenario and write a trajectory CSV
check             run the seeded invariant suite, print a JSON report
boost             boost a three-velocity along the first axis
compare CONFIG    integrate the geodesic and Hamiltonian pictures from
                  matched initial data and report their divergence

Exit codes: 0 success, 1 invariant/divergence failure, 2 usage or config
error or a failed check, 3 a failed boost or integration.

Configs are INI files with sections scenario, manifold, potential, particle,
integrator, output (and optionally compare); a section or key outside
``CONFIG_KEYS`` is a config error.  Geodesic CSV columns are
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
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import run_invariant_checks
from .dynamics import (Trajectory, connection_from, integrate_geodesic,
                       project_to_shell)
from .errors import (COMPUTATION_ERRORS, DimensionMismatch, DomainError,
                     StepRejected)
from .geometry import (
    CATALOG_IDS,
    GTensorField,
    MetricField,
    PotentialField,
    catalog_metric,
    coulomb_potential,
    g_value,
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
)
from .lagrangian import LagrangianModel, integrate_three_velocity

SCENARIO_KINDS = ("geodesic", "hamiltonian", "compare", "three_velocity")
POTENTIAL_KINDS = ("none", "uniform_field", "coulomb")
#: the documented keys of each config section; any other section or key is an error
CONFIG_KEYS = {
    "scenario": ("kind",),
    "manifold": ("dimension", "metric", "M", "diag"),
    "potential": ("kind", "E", "B", "q", "center"),
    "particle": ("mass", "charge", "x0", "u0", "v0", "sign", "normalize"),
    "integrator": ("dt", "steps", "projection"),
    "output": ("csv", "every"),
    "compare": ("tolerance", "hamiltonian_charge"),
}
#: the line prefix and exit code of a subcommand whose computation fails
_FAILURES = {
    "simulate": ("integration failed", 3),
    "check": ("check failed", 2),
    "boost": ("boost failed", 3),
    "compare": ("integration failed", 3),
}


class UsageError(Exception):
    """Bad input on the command line or in a config: exit code 2."""


class ConfigError(UsageError):
    """Invalid configuration; the message names the offending key."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@dataclass
class ScenarioConfig:
    kind: str
    metric: MetricField
    potential: PotentialField
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
    compare_hamiltonian_charge: float


def _reals(raw: str, key: str, error=UsageError) -> np.ndarray:
    """Comma-separated finite reals; an error names ``key`` and the entry."""
    try:
        arr = np.array([float(tok) for tok in raw.split(",")])
    except ValueError as exc:
        raise error(f"{key}: expected comma-separated reals, got {raw!r}") from exc
    for i, val in enumerate(arr.tolist()):
        if not math.isfinite(val):
            raise error(f"{key}[{i}] = {val!r}: must be finite")
    return arr


class _Section:
    def __init__(self, cp: configparser.ConfigParser, name: str):
        self.name = name
        self.data = dict(cp[name]) if cp.has_section(name) else {}

    def raw(self, key: str, default=None):
        # configparser lowercases keys; messages keep the caller's spelling
        return self.data.get(key.lower(), default)

    def string(self, key: str, default=None, choices=None):
        val = self.raw(key, default)
        if val is None:
            raise ConfigError(f"{self.name}.{key}: required key is missing")
        val = str(val).strip()
        if choices is not None and val not in choices:
            raise ConfigError(
                f"{self.name}.{key}: must be one of {', '.join(choices)}; got {val!r}"
            )
        return val

    def number(self, key: str, default=None):
        val = self.raw(key)
        if val is None:
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        try:
            num = float(val)
        except ValueError as exc:
            raise ConfigError(f"{self.name}.{key}: not a valid number: {val!r}") from exc
        if not math.isfinite(num):
            raise ConfigError(f"{self.name}.{key}: not a finite number: {val!r}")
        return num

    def integer(self, key: str, default: int, minimum: float = -math.inf) -> int:
        """An integral number >= ``minimum``; ``1e4`` and ``4.0`` are integral."""
        val = float(self.number(key, default))
        if not val.is_integer():
            raise ConfigError(f"{self.name}.{key}: not an integer: {self.raw(key)!r}")
        if val < minimum:
            raise ConfigError(f"{self.name}.{key}: must be >= {minimum}")
        return int(val)

    def boolean(self, key: str, default=False):
        val = self.raw(key)
        if val is None:
            return default
        lowered = str(val).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{self.name}.{key}: not a boolean: {val!r}")

    def vector(self, key: str, length: int, default=None):
        val = self.raw(key)
        if val is None:
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return np.asarray(default, dtype=float)
        arr = _reals(val, f"{self.name}.{key}", ConfigError)
        if arr.size != length:
            raise ConfigError(
                f"{self.name}.{key}: expected {length} values, got {arr.size}"
            )
        return arr


def _reject_unknown_keys(cp: configparser.ConfigParser) -> None:
    """A section or key outside :data:`CONFIG_KEYS` is a config error naming it."""
    names = [cp.default_section] if cp.defaults() else []
    for name in names + cp.sections():
        if name not in CONFIG_KEYS:
            raise ConfigError(f"[{name}]: unknown section; expected one of "
                              f"{', '.join(CONFIG_KEYS)}")
        known = [key.lower() for key in CONFIG_KEYS[name]]
        for key in cp[name]:  # configparser lowercases keys
            if key not in known:
                raise ConfigError(f"{name}.{key}: unknown key; expected one of "
                                  f"{', '.join(CONFIG_KEYS[name])}")


def load_config(path: str) -> ScenarioConfig:
    """Read a scenario config and build its metric and potential.

    Raises :class:`ConfigError`, naming the key, for any invalid entry and
    for any section or key that is not documented.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:  # whose message can span lines: one line here
        raise ConfigError(f"cannot parse config file {path!r}: "
                          f"{' '.join(str(exc).split())}") from exc
    _reject_unknown_keys(cp)

    scenario = _Section(cp, "scenario")
    manifold = _Section(cp, "manifold")
    potential = _Section(cp, "potential")
    particle = _Section(cp, "particle")
    integrator = _Section(cp, "integrator")
    output = _Section(cp, "output")
    compare = _Section(cp, "compare")

    kind = scenario.string("kind", choices=SCENARIO_KINDS)
    dim = manifold.integer("dimension", 4, minimum=2)
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

    sign = particle.integer("sign", 1)
    if sign not in (1, -1):
        raise ConfigError("particle.sign: must be +1 or -1")
    normalize = particle.boolean("normalize", False)

    dt = integrator.number("dt", 1e-3)
    if not dt > 0:
        raise ConfigError("integrator.dt: must be > 0")
    steps = integrator.integer("steps", 10000, minimum=1)
    projection = integrator.string("projection", "none", choices=("none", "rescale"))

    csv = output.raw("csv")
    every = output.integer("every", 1, minimum=1)

    tol = compare.number("tolerance", 1e-6)
    if not tol > 0:
        raise ConfigError("compare.tolerance: must be > 0")
    ham_charge = compare.number("hamiltonian_charge", charge)

    # build the fields last, once x0 has the dimension's length
    metric_id = manifold.string("metric", choices=CATALOG_IDS)
    params, key = {}, "metric"
    if metric_id == "schwarzschild":
        params, key = {"mass": manifold.number("M", 1.0)}, "M"
    elif metric_id == "diagonal":
        params, key = {"diag": manifold.vector("diag", dim)}, "diag"
    try:
        metric = catalog_metric(metric_id, dim=dim, **params)
    except DimensionMismatch as exc:  # every vector's length is checked
        raise ConfigError(f"manifold.dimension: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"manifold.{key}: {exc}") from exc

    pot_kind = potential.string("kind", "none", choices=POTENTIAL_KINDS)
    if pot_kind != "none" and dim != 4:
        raise ConfigError(f"potential.kind: {pot_kind} requires dimension 4")
    if pot_kind == "uniform_field":
        field = uniform_field(potential.vector("E", 3, default=np.zeros(3)),
                              potential.vector("B", 3, default=np.zeros(3)))
    elif pot_kind == "coulomb":
        field = coulomb_potential(potential.number("q"),
                                  potential.vector("center", 3, default=np.zeros(3)))
    else:
        field = zero_potential(dim)

    return ScenarioConfig(
        kind=kind, metric=metric, potential=field,
        mass=mass, charge=charge, x0=x0, u0=u0, v0=v0, sign=sign,
        normalize=normalize, dt=dt, steps=steps, projection=projection,
        csv=csv, every=every, compare_tolerance=tol,
        compare_hamiltonian_charge=ham_charge,
    )


def initial_state(cfg: ScenarioConfig, gfield: GTensorField):
    """The start: a ThreeVelocity for a three-velocity scenario, else a FourState."""
    if cfg.u0 is not None:
        u = cfg.u0
    else:
        three = ThreeVelocity(q0=cfg.x0[0], q=cfg.x0[1:], v=cfg.v0)
        if cfg.kind == "three_velocity":
            return three
        u = four_from_three(three, gfield, cfg.sign).u
    if cfg.normalize:
        u = project_to_shell(gfield, cfg.x0, u)
    return FourState(x=cfg.x0, u=u)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    m = traj.x.shape[1]
    _write_csv(path, ["tau", *(f"x{i}" for i in range(m)),
                      *(f"u{i}" for i in range(m)), "G"],
               ([t, *x, *u, g] for t, x, u, g in
                zip(traj.tau, traj.x, traj.u, traj.G)))


def write_phase_csv(traj: PhaseTrajectory, path: str) -> None:
    m = traj.x.shape[1]
    _write_csv(path, ["tau", *(f"x{i}" for i in range(m)),
                      *(f"p{i}" for i in range(m)), "H", "HT"],
               ([t, *x, *p, h, ht] for t, x, p, h, ht in
                zip(traj.tau, traj.x, traj.p, traj.H, traj.HT)))


def _run_hamiltonian(cfg: ScenarioConfig, state: FourState,
                     charge: float) -> PhaseTrajectory:
    """Integrate the Hamilton flow from the momenta p = m g u + charge A."""
    ham = standard_hamiltonian(cfg.metric, cfg.potential, cfg.mass, charge)
    p0 = on_shell_momentum(ham, state.x, state.u)
    if not np.all(np.isfinite(p0)):
        raise StepRejected(f"the start momenta p = m g u + e A are not finite: {p0}")
    return integrate_hamiltonian(ham, PhaseState(state.x, p0),
                                 cfg.dt, cfg.steps, cfg.every)


def _configure(config_path: str, command: str):
    """Load the scenario of ``command`` (simulate or compare) and its start.

    Returns (cfg, gfield, initial_state(cfg, gfield)).
    """
    cfg = load_config(config_path)
    if command == "compare" and cfg.kind != "compare":
        raise ConfigError("scenario.kind: compare subcommand needs kind = compare")
    if command == "simulate" and cfg.kind == "compare":
        raise ConfigError("scenario.kind: use the compare subcommand for compare configs")
    if command == "simulate" and cfg.csv is None:
        raise ConfigError("output.csv: required key is missing")
    gfield = GTensorField.from_metric(cfg.metric)
    try:
        g0 = metric_at(cfg.metric, cfg.x0)
    except DomainError as exc:
        raise ConfigError(f"particle.x0: outside the manifold domain ({exc})") from exc
    if not np.all(np.isfinite(g0)):
        raise ConfigError("particle.x0: the metric is not finite at x0")
    ham_charge = cfg.compare_hamiltonian_charge if command == "compare" else 0.0
    if cfg.charge != 0.0 or ham_charge != 0.0:  # a charge-0 run never reads A
        try:
            cfg.potential.value(cfg.x0)
            cfg.potential.partials(cfg.x0)
        except DomainError as exc:
            raise ConfigError("particle.x0: outside the potential's domain "
                              f"({exc})") from exc
    # G(x0, u) of the configured velocity; a three-velocity v0 has u = (1, v0)
    key, u = (("u0", cfg.u0) if cfg.u0 is not None
              else ("v0", np.concatenate(([1.0], cfg.v0))))
    g = g_value(gfield, cfg.x0, u)
    if not 0.0 < g < math.inf:
        raise ConfigError(f"particle.{key}: G = {g:g} at x0 is not finite and "
                          "positive; the start velocity must be timelike")
    return cfg, gfield, initial_state(cfg, gfield)


def cmd_simulate(args) -> int:
    cfg, gfield, state = _configure(args.config, "simulate")
    if cfg.kind == "hamiltonian":
        traj = _run_hamiltonian(cfg, state, cfg.charge)
        write, monitor, drift = write_phase_csv, "H_T", traj.max_shell_drift
    else:
        if cfg.kind == "geodesic":
            conn = connection_from(cfg.metric, cfg.potential, cfg.mass, cfg.charge)
            traj = integrate_geodesic(conn, gfield, state, cfg.dt, cfg.steps,
                                      cfg.projection, cfg.every)
        else:  # three_velocity
            model = LagrangianModel(gfield, cfg.potential, cfg.mass, cfg.charge)
            traj = integrate_three_velocity(model, state, cfg.dt, cfg.steps,
                                            cfg.sign, cfg.every)
        write, monitor, drift = (write_trajectory_csv, "G-1",
                                 traj.max_constraint_drift)

    try:
        write(traj, cfg.csv)
    except OSError as exc:
        raise ConfigError(f"output.csv: cannot write {cfg.csv!r}: "
                          f"{exc.strerror or exc}") from exc
    print(f"wrote {cfg.csv}: {len(traj)} samples, max |{monitor}| = {_fmt(drift)}")
    return 0


def cmd_check(args) -> int:
    if args.metric not in CATALOG_IDS:
        raise UsageError(f"unknown metric id {args.metric!r}; expected one of "
                         f"{', '.join(CATALOG_IDS)}")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    diag = None
    if args.metric == "diagonal":
        diag = _reals(args.diag if args.diag is not None else "1,-1,-1,-1", "--diag")
    report = run_invariant_checks(args.metric, samples=args.samples,
                                  seed=args.seed, diag=diag)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


def cmd_boost(args) -> int:
    v = _reals(args.v, "--v")
    if v.size != 3:
        raise UsageError(f"--v: expected 3 components, got {v.size}")
    if not math.isfinite(args.alpha):
        raise UsageError("--alpha and --v must be finite")
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = boost_three(args.alpha, v)
    except (OverflowError, FloatingPointError) as exc:
        raise ArithmeticError(f"the boost by rapidity {_fmt(args.alpha)} "
                              "overflows a float") from exc
    print(",".join(_fmt(val) for val in out))
    return 0


def cmd_compare(args) -> int:
    cfg, gfield, state = _configure(args.config, "compare")
    conn = connection_from(cfg.metric, cfg.potential, cfg.mass, cfg.charge)
    traj = integrate_geodesic(conn, gfield, state, cfg.dt, cfg.steps,
                              "none", cfg.every)
    ptraj = _run_hamiltonian(cfg, state, cfg.compare_hamiltonian_charge)

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
    p_sim.set_defaults(run=cmd_simulate)

    p_check = sub.add_parser("check", help="run the seeded invariant suite")
    p_check.add_argument("--metric", required=True,
                         help=f"catalog id: {', '.join(CATALOG_IDS)}")
    p_check.add_argument("--samples", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--diag", default=None,
                         help="entries for the diagonal metric, e.g. 1,-1,-1,-1")
    p_check.set_defaults(run=cmd_check)

    p_boost = sub.add_parser("boost", help="boost a three-velocity")
    p_boost.add_argument("--alpha", type=float, required=True, help="rapidity")
    p_boost.add_argument("--v", required=True, help="three-velocity v1,v2,v3")
    p_boost.set_defaults(run=cmd_boost)

    p_cmp = sub.add_parser("compare",
                           help="geodesic vs Hamiltonian run from matched data")
    p_cmp.add_argument("config", help="path to an INI config with kind = compare")
    p_cmp.set_defaults(run=cmd_compare)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that reports an error and picks its
    exit code (argparse itself exits 2 on a malformed command line).

    A warning raised by a command that finishes (exit 0 or 1), such as an
    off-shell start, is printed as one ``warning: <message>`` line; an error
    exit prints only its error line.
    """
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            with np.errstate(all="ignore"):  # a non-finite result is an error line
                code = args.run(args)
        except ConfigError as exc:
            message, code = f"config error: {exc}", 2
        except UsageError as exc:
            message, code = str(exc), 2
        except COMPUTATION_ERRORS as exc:  # a computation that cannot go on
            prefix, code = _FAILURES[args.command]
            tau = getattr(exc, "tau", None)
            where = f" (last good tau = {_fmt(tau)})" if tau is not None else ""
            message = f"{prefix}{where}: {exc}"
        else:
            message = "\n".join(f"warning: {w.message}" for w in caught)
    if message:
        print(message, file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
