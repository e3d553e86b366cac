"""Seeded inputs and independent oracles for the benchmark workloads.

A workload is one round of operations.  Each operation is one argv for the
``relmech`` command line plus a ``verify`` callable that checks what the
command wrote.  The inputs are INI files generated here from the workload
seed; nothing in this module imports ``relmech``.  The oracles are closed
forms written out below (Schwarzschild metric, gyration, hyperbolic motion),
so they share no code path with the program they check.

Error bounds follow from the order of the methods.  The CLI integrates with
classic RK4, whose local error is O(h^5): on a rotation with rate omega the
phase slips by (h omega)^5 / 120 per step, so after N steps a quantity of
size S is off by about S N (h omega)^5 / 120.  ``rk4_bound`` takes ten times
that, plus a rounding floor of a few ulps per step.  The chart-time to
proper-time lift uses the trapezoidal rule, whose error over a span T is at
most T h^2 max|f''| / 12 (``trapezoid_bound``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

EPS = float(np.finfo(float).eps)

#: safety factor on the leading RK4 error term
RK4_SAFETY = 10.0
#: rounding allowance, in ulps of the quantity's scale per step
ULPS_PER_STEP = 4.0

#: the CLI's default ``compare.tolerance``
COMPARE_TOLERANCE = 1e-6

#: the five identities ``relmech check`` reports
CHECK_NAMES = (
    "noether_identity",
    "projector_idempotence",
    "geodesic_condition",
    "poisson_bracket",
    "lagrangian_hamiltonian_rhs",
)

WORKLOADS = ("schwarzschild_orbits", "cyclotron_dense", "three_velocity_lift",
             "invariant_check")

_SIMULATE_LINE = re.compile(
    r"^wrote (?P<csv>.+): (?P<n>\d+) samples, max \|(?:G-1|H_T)\| = (?P<drift>\S+)$")

#: CSV header of geodesic and three-velocity runs, and of Hamiltonian runs
TRAJECTORY_COLUMNS = ["tau"] + [f"x{i}" for i in range(4)] + [f"u{i}" for i in range(4)] + ["G"]
PHASE_COLUMNS = ["tau"] + [f"x{i}" for i in range(4)] + [f"p{i}" for i in range(4)] + ["H", "HT"]


def rk4_bound(scale: float, steps: int, h_omega: float) -> float:
    """Error bound of an RK4 solution of size ``scale`` after ``steps`` steps."""
    return scale * (RK4_SAFETY * steps * h_omega ** 5 / 120.0
                    + ULPS_PER_STEP * steps * EPS)


def rounding_bound(scale: float, steps: int) -> float:
    """Bound for a quantity the method keeps exactly, up to rounding."""
    return scale * ULPS_PER_STEP * steps * EPS


def trapezoid_bound(span: float, h: float, max_f2: float) -> float:
    """Composite trapezoidal rule error over ``span`` with step ``h``."""
    return span * h * h * max_f2 / 12.0


@dataclass
class Outcome:
    """What one CLI call returned."""

    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Verdict:
    """Result of checking one operation's outputs against its oracles."""

    failures: List[str] = field(default_factory=list)
    samples: int = 0
    drift: float = 0.0
    oracle_ratio: float = 0.0
    divergence: float = 0.0
    check_ratio: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def within(self, what: str, err: float, bound: float) -> None:
        """Record ``err`` against its oracle bound."""
        err = float(err)
        ratio = err / bound if math.isfinite(err) else math.inf
        self.oracle_ratio = max(self.oracle_ratio, ratio)
        self.require(err <= bound, f"{what}: error {err:.3e} exceeds bound {bound:.3e}")


@dataclass
class Op:
    """One operation: a CLI argv and the oracle for its outputs.

    ``steps`` counts integrator steps (geodesic, Hamiltonian and chart-time
    steps alike); ``geodesic_steps`` and ``hamiltonian_steps`` split them
    for the traced run's per-step times.  A probe feeds malformed input and
    passes when the CLI rejects it with a documented exit code.
    """

    name: str
    argv: List[str]
    verify: Callable[[Outcome], Verdict]
    steps: int = 0
    geodesic_steps: int = 0
    hamiltonian_steps: int = 0
    csv: Optional[Path] = None
    probe: bool = False


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return ",".join(_num(c) for c in v)


def _write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _no_traceback(out: Outcome, v: Verdict) -> None:
    v.require("Traceback" not in out.stderr, "traceback on stderr")


def _expected_rows(steps: int, every: int) -> int:
    return steps // every + 1 + (1 if steps % every else 0)


def _load_csv(path: Path, columns: List[str], v: Verdict) -> Optional[np.ndarray]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        v.require(False, f"cannot read {path.name}: {exc}")
        return None
    lines = text.split("\n")
    v.require(lines[0] == ",".join(columns), f"{path.name}: unexpected header {lines[0]!r}")
    v.require(text.endswith("\n"), f"{path.name}: not newline-terminated")
    rows = [line for line in lines[1:] if line]
    data = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    v.require(data.ndim == 2 and data.shape[1] == len(columns),
              f"{path.name}: rows do not have {len(columns)} columns")
    return data if v.ok else None


def _simulate_summary(out: Outcome, csv: Path, rows: int, v: Verdict) -> None:
    """Check the exit code and the CLI's one-line summary."""
    v.require(out.rc == 0, f"exit code {out.rc}")
    _no_traceback(out, v)
    match = _SIMULATE_LINE.match(out.stdout.rstrip("\n"))
    v.require(match is not None, f"unexpected stdout {out.stdout[:120]!r}")
    if match is None:
        return
    v.require(match["csv"] == str(csv), "summary names another CSV")
    v.samples = int(match["n"])
    v.require(v.samples == rows, f"reported {v.samples} samples, expected {rows}")
    v.drift = float(match["drift"])


def _tau_grid(tau: np.ndarray, dt: float, steps: int, every: int, v: Verdict) -> None:
    ks = list(range(0, steps + 1, every))
    if ks[-1] != steps:
        ks.append(steps)
    v.require(tau.tolist() == [k * dt for k in ks], "tau column is not the step grid")


def _probe_verify(out: Outcome) -> Verdict:
    """A malformed input must end in exit 2 or 3 with a one-line message."""
    v = Verdict()
    v.require(out.rc in (2, 3), f"exit code {out.rc}, expected 2 or 3")
    _no_traceback(out, v)
    message = out.stderr.rstrip("\n")
    v.require(bool(message) and "\n" not in message,
              f"expected a one-line message on stderr, got {len(out.stderr.splitlines())} lines")
    return v


# ---------------------------------------------------------------------------
# schwarzschild_orbits
# ---------------------------------------------------------------------------

SCHW_M = 1.0
SCHW_DT = 0.5
# a Hamiltonian step costs about 1.7 geodesic steps; these counts make both
# kinds of operation take about as long, so the median operation time is
# not pulled between two clusters
SCHW_STEPS = {"geodesic": 2000, "hamiltonian": 1200}
SCHW_EVERY = 20


def _schw_metric_diag(r, theta):
    """Closed-form Schwarzschild g_{mu mu} in (t, r, theta, phi)."""
    f = 1.0 - 2.0 * SCHW_M / r
    s2 = np.sin(theta) ** 2
    return f, -1.0 / f, -r * r, -r * r * s2


def _schw_norm(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    g = _schw_metric_diag(x[:, 1], x[:, 2])
    return sum(g[i] * u[:, i] ** 2 for i in range(4))


@dataclass
class _Orbit:
    label: str
    r_start: float       # apoapsis (or the circular radius)
    phi0: float
    v_phi: float         # d phi / d t at the start
    omega: float         # largest angular rate d phi / d tau along the orbit
    circular: bool


def _circular_orbit(label: str, r: float, phi0: float) -> _Orbit:
    big_m = SCHW_M
    omega_t = math.sqrt(big_m / r ** 3)
    u_t = 1.0 / math.sqrt(1.0 - 3.0 * big_m / r)
    return _Orbit(label, r, phi0, omega_t, omega_t * u_t, True)


def _eccentric_orbit(label: str, p: float, e: float, phi0: float) -> _Orbit:
    """Bound orbit with semi-latus rectum p M and eccentricity e, at apoapsis."""
    big_m = SCHW_M
    energy2 = (p - 2 - 2 * e) * (p - 2 + 2 * e) / (p * (p - 3 - e * e))
    ang = p * big_m / math.sqrt(p - 3 - e * e)
    r_a = p * big_m / (1 - e)
    r_p = p * big_m / (1 + e)
    f_a = 1.0 - 2.0 * big_m / r_a
    u_t = math.sqrt(energy2) / f_a
    u_phi = ang / r_a ** 2
    return _Orbit(label, r_a, phi0, u_phi / u_t, ang / r_p ** 2, False)


def _schw_verify_geodesic(orbit: _Orbit, csv: Path) -> Callable[[Outcome], Verdict]:
    steps = SCHW_STEPS["geodesic"]
    rows = _expected_rows(steps, SCHW_EVERY)
    bound = rk4_bound(1.0, steps, SCHW_DT * orbit.omega)

    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        _simulate_summary(out, csv, rows, v)
        data = _load_csv(csv, TRAJECTORY_COLUMNS, v) if v.ok else None
        if data is None:
            return v
        _tau_grid(data[:, 0], SCHW_DT, steps, SCHW_EVERY, v)
        x, u = data[:, 1:5], data[:, 5:9]
        r, theta = x[:, 1], x[:, 2]
        v.within("|G-1| from the closed-form metric", np.max(np.abs(_schw_norm(x, u) - 1.0)), bound)
        v.within("CLI-reported max |G-1|", v.drift, bound)
        energy = (1.0 - 2.0 * SCHW_M / r) * u[:, 0]
        ang = r * r * np.sin(theta) ** 2 * u[:, 3]
        v.within("Killing energy drift", np.max(np.abs(energy / energy[0] - 1.0)), bound)
        v.within("angular momentum drift", np.max(np.abs(ang / ang[0] - 1.0)), bound)
        v.within("theta leaves the equator", np.max(np.abs(theta - math.pi / 2)), bound)
        if orbit.circular:
            omega_t = math.sqrt(SCHW_M / orbit.r_start ** 3)
            v.within("circular radius drift", np.max(np.abs(r / orbit.r_start - 1.0)), bound)
            rate = (x[-1, 3] - x[0, 3]) / (x[-1, 0] - x[0, 0])
            v.within("d phi/d t against sqrt(M/r^3)", abs(rate / omega_t - 1.0), bound)
        return v

    return verify


def _schw_verify_hamiltonian(orbit: _Orbit, csv: Path, geodesic_csv: Path
                             ) -> Callable[[Outcome], Verdict]:
    steps = SCHW_STEPS["hamiltonian"]
    rows = _expected_rows(steps, SCHW_EVERY)
    bound = rk4_bound(1.0, steps, SCHW_DT * orbit.omega)

    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        _simulate_summary(out, csv, rows, v)
        data = _load_csv(csv, PHASE_COLUMNS, v) if v.ok else None
        geo = _load_csv(geodesic_csv, TRAJECTORY_COLUMNS, v) if data is not None else None
        if data is None or geo is None:
            return v
        _tau_grid(data[:, 0], SCHW_DT, steps, SCHW_EVERY, v)
        x, p = data[:, 1:5], data[:, 5:9]
        g = _schw_metric_diag(x[:, 1], x[:, 2])
        u = np.stack([p[:, i] / g[i] for i in range(4)], axis=1)   # m = 1
        v.within("|H_T| from the closed-form metric", np.max(np.abs(_schw_norm(x, u) - 1.0)), bound)
        v.within("H column against m/2", np.max(np.abs(2.0 * data[:, 9] - 1.0)), bound)
        v.within("CLI-reported max |H_T|", v.drift, bound)
        for i, what in ((0, "p_t"), (3, "p_phi")):
            v.within(f"{what} is a cyclic momentum", np.max(np.abs(p[:, i] - p[0, i])),
                     rounding_bound(abs(p[0, i]), steps))
        # the geodesic run is longer; its first rows share the tau grid
        v.divergence = float(np.max(np.abs(x - geo[:rows, 1:5])))
        v.within("geodesic vs Hamiltonian positions", v.divergence, COMPARE_TOLERANCE)
        return v

    return verify


def _schwarzschild_orbits(rng: np.random.Generator, work: Path) -> List[Op]:
    orbits = [
        _circular_orbit("circular-0", rng.uniform(7.0, 14.0), rng.uniform(0, 2 * math.pi)),
        _eccentric_orbit("eccentric-0", rng.uniform(10.0, 14.0), rng.uniform(0.1, 0.35),
                         rng.uniform(0, 2 * math.pi)),
        _eccentric_orbit("eccentric-1", rng.uniform(10.0, 14.0), rng.uniform(0.1, 0.35),
                         rng.uniform(0, 2 * math.pi)),
    ]
    ops = []
    for orbit in orbits:
        csvs = {}
        for kind in ("geodesic", "hamiltonian"):
            csvs[kind] = work / f"{orbit.label}.{kind}.csv"
            ini = _write_ini(work / f"{orbit.label}.{kind}.ini", {
                "scenario": {"kind": kind},
                "manifold": {"dimension": 4, "metric": "schwarzschild", "M": _num(SCHW_M)},
                "particle": {"mass": 1.0, "charge": 0.0,
                             "x0": _vec([0.0, orbit.r_start, math.pi / 2, orbit.phi0]),
                             "v0": _vec([0.0, 0.0, orbit.v_phi]), "normalize": "true"},
                "integrator": {"dt": _num(SCHW_DT), "steps": SCHW_STEPS[kind]},
                "output": {"csv": str(csvs[kind]), "every": SCHW_EVERY},
            })
            if kind == "geodesic":
                verify = _schw_verify_geodesic(orbit, csvs[kind])
            else:
                verify = _schw_verify_hamiltonian(orbit, csvs[kind], csvs["geodesic"])
            ops.append(Op(f"{orbit.label}.{kind}", ["simulate", str(ini)], verify,
                          steps=SCHW_STEPS[kind], csv=csvs[kind],
                          geodesic_steps=SCHW_STEPS[kind] if kind == "geodesic" else 0,
                          hamiltonian_steps=SCHW_STEPS[kind] if kind == "hamiltonian" else 0))
    return ops


# ---------------------------------------------------------------------------
# cyclotron_dense
# ---------------------------------------------------------------------------

CYC_DT = 0.01
CYC_STEPS = 1000


def _rotate(vec: np.ndarray, axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rotate ``vec`` (perpendicular to the unit ``axis``) by ``angle``, right-handed."""
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    return c * vec + s * np.cross(axis, vec)


@dataclass
class _Gyration:
    """Closed-form motion in a uniform magnetic field on Minkowski space.

    Under the library's convention (F_23, F_31, F_12) = (B_1, B_2, B_3) the
    geodesic equation reads du/dtau = (e/m) B x u: u_perp turns right-handed
    about B at the proper-time rate omega = e|B|/m, the radius is
    m|u_perp|/(e|B|), and u^0 and u_par stay constant.
    """

    mass: float
    charge: float
    b_field: np.ndarray
    u: np.ndarray           # initial four-velocity

    @property
    def axis(self) -> np.ndarray:
        return self.b_field / np.linalg.norm(self.b_field)

    @property
    def omega(self) -> float:
        return self.charge * float(np.linalg.norm(self.b_field)) / self.mass

    def at(self, tau: np.ndarray):
        axis, w = self.axis, self.omega
        u3 = self.u[1:]
        u_par = float(u3 @ axis) * axis
        u_perp = u3 - u_par
        phase = w * tau
        c, s = np.cos(phase)[:, None], np.sin(phase)[:, None]
        vel = u_par + _rotate(u_perp, axis, phase)
        pos = (u_par * tau[:, None]
               + (s * u_perp + (1.0 - c) * np.cross(axis, u_perp)) / w)
        x = np.column_stack([self.u[0] * tau, pos])
        u = np.column_stack([np.full_like(tau, self.u[0]), vel])
        return x, u

    def potential(self, x: np.ndarray) -> np.ndarray:
        """The documented gauge A = (E.x, B_2 x^3, B_3 x^1, B_1 x^2) with E = 0."""
        b = self.b_field
        return np.column_stack([np.zeros(len(x)), b[1] * x[:, 3], b[2] * x[:, 1], b[0] * x[:, 2]])


def _cyc_bounds(gyr: _Gyration):
    h_omega = CYC_DT * abs(gyr.omega)
    speed_perp = float(np.linalg.norm(gyr.u[1:] - (gyr.u[1:] @ gyr.axis) * gyr.axis))
    radius = speed_perp / abs(gyr.omega)
    tau_end = CYC_DT * CYC_STEPS
    pos = rk4_bound(radius, CYC_STEPS, h_omega) + rounding_bound(gyr.u[0] * tau_end, CYC_STEPS)
    vel = rk4_bound(speed_perp, CYC_STEPS, h_omega)
    shell = rk4_bound(gyr.u[0] ** 2, CYC_STEPS, h_omega)
    return pos, vel, shell


def _cyc_verify_geodesic(gyr: _Gyration, csv: Path) -> Callable[[Outcome], Verdict]:
    rows = _expected_rows(CYC_STEPS, 1)
    pos_bound, vel_bound, shell_bound = _cyc_bounds(gyr)

    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        _simulate_summary(out, csv, rows, v)
        data = _load_csv(csv, TRAJECTORY_COLUMNS, v) if v.ok else None
        if data is None:
            return v
        _tau_grid(data[:, 0], CYC_DT, CYC_STEPS, 1, v)
        x, u = data[:, 1:5], data[:, 5:9]
        x_ref, u_ref = gyr.at(data[:, 0])
        v.within("position against the gyration", np.max(np.abs(x - x_ref)), pos_bound)
        v.within("four-velocity against the gyration", np.max(np.abs(u - u_ref)), vel_bound)
        v.within("u^0 is constant", np.max(np.abs(u[:, 0] - gyr.u[0])),
                 rounding_bound(gyr.u[0], CYC_STEPS))
        u_par = u[:, 1:] @ gyr.axis
        v.within("u_par is constant", np.max(np.abs(u_par - u_par[0])), vel_bound)
        norm = u[:, 0] ** 2 - np.sum(u[:, 1:] ** 2, axis=1)
        v.within("|G-1| on Minkowski", np.max(np.abs(norm - 1.0)), shell_bound)
        v.within("CLI-reported max |G-1|", v.drift, shell_bound)
        return v

    return verify


def _cyc_verify_hamiltonian(gyr: _Gyration, csv: Path) -> Callable[[Outcome], Verdict]:
    rows = _expected_rows(CYC_STEPS, 1)
    pos_bound, vel_bound, shell_bound = _cyc_bounds(gyr)

    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        _simulate_summary(out, csv, rows, v)
        data = _load_csv(csv, PHASE_COLUMNS, v) if v.ok else None
        if data is None:
            return v
        _tau_grid(data[:, 0], CYC_DT, CYC_STEPS, 1, v)
        x, p = data[:, 1:5], data[:, 5:9]
        x_ref, u_ref = gyr.at(data[:, 0])
        kinetic = (p - gyr.charge * gyr.potential(x)) / gyr.mass
        u = kinetic * np.array([1.0, -1.0, -1.0, -1.0])
        v.within("position against the gyration", np.max(np.abs(x - x_ref)), pos_bound)
        v.within("kinetic momentum against the gyration", np.max(np.abs(u - u_ref)), vel_bound)
        v.within("|H_T| column", np.max(np.abs(data[:, 10])), shell_bound)
        v.within("CLI-reported max |H_T|", v.drift, shell_bound)
        return v

    return verify


def _cyc_verify_compare(gyr: _Gyration) -> Callable[[Outcome], Verdict]:
    _, _, shell_bound = _cyc_bounds(gyr)

    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        v.require(out.rc == 0, f"exit code {out.rc}")
        _no_traceback(out, v)
        try:
            report = json.loads(out.stdout)
        except ValueError:
            v.require(False, "compare printed no JSON report")
            return v
        v.require(report.get("pass") is True, "compare report does not pass")
        v.require(report.get("tolerance") == COMPARE_TOLERANCE, "unexpected compare tolerance")
        v.samples = int(report.get("samples", -1))
        v.require(v.samples == CYC_STEPS + 1, f"compare reported {v.samples} samples")
        v.divergence = float(report.get("divergence", math.inf))
        v.within("compare divergence", v.divergence, COMPARE_TOLERANCE)
        v.drift = max(float(report.get("geodesic_max_constraint_drift", math.inf)),
                      float(report.get("hamiltonian_max_shell_drift", math.inf)))
        v.within("compare constraint drifts", v.drift, shell_bound)
        return v

    return verify


def _singular_metric_probe(work: Path) -> Op:
    """simulate on diag = 1,-1e-13,-1,-1: the metric's condition number is 1e13."""
    ini = _write_ini(work / "probe-singular.ini", {
        "scenario": {"kind": "geodesic"},
        "manifold": {"dimension": 4, "metric": "diagonal", "diag": "1,-1e-13,-1,-1"},
        "particle": {"x0": "0,0,0,0", "v0": "0.1,0,0"},
        "integrator": {"dt": 0.01, "steps": 10},
        "output": {"csv": str(work / "probe-singular.csv"), "every": 1},
    })
    return Op("probe.singular-metric", ["simulate", str(ini)], _probe_verify, probe=True)


def _cyclotron_dense(rng: np.random.Generator, work: Path) -> List[Op]:
    ops = []
    for n in range(2):
        label = f"gyration-{n}"
        mass = rng.uniform(0.5, 2.0)
        charge = float(rng.choice([-1.0, 1.0]))
        omega = rng.uniform(0.5, 2.0)                 # e|B|/m
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        b_field = axis * omega * mass / abs(charge)
        speed = rng.uniform(0.3, 0.8)
        pitch = rng.uniform(math.radians(20), math.radians(70))
        perp = np.cross(axis, rng.standard_normal(3))
        perp /= np.linalg.norm(perp)
        v0 = speed * (math.cos(pitch) * axis + math.sin(pitch) * perp)
        gamma = 1.0 / math.sqrt(1.0 - speed * speed)
        gyr = _Gyration(mass, charge, b_field, gamma * np.concatenate(([1.0], v0)))
        sections = {
            "manifold": {"dimension": 4, "metric": "minkowski"},
            "potential": {"kind": "uniform_field", "E": "0,0,0", "B": _vec(b_field)},
            "particle": {"mass": _num(mass), "charge": _num(charge),
                         "x0": "0,0,0,0", "v0": _vec(v0)},
            "integrator": {"dt": _num(CYC_DT), "steps": CYC_STEPS},
        }
        for kind in ("geodesic", "hamiltonian"):
            csv = work / f"{label}.{kind}.csv"
            ini = _write_ini(work / f"{label}.{kind}.ini", {
                "scenario": {"kind": kind}, **sections,
                "output": {"csv": str(csv), "every": 1}})
            verify = (_cyc_verify_geodesic if kind == "geodesic"
                      else _cyc_verify_hamiltonian)(gyr, csv)
            ops.append(Op(f"{label}.{kind}", ["simulate", str(ini)], verify,
                          steps=CYC_STEPS, csv=csv,
                          geodesic_steps=CYC_STEPS if kind == "geodesic" else 0,
                          hamiltonian_steps=CYC_STEPS if kind == "hamiltonian" else 0))
        ini = _write_ini(work / f"{label}.compare.ini", {
            "scenario": {"kind": "compare"}, **sections, "output": {"every": 1}})
        ops.append(Op(f"{label}.compare", ["compare", str(ini)], _cyc_verify_compare(gyr),
                      steps=2 * CYC_STEPS, geodesic_steps=CYC_STEPS,
                      hamiltonian_steps=CYC_STEPS))
    ops.append(_singular_metric_probe(work))
    return ops


# ---------------------------------------------------------------------------
# three_velocity_lift
# ---------------------------------------------------------------------------

TV_DT = 0.01
TV_STEPS = 250
TV_EVERY = 10


@dataclass
class _Hyperbolic:
    """Closed-form motion in parallel uniform E and B fields on Minkowski space.

    With the library's convention F_{i0} = E_i the force on a charge e is
    -e E, so the momentum along the field axis grows as p_par(t) = p_par(0)
    + F t with F = -e|E| in coordinate time t.  |p_perp| is constant and
    p_perp turns about the axis by e|B| tau / m, with

        tau(t) = (m / F) [asinh(p_par(t) / m_perp) - asinh(p_par(0) / m_perp)],
        m_perp = sqrt(m^2 + |p_perp|^2).
    """

    mass: float
    charge: float
    axis: np.ndarray
    e_strength: float
    b_strength: float
    p0: np.ndarray           # initial spatial momentum m u

    @property
    def force(self) -> float:
        return -self.charge * self.e_strength

    @property
    def m_perp(self) -> float:
        p_perp = self.p0 - (self.p0 @ self.axis) * self.axis
        return math.sqrt(self.mass ** 2 + float(p_perp @ p_perp))

    def at(self, t: np.ndarray):
        m, f, mp, axis = self.mass, self.force, self.m_perp, self.axis
        p_par0 = float(self.p0 @ self.axis)
        p_perp0 = self.p0 - p_par0 * axis
        p_par = p_par0 + f * t
        energy = np.sqrt(mp * mp + p_par * p_par)
        energy0 = math.sqrt(mp * mp + p_par0 * p_par0)
        tau = (m / f) * (np.arcsinh(p_par / mp) - math.asinh(p_par0 / mp))
        w = self.charge * self.b_strength / m
        phase = w * tau
        p_perp = _rotate(p_perp0, axis, phase)
        if w == 0.0:
            r_perp = np.outer(tau, p_perp0) / m
        else:
            c, s = np.cos(phase)[:, None], np.sin(phase)[:, None]
            r_perp = (s * p_perp0 + (1.0 - c) * np.cross(axis, p_perp0)) / (m * w)
        pos = np.outer((energy - energy0) / f, axis) + r_perp
        x = np.column_stack([t, pos])
        u = np.column_stack([energy, np.outer(p_par, axis) + p_perp]) / m
        return tau, x, u

    def tau_f2_max(self) -> float:
        """max |d^2/dt^2 (dtau/dt)| = m F^2 / m_perp^3 (attained at p_par = 0)."""
        return self.mass * self.force ** 2 / self.m_perp ** 3


def _tv_verify(hyp: _Hyperbolic, csv: Path) -> Callable[[Outcome], Verdict]:
    rows = _expected_rows(TV_STEPS, TV_EVERY)
    span = TV_DT * TV_STEPS
    # chart-time rates: rapidity along the axis and the gyration, both <= these
    rate = max(abs(hyp.force) / hyp.m_perp, abs(hyp.charge * hyp.b_strength) / hyp.mass)
    # the RK4 error lands on v; u = gamma (1, v) amplifies it by at most
    # 2 gamma^3, and dtau/dt = 1/gamma by at most gamma
    _, _, u_ends = hyp.at(np.array([0.0, span]))
    gamma = float(np.max(u_ends[:, 0]))      # |p_par| is largest at an end
    pos_bound = rk4_bound(span, TV_STEPS, TV_DT * rate)
    vel_bound = rk4_bound(2.0 * gamma ** 3, TV_STEPS, TV_DT * rate)
    tau_bound = (trapezoid_bound(span, TV_DT, hyp.tau_f2_max())
                 + rk4_bound(span * gamma, TV_STEPS, TV_DT * rate))
    shell_bound = rounding_bound(gamma ** 2, 4)

    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        _simulate_summary(out, csv, rows, v)
        data = _load_csv(csv, TRAJECTORY_COLUMNS, v) if v.ok else None
        if data is None:
            return v
        t = data[:, 1]
        tau_ref, x_ref, u_ref = hyp.at(t)
        v.within("chart time grid", np.max(np.abs(t - TV_DT * np.minimum(
            np.arange(rows) * TV_EVERY, TV_STEPS))), rounding_bound(span, TV_STEPS))
        v.within("tau(t) against hyperbolic motion", np.max(np.abs(data[:, 0] - tau_ref)),
                 tau_bound)
        v.within("position against hyperbolic motion", np.max(np.abs(data[:, 2:5] - x_ref[:, 1:])),
                 pos_bound)
        v.within("four-velocity against hyperbolic motion", np.max(np.abs(data[:, 5:9] - u_ref)),
                 vel_bound)
        norm = data[:, 5] ** 2 - np.sum(data[:, 6:9] ** 2, axis=1)
        v.within("|G-1| of the lifted four-velocity", np.max(np.abs(norm - 1.0)), shell_bound)
        v.within("CLI-reported max |G-1|", v.drift, shell_bound)
        return v

    return verify


def _three_velocity_lift(rng: np.random.Generator, work: Path) -> List[Op]:
    ops = []
    for n, with_b in enumerate((False, False, True, True)):
        label = f"{'eb' if with_b else 'e'}-field-{n}"
        charge = float(rng.choice([-1.0, 1.0]))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        e_strength = rng.uniform(0.3, 1.0)
        b_strength = rng.uniform(0.3, 1.0) if with_b else 0.0
        direction = rng.standard_normal(3)
        v0 = rng.uniform(0.2, 0.7) * direction / np.linalg.norm(direction)
        gamma = 1.0 / math.sqrt(1.0 - float(v0 @ v0))
        hyp = _Hyperbolic(1.0, charge, axis, e_strength, b_strength, gamma * v0)
        csv = work / f"{label}.csv"
        ini = _write_ini(work / f"{label}.ini", {
            "scenario": {"kind": "three_velocity"},
            "manifold": {"dimension": 4, "metric": "minkowski"},
            "potential": {"kind": "uniform_field", "E": _vec(e_strength * axis),
                          "B": _vec(b_strength * axis)},
            "particle": {"mass": 1.0, "charge": _num(charge), "x0": "0,0,0,0",
                         "v0": _vec(v0)},
            "integrator": {"dt": _num(TV_DT), "steps": TV_STEPS},
            "output": {"csv": str(csv), "every": TV_EVERY},
        })
        ops.append(Op(label, ["simulate", str(ini)], _tv_verify(hyp, csv),
                      steps=TV_STEPS, csv=csv))
    return ops


# ---------------------------------------------------------------------------
# invariant_check
# ---------------------------------------------------------------------------

CHECK_SAMPLES = 500


def _check_verify(metric: str, seed: int) -> Callable[[Outcome], Verdict]:
    def verify(out: Outcome) -> Verdict:
        v = Verdict()
        v.require(out.rc == 0, f"exit code {out.rc}")
        _no_traceback(out, v)
        try:
            report = json.loads(out.stdout)
        except ValueError:
            v.require(False, "check printed no JSON report")
            return v
        v.require(report.get("pass") is True, "check report does not pass")
        v.require(report.get("metric") == metric and report.get("seed") == seed
                  and report.get("samples") == CHECK_SAMPLES, "report header does not echo argv")
        checks = report.get("checks", [])
        v.require(sorted(c.get("name") for c in checks) == sorted(CHECK_NAMES),
                  f"checks present: {[c.get('name') for c in checks]}")
        for c in checks:
            name, residual, tol = c.get("name"), c.get("max_residual"), c.get("tolerance")
            v.require(c.get("samples") == CHECK_SAMPLES, f"{name}: samples {c.get('samples')}")
            numeric = isinstance(residual, float) and isinstance(tol, float)
            v.require(numeric and c.get("pass") is True and residual <= tol,
                      f"{name}: residual {residual} above {tol}")
            if numeric:
                v.check_ratio = max(v.check_ratio, residual / tol)
        v.samples = CHECK_SAMPLES * len(checks)
        return v

    return verify


def _invariant_check(rng: np.random.Generator, work: Path) -> List[Op]:
    diag = [rng.uniform(0.5, 2.0)] + [-rng.uniform(0.5, 2.0) for _ in range(3)]
    ops = []
    for metric, extra in (("minkowski", []), ("schwarzschild", []),
                          ("diagonal", ["--diag", _vec(diag)])):
        seed = int(rng.integers(0, 2 ** 31 - 1))
        argv = ["check", "--metric", metric, "--samples", str(CHECK_SAMPLES),
                "--seed", str(seed)] + extra
        ops.append(Op(f"check.{metric}", argv, _check_verify(metric, seed)))
    ops.append(Op("probe.diag-length", ["check", "--metric", "diagonal", "--diag", "1,-1,-1"],
                  _probe_verify, probe=True))
    return ops


_GENERATORS = {
    "schwarzschild_orbits": _schwarzschild_orbits,
    "cyclotron_dense": _cyclotron_dense,
    "three_velocity_lift": _three_velocity_lift,
    "invariant_check": _invariant_check,
}


def build(workload: str, seed: int, work: Path) -> List[Op]:
    """Write the inputs of one round of ``workload`` under ``work``."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return _GENERATORS[workload](rng, work)
