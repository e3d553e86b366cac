import ast
import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import relmech.cli as cli
import relmech.lagrangian as lagrangian
from relmech.checks import TOLERANCES
from relmech.cli import main
from relmech.errors import DomainError, RelMechError
from relmech.geometry import PotentialField, faraday_at

from conftest import counting_forms

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(err):
    assert "Traceback" not in err
    assert err.strip() and "\n" not in err.strip()


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FREE_GEODESIC = """
[scenario]
kind = geodesic

[manifold]
dimension = 4
metric = minkowski

[particle]
mass = 1.0
charge = 0.0
x0 = 0, 0, 0, 0
u0 = 1, 0, 0, 0

[integrator]
dt = 0.01
steps = 100

[output]
csv = {csv}
every = 10
"""

MAGNETIC_GEODESIC = """
[scenario]
kind = geodesic

[manifold]
metric = minkowski

[potential]
kind = uniform_field
B = 0, 0, 1

[particle]
mass = 1.0
charge = 1.0
x0 = 0, 0, 0, 0
v0 = 0.6, 0, 0
sign = +1

[integrator]
dt = 1e-3
steps = 2000

[output]
csv = {csv}
every = 20
"""


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(tok) for tok in line.split(",")]
                         for line in fh if line.strip()])
    return header, rows


# -- boost ------------------------------------------------------------------------

def test_boost_identity(capsys):
    code, out, _ = run_cli(capsys, "boost", "--alpha", "0", "--v", "0.1,0.2,0.3")
    assert code == 0
    npt.assert_allclose([float(t) for t in out.strip().split(",")],
                        [0.1, 0.2, 0.3])


def test_boost_derived_case(capsys):
    code, out, _ = run_cli(capsys, "boost", "--alpha",
                           "0.6931471805599453", "--v", "0,0,0")
    assert code == 0
    npt.assert_allclose([float(t) for t in out.strip().split(",")],
                        [-0.6, 0.0, 0.0], atol=1e-15)


def test_boost_light_speed_invariant(capsys):
    code, out, _ = run_cli(capsys, "boost", "--alpha", "1.3", "--v", "1,0,0")
    assert code == 0
    npt.assert_allclose([float(t) for t in out.strip().split(",")],
                        [1.0, 0.0, 0.0], atol=1e-15)


def test_boost_parse_error(capsys):
    code, _, err = run_cli(capsys, "boost", "--alpha", "1.0", "--v", "a,b,c")
    assert code == 2
    assert "--v" in err


def test_boost_projective_infinity(capsys):
    coth = 1.0 / math.tanh(LN2)
    code, _, err = run_cli(capsys, "boost", "--alpha", str(LN2),
                           "--v", f"{coth!r},0,0")
    assert code == 3
    assert "affine chart" in err


@pytest.mark.parametrize("alpha, v", [("nan", "0.1,0.2,0.3"), ("inf", "0.1,0.2,0.3"),
                                      ("-inf", "0.1,0.2,0.3"), ("0.5", "nan,0,0"),
                                      ("0.5", "0.1,inf,0")])
def test_boost_non_finite_input_exits_2(capsys, alpha, v):
    code, out, err = run_cli(capsys, "boost", f"--alpha={alpha}", "--v", v)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert "finite" in err


@pytest.mark.parametrize("alpha, v", [("800", "0.1,0.2,0.3"), ("-800", "0.1,0.2,0.3"),
                                      ("700", "1e300,0,0")])
def test_boost_overflow_exits_3(capsys, alpha, v):
    # cosh(800) overflows in math; 1e300 * sinh(700) overflows in numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "boost", f"--alpha={alpha}", "--v", v)
    assert code == 3
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("boost failed: ")


# -- simulate ------------------------------------------------------------------------

def test_simulate_free_particle(tmp_path, capsys):
    csv = str(tmp_path / "free.csv")
    cfg = write_config(tmp_path, "free.ini", FREE_GEODESIC.format(csv=csv))
    code, out, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    assert "max |G-1|" in out
    header, rows = read_csv(csv)
    assert header == ["tau", "x0", "x1", "x2", "x3",
                      "u0", "u1", "u2", "u3", "G"]
    npt.assert_array_equal(rows[:, -1], 1.0)       # G column constant one
    npt.assert_allclose(rows[:, 1], rows[:, 0], atol=1e-12)  # x0 = tau
    assert np.all(rows[:, 2:5] == 0.0)


def test_simulate_magnetic_scenario(tmp_path, capsys):
    csv = str(tmp_path / "mag.csv")
    cfg = write_config(tmp_path, "mag.ini", MAGNETIC_GEODESIC.format(csv=csv))
    code, out, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    _, rows = read_csv(csv)
    assert np.max(np.abs(rows[:, -1] - 1.0)) <= 1e-8
    npt.assert_allclose(rows[0, 5:9], [1.25, 0.75, 0.0, 0.0], rtol=1e-12)


def test_simulate_determinism(tmp_path, capsys):
    csv1 = str(tmp_path / "a.csv")
    csv2 = str(tmp_path / "b.csv")
    cfg1 = write_config(tmp_path, "a.ini", MAGNETIC_GEODESIC.format(csv=csv1))
    cfg2 = write_config(tmp_path, "b.ini", MAGNETIC_GEODESIC.format(csv=csv2))
    assert run_cli(capsys, "simulate", cfg1)[0] == 0
    assert run_cli(capsys, "simulate", cfg2)[0] == 0
    with open(csv1, "rb") as f1, open(csv2, "rb") as f2:
        assert f1.read() == f2.read()


def test_simulate_csv_round_trip_lossless(tmp_path, capsys):
    csv = str(tmp_path / "rt.csv")
    cfg = write_config(tmp_path, "rt.ini", MAGNETIC_GEODESIC.format(csv=csv))
    run_cli(capsys, "simulate", cfg)
    import relmech as rm
    mk = rm.minkowski()
    gf = rm.GTensorField.from_metric(mk)
    pot = rm.uniform_field(b_field=(0, 0, 1.0))
    conn = rm.connection_from(mk, pot, 1.0, 1.0)
    s0 = rm.four_from_three(
        rm.ThreeVelocity(0.0, np.zeros(3), np.array([0.6, 0, 0])), gf, 1)
    traj = rm.integrate_geodesic(conn, gf, s0, 1e-3, 2000, "none", 20)
    _, rows = read_csv(csv)
    npt.assert_array_equal(rows[:, 0], traj.tau)
    npt.assert_array_equal(rows[:, 1:5], traj.x)
    npt.assert_array_equal(rows[:, 5:9], traj.u)
    npt.assert_array_equal(rows[:, 9], traj.G)


def test_simulate_hamiltonian_contract(tmp_path, capsys):
    csv = str(tmp_path / "ham.csv")
    cfg = write_config(tmp_path, "ham.ini", """
[scenario]
kind = hamiltonian

[manifold]
metric = minkowski

[potential]
kind = uniform_field
B = 0, 0, 1

[particle]
mass = 1
charge = 1
x0 = 0, 0, 0, 0
u0 = 1.25, 0.75, 0, 0

[integrator]
dt = 1e-3
steps = 1000

[output]
csv = {csv}
every = 100
""".format(csv=csv))
    code, out, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    header, rows = read_csv(csv)
    assert header == ["tau", "x0", "x1", "x2", "x3",
                      "p0", "p1", "p2", "p3", "H", "HT"]
    assert np.max(np.abs(rows[:, -1])) <= 1e-8
    npt.assert_allclose(rows[:, -2], 0.5, atol=1e-10)


def test_simulate_three_velocity_scenario(tmp_path, capsys):
    csv = str(tmp_path / "three.csv")
    cfg = write_config(tmp_path, "three.ini", """
[scenario]
kind = three_velocity

[manifold]
metric = minkowski

[potential]
kind = uniform_field
B = 0, 0, 1

[particle]
mass = 1
charge = 1
x0 = 0, 0, 0, 0
v0 = 0.6, 0, 0

[integrator]
dt = 1e-3
steps = 500

[output]
csv = {csv}
every = 10
""".format(csv=csv))
    code, out, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    _, rows = read_csv(csv)
    assert np.max(np.abs(rows[:, -1] - 1.0)) <= 1e-10


def test_three_velocity_failure_reports_chart_time(tmp_path, capsys, monkeypatch):
    # a potential with NaN partials makes the first chart step non-finite;
    # the message names the last good chart time q^0, not a proper time
    nan_potential = PotentialField(4, lambda x: np.zeros(4),
                                   lambda x: np.full((4, 4), np.nan))
    monkeypatch.setattr(cli, "zero_potential", lambda dim: nan_potential)
    cfg = write_config(tmp_path, "nan.ini", """
[scenario]
kind = three_velocity

[manifold]
metric = minkowski

[particle]
charge = 1
x0 = 0.5, 0, 0, 0
v0 = 0.3, 0, 0

[integrator]
dt = 0.01
steps = 10

[output]
csv = {csv}
""".format(csv=tmp_path / "nan.csv"))
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert_one_line_error(err)
    assert "non-finite chart state (last good chart time q^0 = 0.5)" in err
    assert "tau" not in err


CHART_LIFT = """
[scenario]
kind = {kind}

[manifold]
metric = minkowski

[potential]
kind = uniform_field
E = {e}, 0, 0

[particle]
charge = -1
sign = {sign}
x0 = 0, 0, 0, 0
v0 = {v}, 0, 0

[integrator]
dt = {dt}
steps = 20

[output]
csv = {csv}
"""


def has_negative_zero(text):
    return re.search(r"(^|,)-0(,|$)", text, re.M) is not None


@pytest.mark.parametrize("kind", ["three_velocity", "geodesic", "hamiltonian"])
def test_lower_branch_writes_no_negative_zero(tmp_path, capsys, kind):
    # u = u^0 (1, v) with u^0 < 0 must not turn the zeros of v into -0
    csv = tmp_path / "lower.csv"
    cfg = write_config(tmp_path, "lower.ini", CHART_LIFT.format(
        kind=kind, e=5, sign=-1, v=0.5, dt=0.01, csv=csv))
    code, _, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    text = csv.read_text()
    assert not has_negative_zero(text)
    assert ",0,0," in text.splitlines()[1]


def test_three_velocity_leaving_timelike_region_reports_chart_time(tmp_path, capsys):
    # the first stage already has Gbar < 0: NonPositiveG names q^0 too
    cfg = write_config(tmp_path, "gbar.ini", CHART_LIFT.format(
        kind="three_velocity", e=50, sign=1, v=0.99, dt=0.1, csv=tmp_path / "gbar.csv"))
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert_one_line_error(err)
    assert err.startswith("integration failed: reduced form Gbar = ")
    assert err.rstrip().endswith("breaks down here (last good chart time q^0 = 0)")


def _reference_three_velocity(cfg, gfield, potential):
    """The three-velocity run as a hand-written loop over (q^0, q, v), before
    the shared RK4 core; kept as the reference for its outputs."""
    from relmech.errors import StepRejected
    from relmech.kinematics import ThreeVelocity, lift_three_solution
    from relmech.lagrangian import LagrangianModel, three_acceleration
    _fmt = cli._fmt

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


THREE_VELOCITY = """
[scenario]
kind = three_velocity

[manifold]
metric = minkowski

[potential]
kind = uniform_field
E = 0.3, 0.1, 0
B = 0, 0.2, 1

[particle]
charge = 1
x0 = {x0}, 0, 0, 0
v0 = 0.6, 0.1, 0

[integrator]
dt = {dt}
steps = {steps}

[output]
csv = {csv}
every = 7
"""


def _reference_run(cfg_path, potential=None):
    cfg = cli.load_config(cfg_path)
    gfield = cli.GTensorField.from_metric(cfg.metric)
    potential = potential if potential is not None else cfg.potential
    return _reference_three_velocity(cfg, gfield, potential)


@pytest.mark.parametrize("x0", ["0", "0.25"])
def test_three_velocity_matches_reference_loop(tmp_path, capsys, x0):
    # the chart time must advance by dt, not by the RK4 sum (dt/6)*6
    dt = 0.007640768989396792
    assert (dt / 6.0) * 6.0 != dt
    csv = tmp_path / "three.csv"
    cfg = write_config(tmp_path, "three.ini",
                       THREE_VELOCITY.format(x0=x0, dt=dt, steps=300, csv=csv))
    code, _, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    want = tmp_path / "want.csv"
    cli.write_trajectory_csv(_reference_run(cfg), str(want))
    assert csv.read_bytes() == want.read_bytes()


def test_three_velocity_later_failure_names_chart_time(tmp_path, capsys, monkeypatch):
    # the potential's partials turn NaN past chart time 0.3, so the run fails
    # in step 6; the message names the chart time q^0 reached by step 5
    def partials(x):
        return np.full((4, 4), np.nan if x[0] > 0.3 else 0.0)

    potential = PotentialField(4, lambda x: np.zeros(4), partials)
    cfg = write_config(tmp_path, "late.ini", THREE_VELOCITY.format(
        x0=0.25, dt=0.01, steps=100, csv=tmp_path / "late.csv"))
    with pytest.raises(Exception) as want:
        _reference_run(cfg, potential)
    assert "q^0 = 0.29" in str(want.value)

    monkeypatch.setattr(cli, "uniform_field", lambda e, b: potential)
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert_one_line_error(err)
    assert err == f"integration failed: {want.value}\n"


def test_three_velocity_domain_exit_names_chart_time(tmp_path, capsys, monkeypatch):
    # a metric whose chart ends at t = 0.3, checked where it is evaluated,
    # as the Schwarzschild chart checks r > 2M
    def value(x):
        if x[0] > 0.3:
            raise DomainError(f"t = {x[0]:g} is past the wall")
        return np.diag([1.0, -1.0, -1.0, -1.0])

    walled = cli.MetricField(4, value, lambda x: np.zeros((4, 4, 4)))
    monkeypatch.setattr(cli, "catalog_metric", lambda *args, **kwargs: walled)
    cfg = write_config(tmp_path, "wall.ini", THREE_VELOCITY.format(
        x0=0.25, dt=0.01, steps=100, csv=tmp_path / "wall.csv"))
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert_one_line_error(err)
    assert "past the wall" in err
    assert "(last good chart time q^0 = 0.29" in err
    assert "tau" not in err


def _count_chart_time_stages(tmp_path, capsys, monkeypatch):
    """Run 25 chart-time steps of THREE_VELOCITY; returns (solves of the
    generic three_acceleration, float form reads of the catalog metric)."""
    calls = [0]
    form_calls = []
    solve = lagrangian._solve_three_acceleration
    catalog_metric = cli.catalog_metric

    def counted(model, x, v):
        calls[0] += 1
        return solve(model, x, v)

    def counting_metric(*args, **kwargs):
        metric, metric_calls = counting_forms(catalog_metric(*args, **kwargs))
        form_calls.append(metric_calls)
        return metric

    monkeypatch.setattr(lagrangian, "_solve_three_acceleration", counted)
    monkeypatch.setattr(cli, "catalog_metric", counting_metric)
    cfg = write_config(tmp_path, "count.ini", THREE_VELOCITY.format(
        x0=0.25, dt=0.01, steps=25, csv=tmp_path / "count.csv"))
    code, _, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    return calls[0], sum(c["form"] for c in form_calls)


def test_three_velocity_four_accelerations_per_step(tmp_path, capsys, monkeypatch):
    # the G field keeps the metric's float form: each RK4 stage reads it
    # once, and the lift reads it once per sample in each of its two G reads
    calls, forms = _count_chart_time_stages(tmp_path, capsys, monkeypatch)
    assert (calls, forms) == (0, 4 * 25 + 2 * 26)


def test_three_velocity_generic_field_four_accelerations_per_step(tmp_path, capsys,
                                                                  monkeypatch):
    # a from_function G field declares no form: three_acceleration per stage
    monkeypatch.setattr(cli.GTensorField, "from_metric", classmethod(
        lambda cls, metric: cls.from_function(metric.dim, 1, metric.value, metric.partials)))
    calls, forms = _count_chart_time_stages(tmp_path, capsys, monkeypatch)
    assert (calls, forms) == (4 * 25, 0)


def test_cli_imports_no_private_name():
    # the front end is built on the library's public names only
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "relmech"):
            private += [f"{node.module}.{a.name}" for a in node.names
                        if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            private += [a.name for a in node.names if a.name.split(".")[0] == "relmech"
                        and any(part.startswith("_") for part in a.name.split("."))]
    assert private == []


@pytest.mark.parametrize("kind", ["geodesic", "hamiltonian", "three_velocity"])
def test_unwritable_csv_exits_2(tmp_path, capsys, kind):
    csv = tmp_path / "missing" / "out.csv"
    text = THREE_VELOCITY.replace("kind = three_velocity", f"kind = {kind}")
    cfg = write_config(tmp_path, "nodir.ini",
                       text.format(x0=0.25, dt=0.01, steps=10, csv=csv))
    code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert "output.csv" in err and str(csv) in err


def test_three_velocity_inside_horizon_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "tvbad.ini", """
[scenario]
kind = three_velocity

[manifold]
metric = schwarzschild

[particle]
x0 = 0, 1.5, 1.5707963, 0
v0 = 0, 0, 0

[output]
csv = out.csv
""")
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert "manifold domain" in err


def test_simulate_inside_horizon_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.ini", """
[scenario]
kind = geodesic

[manifold]
metric = schwarzschild
M = 1.0

[particle]
x0 = 0, 1.5, 1.5707963, 0
u0 = 1, 0, 0, 0

[output]
csv = out.csv
""")
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert "manifold domain" in err


def test_simulate_horizon_crossing_exits_3(tmp_path, capsys):
    csv = str(tmp_path / "fall.csv")
    cfg = write_config(tmp_path, "fall.ini", """
[scenario]
kind = geodesic

[manifold]
metric = schwarzschild

[particle]
x0 = 0, 3.0, 1.5707963267948966, 0
u0 = 2.0, -0.5, 0, 0
normalize = true

[integrator]
dt = 0.05
steps = 100000

[output]
csv = {csv}
""".format(csv=csv))
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert "last good tau" in err


@pytest.mark.parametrize("kind,dt,steps,every,mass,key", [
    ("warp", "0.01", "10", "1", "1", "scenario.kind"),
    ("geodesic", "0", "10", "1", "1", "integrator.dt"),
    ("geodesic", "-1", "10", "1", "1", "integrator.dt"),
    ("geodesic", "0.01", "0", "1", "1", "integrator.steps"),
    ("geodesic", "0.01", "10", "0", "1", "output.every"),
    ("geodesic", "0.01", "10", "1", "-2", "particle.mass"),
])
def test_config_validation_names_key(tmp_path, capsys, kind, dt, steps,
                                     every, mass, key):
    text = f"""
[scenario]
kind = {kind}

[manifold]
metric = minkowski

[particle]
mass = {mass}
x0 = 0, 0, 0, 0
u0 = 1, 0, 0, 0

[integrator]
dt = {dt}
steps = {steps}

[output]
csv = out.csv
every = {every}
"""
    cfg = write_config(tmp_path, "mut.ini", text)
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert key in err


def test_config_both_velocities_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "both.ini", """
[scenario]
kind = geodesic

[manifold]
metric = minkowski

[particle]
x0 = 0, 0, 0, 0
u0 = 1, 0, 0, 0
v0 = 0, 0, 0

[output]
csv = out.csv
""")
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert "particle.u0" in err


def test_config_wrong_length_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "len.ini", """
[scenario]
kind = geodesic

[manifold]
metric = minkowski

[particle]
x0 = 0, 0, 0
u0 = 1, 0, 0, 0

[output]
csv = out.csv
""")
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert "particle.x0" in err


SINGULAR_DIAGONAL = """
[scenario]
kind = {kind}

[manifold]
metric = diagonal
diag = 1, -1e-13, -1, -1

[particle]
x0 = 0, 0, 0, 0
v0 = 0.1, 0, 0

[integrator]
dt = 0.01
steps = 10

[output]
csv = {csv}
"""


@pytest.mark.parametrize("command, kind", [("simulate", "geodesic"),
                                           ("simulate", "hamiltonian"),
                                           ("compare", "compare")])
def test_singular_metric_exits_3(tmp_path, capsys, command, kind):
    # condition number 1e13: the metric inversion fails inside the run
    cfg = write_config(tmp_path, "singular.ini", SINGULAR_DIAGONAL.format(
        kind=kind, csv=tmp_path / "singular.csv"))
    code, _, err = run_cli(capsys, command, cfg)
    assert code == 3
    assert_one_line_error(err)
    assert err.startswith("integration failed")
    assert "singular" in err


def test_zero_diag_entry_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "zero.ini", SINGULAR_DIAGONAL.format(
        kind="geodesic", csv=tmp_path / "zero.csv").replace("-1e-13", "0"))
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert_one_line_error(err)
    assert err.startswith("config error") and "diag[1]" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "/nonexistent/path.ini")
    assert code == 2


OFF_SHELL_SCHWARZSCHILD = {
    "manifold.metric": "schwarzschild", "potential.kind": "none",
    "particle.x0": "0, 3, 1.5707963267948966, 0", "particle.u0": "2, -0.5, 0, 0",
    "particle.normalize": "false", "integrator.dt": "0.05",
}


@pytest.mark.parametrize("kind", ["geodesic", "hamiltonian"])
def test_off_shell_start_that_fails_prints_one_line(tmp_path, capsys, kind):
    # the run falls through the horizon; the integrator's off-shell warning
    # must not add lines before the error line
    cfg = write_scenario(tmp_path, {**OFF_SHELL_SCHWARZSCHILD, "scenario.kind": kind,
                                    "integrator.steps": "100"})
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert out == "" and escaped == []
    assert_one_line_error(err)
    assert err.startswith("integration failed")


@pytest.mark.parametrize("kind, warning", [
    ("geodesic", "warning: initial state is off the unit level set: G = "),
    ("hamiltonian", "warning: initial phase point is off the mass shell: H_T = "),
])
def test_off_shell_start_that_finishes_prints_one_warning_line(tmp_path, capsys, kind,
                                                               warning):
    cfg = write_scenario(tmp_path, {**OFF_SHELL_SCHWARZSCHILD, "scenario.kind": kind})
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 0 and escaped == []
    assert out.startswith("wrote ")
    assert err.startswith(warning) and err.count("\n") == 1


def test_metric_not_finite_at_x0_names_x0(tmp_path, capsys):
    # r = 1e300 is inside the chart, but r * r overflows the metric there
    cfg = write_scenario(tmp_path, {"manifold.metric": "schwarzschild",
                                    "potential.kind": "none",
                                    "particle.x0": "0, 1e300, 1, 0"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is a second stderr line
        code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("config error: particle.x0: ")


AT_COULOMB_CENTER = {
    "potential.kind": "coulomb", "potential.q": "1", "potential.center": "0.5, 0, 0",
    "particle.x0": "0, 0.5, 0, 0", "particle.u0": None, "particle.v0": "0.1, 0, 0",
}


@pytest.mark.parametrize("kind", ["geodesic", "hamiltonian", "three_velocity", "compare"])
def test_x0_at_the_potential_singularity_names_x0(tmp_path, capsys, kind):
    # a charged run reads A at x0 (for compare: charge or hamiltonian_charge);
    # a charge-0 run never reads A and starts there
    command = "compare" if kind == "compare" else "simulate"
    charged = [{"particle.charge": "0.5"}]
    if kind == "compare":
        charged.append({"particle.charge": "0", "compare.hamiltonian_charge": "0.5"})
    for changes in charged:
        cfg = write_scenario(tmp_path, {**AT_COULOMB_CENTER, **changes,
                                        "scenario.kind": kind})
        code, out, err = run_cli(capsys, command, cfg)
        assert (code, out) == (2, "")
        assert err == ("config error: particle.x0: outside the potential's domain "
                       "(coulomb potential is singular at its center)\n")
    cfg = write_scenario(tmp_path, {**AT_COULOMB_CENTER, "particle.charge": "0",
                                    "scenario.kind": kind})
    code, _, err = run_cli(capsys, command, cfg)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("key, named", [
    ("integrator.stpes", "config error: integrator.stpes: unknown key"),
    ("scenario.kidn", "config error: scenario.kidn: unknown key"),
    ("manifold.mass", "config error: manifold.mass: unknown key"),
    ("integratr.steps", "config error: [integratr]: unknown section"),
    ("DEFAULT.steps", "config error: [DEFAULT]: unknown section"),
])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_unknown_section_or_key_exits_2(tmp_path, capsys, key, named, command):
    cfg = write_scenario(tmp_path, {"scenario.kind": "compare" if command == "compare"
                                    else "geodesic", key: "5"})
    code, out, err = run_cli(capsys, command, cfg)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith(named)


@pytest.mark.parametrize("changes, message", [
    ({"scenario.kind": "three_velocity"},
     "particle.v0: three_velocity scenarios require v0"),
    ({"scenario.kind": "compare"},
     "scenario.kind: use the compare subcommand for compare configs"),
    ({"output.csv": None}, "output.csv: required key is missing"),
])
def test_documented_config_errors_exit_2(tmp_path, capsys, changes, message):
    # a three-velocity run given u0, a compare config under simulate, and a
    # simulate with nowhere to write
    code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, changes))
    assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("text, reason", [
    ("kind = geodesic\n[scenario]\n",
     "File contains no section headers. file: '{path}', line: 1 'kind = geodesic\\n'"),
    ("[scenario]\nkind = geodesic\n[scenario]\nkind = hamiltonian\n",
     "While reading from '{path}' [line 3]: section 'scenario' already exists"),
])
def test_unparsable_config_file_exits_2(tmp_path, capsys, text, reason):
    # configparser's own message, on one line
    path = write_config(tmp_path, "unparsable.ini", text)
    code, out, err = run_cli(capsys, "simulate", path)
    assert (code, out) == (2, "")
    assert err == f"config error: cannot parse config file {path!r}: {reason.format(path=path)}\n"


@pytest.mark.parametrize("tolerance", ["0", "-1"])
def test_compare_tolerance_not_positive_exits_2(tmp_path, capsys, tolerance):
    extra = f"\n[compare]\ntolerance = {tolerance}\n"
    cfg = write_config(tmp_path, "tol.ini", COMPARE_BASE.format(extra=extra))
    code, out, err = run_cli(capsys, "compare", cfg)
    assert (code, out, err) == (2, "", "config error: compare.tolerance: must be > 0\n")


@pytest.mark.parametrize("potential", [
    {"potential.kind": "uniform_field"},
    {"potential.kind": "coulomb", "potential.q": "1", "potential.center": None},
])
def test_potential_on_a_three_dimensional_chart_exits_2(tmp_path, capsys, potential):
    cfg = write_scenario(tmp_path, {**potential, "manifold.dimension": "3",
                                    "particle.x0": "0, 1, 1", "particle.u0": "1, 0, 0"})
    code, out, err = run_cli(capsys, "simulate", cfg)
    kind = potential["potential.kind"]
    assert (code, out, err) == (2, "", f"config error: potential.kind: {kind} requires dimension 4\n")


@pytest.mark.parametrize("kind", ["geodesic", "hamiltonian", "three_velocity", "compare"])
def test_schwarzschild_point_where_r_squared_underflows_exits_2(tmp_path, capsys, kind):
    # M = 1e-200 and r = 3e-200 lie inside the chart, but r * r underflows to
    # 0 in the metric's slope 2M / r^2: a domain error that names r
    cfg = write_scenario(tmp_path, {"scenario.kind": kind, "manifold.metric": "schwarzschild",
                                    "manifold.M": "1e-200", "potential.kind": "none",
                                    "particle.charge": "0", "particle.x0": "0, 3e-200, 1.0, 0.5",
                                    "particle.u0": None, "particle.v0": "0, 0, 0"})
    code, out, err = run_cli(capsys, "compare" if kind == "compare" else "simulate", cfg)
    assert (code, out) == (2, "")
    assert err == ("config error: particle.x0: outside the manifold domain (schwarzschild "
                   "chart cannot evaluate the metric at r = 3e-200: r * r underflows)\n")


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n")[1].split("```")[0]
    cfg = cli.load_config(write_config(tmp_path, "readme.ini", example))
    assert cfg.kind == "geodesic" and cfg.metric.catalog_id == "schwarzschild"


@pytest.mark.parametrize("changes", [
    {"scenario.kind": "geodesic"},
    {"scenario.kind": "hamiltonian"},
    {"scenario.kind": "three_velocity", "particle.u0": None, "particle.v0": "0.1, 0, 0"},
    {"scenario.kind": "geodesic", "manifold.metric": "schwarzschild", "potential.kind": "none",
     "particle.u0": None, "particle.v0": "0, 0, 0.03"},
    {"scenario.kind": "hamiltonian", "manifold.metric": "schwarzschild",
     "potential.kind": "none", "particle.u0": None, "particle.v0": "0, 0, 0.03"},
])
def test_no_negative_zero_in_csv(tmp_path, capsys, changes):
    cfg = write_scenario(tmp_path, {**changes, "output.every": "1", "integrator.steps": "50"})
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 0 and err == ""
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    tokens = [tok for line in text.splitlines()[1:] for tok in line.split(",")]
    assert not [tok for tok in tokens if tok.startswith("-") and float(tok) == 0.0]


# -- check -----------------------------------------------------------------------------

def test_check_minkowski_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--metric", "minkowski",
                           "--samples", "200", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["seed"] == 1
    names = {c["name"] for c in report["checks"]}
    assert names == {"noether_identity", "projector_idempotence",
                     "geodesic_condition", "poisson_bracket",
                     "lagrangian_hamiltonian_rhs"}
    assert all(c["pass"] for c in report["checks"])


def test_check_schwarzschild_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--metric", "schwarzschild",
                           "--samples", "200")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_unknown_metric(capsys):
    code, _, err = run_cli(capsys, "check", "--metric", "kerr")
    assert code == 2
    assert "kerr" in err


def test_check_diag_wrong_length_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "--metric", "diagonal",
                             "--diag", "1,-1,-1")
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert "4 entries" in err


def test_check_without_timelike_direction_exits_2(capsys):
    # -1,-1e-13,-1,-1 (cond 1e13) gives up in the draw, as -1,-1,-1,-1
    # does: the draw never inverts g
    for diag in ("-1,-1,-1,-1", "-1,-1e-13,-1,-1"):
        code, out, err = run_cli(capsys, "check", "--metric", "diagonal", f"--diag={diag}")
        assert code == 2
        assert out == ""
        assert_one_line_error(err)
        assert "G > margin" in err


@pytest.mark.parametrize("diag, cond", [("1e300,-1,-1,-1", "1.000e+300"),
                                        ("1,-1e-13,-1,-1", "1.000e+13")])
def test_check_singular_metric_names_first_sample(capsys, diag, cond):
    # the first geodesic-condition sample: the first point of that
    # identity's first block
    code, out, err = run_cli(capsys, "check", "--metric", "diagonal", f"--diag={diag}")
    assert code == 2
    assert out == ""
    assert err == ("check failed: metric is numerically singular at x = "
                   f"[ 1.48521689 -1.67070684 -1.03252779 -1.04369077] (cond ~ {cond})\n")


#: max_residual of each identity in ``check --samples 1025 --seed 0``: noether,
#: projector, geodesic condition, bracket, right-hand sides
CHECK_1025 = {
    "minkowski": (8.126856497197847e-16, 2.1316282072803006e-13, 1.418521295183432e-16,
                  0.0, 9.827235480284578e-16),
    "euclidean": (9.212185244831293e-16, 2.8111794841581224e-16, 1.2284458444757442e-16,
                  0.0, 3.4108284668986227e-15),
    "schwarzschild": (7.004606653748394e-17, 4.263256414560601e-13, 3.228949344525505e-16,
                      0.0, 9.0703613846979e-16),
    "diagonal": (9.05407302297526e-16, 9.947598300641403e-14, 1.6565224323322605e-16,
                 0.0, 3.2783778636548263e-15),
}


@pytest.mark.parametrize("metric", sorted(CHECK_1025))
def test_check_report_one_past_a_block(capsys, metric):
    # the report's bytes, pinned: 1025 samples are one block of 1024 and
    # one more
    extra = ["--diag=1.5,-0.75,-2,-1.25"] if metric == "diagonal" else []
    code, out, err = run_cli(capsys, "check", "--metric", metric, "--samples", "1025",
                             "--seed", "0", *extra)
    assert (code, err) == (0, "")
    names = ("noether_identity", "projector_idempotence", "geodesic_condition",
             "poisson_bracket", "lagrangian_hamiltonian_rhs")
    checks = [{"max_residual": r, "name": name, "pass": True, "samples": 1025,
               "tolerance": TOLERANCES[name]}
              for name, r in zip(names, CHECK_1025[metric])]
    report = {"checks": checks, "metric": metric, "pass": True, "samples": 1025, "seed": 0}
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("diag", ["1e308,-1e308,-1,-1", "5e-324,-5e-324,-5e-324,-5e-324"])
def test_check_arithmetic_error_exits_2(capsys, diag):
    # variational_derivative raises ArithmeticError on these: one error line
    code, out, err = run_cli(capsys, "check", "--metric", "diagonal", f"--diag={diag}",
                             "--samples", "50")
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("check failed: ")


@pytest.mark.parametrize("diag", ["1,0,-1,-1", "1,nan,-1,-1"])
def test_check_zero_or_non_finite_diag_exits_2(capsys, diag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = run_cli(capsys, "check", "--metric", "diagonal",
                                 "--diag", diag)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert "diag[1]" in err


def test_check_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "check", "--metric", "euclidean",
                             "--samples", "100", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "check", "--metric", "euclidean",
                             "--samples", "100", "--seed", "42")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


# -- compare -----------------------------------------------------------------------------

COMPARE_BASE = """
[scenario]
kind = compare

[manifold]
metric = minkowski

[potential]
kind = uniform_field
B = 0, 0, 1

[particle]
mass = 1
charge = 1
x0 = 0, 0, 0, 0
u0 = 1.25, 0.75, 0, 0

[integrator]
dt = 1e-3
steps = 2000

[output]
every = 20
{extra}
"""


def test_compare_formulations_agree(tmp_path, capsys):
    cfg = write_config(tmp_path, "cmp.ini", COMPARE_BASE.format(extra=""))
    code, out, _ = run_cli(capsys, "compare", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["divergence"] <= 1e-6


def test_compare_schwarzschild_free_fall(tmp_path, capsys):
    cfg = write_config(tmp_path, "cmps.ini", """
[scenario]
kind = compare

[manifold]
metric = schwarzschild

[particle]
mass = 1
charge = 0
x0 = 0, 10, 1.5707963267948966, 0
u0 = 1.1, -0.05, 0, 0.03
normalize = true

[integrator]
dt = 1e-3
steps = 2000

[output]
every = 20
""")
    code, out, _ = run_cli(capsys, "compare", cfg)
    assert code == 0
    assert json.loads(out)["divergence"] <= 1e-6


def test_compare_mismatched_charge_fails(tmp_path, capsys):
    extra = "\n[compare]\nhamiltonian_charge = 0.5\n"
    cfg = write_config(tmp_path, "neg.ini", COMPARE_BASE.format(extra=extra))
    code, out, _ = run_cli(capsys, "compare", cfg)
    assert code == 1
    report = json.loads(out)
    assert report["divergence"] > report["tolerance"]


# -- each input read once: non-finite reals, integers, field construction -----------

def scenario_sections(csv):
    """A valid geodesic scenario, as {section: {key: value}}."""
    return {
        "scenario": {"kind": "geodesic"},
        "manifold": {"dimension": "4", "metric": "minkowski"},
        "potential": {"kind": "uniform_field", "E": "0.1, 0, 0", "B": "0, 0, 1"},
        "particle": {"charge": "0.5", "x0": "0, 10, 1.5707963267948966, 0",
                     "u0": "1.1, 0, 0, 0.03", "normalize": "true"},
        "integrator": {"dt": "0.01", "steps": "10"},
        "output": {"csv": str(csv), "every": "5"},
    }


def ini_text(sections):
    return "\n".join(f"[{name}]\n" + "".join(f"{key} = {val}\n" for key, val in entries.items())
                     for name, entries in sections.items())


def write_scenario(tmp_path, changes):
    """The valid scenario with ``changes`` ({'section.key': value, or None to drop})."""
    sections = scenario_sections(tmp_path / "out.csv")
    for dotted, value in changes.items():
        name, key = dotted.split(".")
        entries = sections.setdefault(name, {})
        if value is None:
            entries.pop(key, None)
        else:
            entries[key] = value
    return write_config(tmp_path, "scenario.ini", ini_text(sections))


def test_scenario_sections_are_valid(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, {}))
    assert code == 0 and err == ""
    assert "3 samples" in out


@pytest.mark.parametrize("changes, named", [
    ({"particle.x0": "nan, 10, 1.5, 0"}, "particle.x0[0] = nan"),
    ({"particle.x0": "0, inf, 1.5, 0"}, "particle.x0[1] = inf"),
    ({"particle.u0": "1, -inf, 0, 0"}, "particle.u0[1] = -inf"),
    ({"particle.u0": None, "particle.v0": "0.1, nan, 0"}, "particle.v0[1] = nan"),
    ({"potential.E": "0, 0, nan"}, "potential.E[2] = nan"),
    ({"potential.B": "inf, 0, 0"}, "potential.B[0] = inf"),
    ({"potential.kind": "coulomb", "potential.q": "1", "potential.center": "0, nan, 0"},
     "potential.center[1] = nan"),
    ({"manifold.metric": "diagonal", "manifold.diag": "1, -1, nan, -1"},
     "manifold.diag[2] = nan"),
])
def test_non_finite_config_real_exits_2(tmp_path, capsys, changes, named):
    code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, changes))
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith(f"config error: {named}: ") and "finite" in err


@pytest.mark.parametrize("argv, named", [
    (["check", "--metric", "diagonal", "--diag", "1,-1,nan,-1"], "--diag[2] = nan"),
    (["check", "--metric", "diagonal", "--diag=-inf,-1,-1,-1"], "--diag[0] = -inf"),
    (["boost", "--alpha", "0.5", "--v", "0.1,inf,0"], "--v[1] = inf"),
])
def test_non_finite_argument_exits_2(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith(f"{named}: ") and "finite" in err


@pytest.mark.parametrize("key", ["integrator.steps", "output.every", "particle.sign",
                                 "manifold.dimension"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "2.7"])
def test_non_integer_exits_2(tmp_path, capsys, key, value):
    code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, {key: value}))
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith(f"config error: {key}: ")


def test_integral_spellings_are_integers(tmp_path, capsys):
    cfg = write_scenario(tmp_path, {"integrator.steps": "1e1", "output.every": "5.0",
                                    "particle.sign": "1.0", "manifold.dimension": "4.0"})
    code, out, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    assert "3 samples" in out


def test_hamiltonian_charge_not_a_number_names_key(tmp_path, capsys):
    extra = "\n[compare]\nhamiltonian_charge = abc\n"
    cfg = write_config(tmp_path, "hc.ini", COMPARE_BASE.format(extra=extra))
    code, out, err = run_cli(capsys, "compare", cfg)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("config error: compare.hamiltonian_charge: ")


@pytest.mark.parametrize("changes, key", [
    ({"manifold.metric": "schwarzschild", "manifold.M": "nan"}, "manifold.M"),
    ({"manifold.metric": "schwarzschild", "manifold.M": "-1"}, "manifold.M"),
    ({"manifold.metric": "schwarzschild", "manifold.dimension": "3", "potential.kind": "none",
      "particle.x0": "0, 10, 1", "particle.u0": "1, 0, 0"}, "manifold.dimension"),
    ({"manifold.metric": "diagonal", "manifold.diag": "1, 0, -1, -1"}, "manifold.diag"),
])
def test_field_construction_error_names_key(tmp_path, capsys, changes, key):
    code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, changes))
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith(f"config error: {key}: ")


def test_load_config_builds_the_fields(tmp_path):
    cfg = cli.load_config(write_scenario(tmp_path, {"manifold.metric": "schwarzschild",
                                                    "manifold.M": "1.5"}))
    assert cfg.metric.catalog_id == "schwarzschild" and cfg.metric.params == {"M": 1.5}
    npt.assert_array_equal(faraday_at(cfg.potential, cfg.x0)[1:, 0], [0.1, 0, 0])


# -- start state: G(x0, u) must be finite and positive, for every kind ---------------

@pytest.mark.parametrize("kind", ["geodesic", "hamiltonian", "compare"])
@pytest.mark.parametrize("u0", ["1e200, 0, 0, 0", "0, 1, 0, 0", "0, 0, 0, 0"])
def test_start_velocity_without_finite_positive_g_exits_2(tmp_path, capsys, kind, u0):
    cfg = write_scenario(tmp_path, {"scenario.kind": kind, "particle.u0": u0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is a second stderr line
        code, out, err = run_cli(capsys, "compare" if kind == "compare" else "simulate", cfg)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("config error: particle.u0: ")


@pytest.mark.parametrize("kind", ["geodesic", "three_velocity"])
def test_superluminal_start_three_velocity_exits_2(tmp_path, capsys, kind):
    cfg = write_scenario(tmp_path, {"scenario.kind": kind, "particle.u0": None,
                                    "particle.v0": "2, 0, 0"})
    code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("config error: particle.v0: ")


# -- fuzz: every input ends in a documented exit code, never in a traceback ----------

def assert_exit_contract(argv):
    """Run ``main(argv)`` in process; an argparse SystemExit gives the exit code.

    An exception escaping ``main`` fails the test, as the console script would
    end in a traceback.  A warning escaping ``main`` counts as a stderr line,
    as the console would print it.
    """
    out, err = io.StringIO(), io.StringIO()
    parsed = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 on a bad command line, 0 on --help
            code, parsed = exc.code, False
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}"
                                           for w in escaped]
    assert code in (0, 1, 2, 3), (argv, code, lines)
    assert not any("Traceback" in line for line in lines)
    if parsed and code in (2, 3):
        assert len(lines) == 1, (argv, lines)


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# values per option; --samples stays small so a check run is short
ARGV_VALUES = {
    "--metric": ["minkowski", "euclidean", "schwarzschild", "diagonal", "kerr", ""],
    "--diag": ["1,-1,-1,-1", "-1,-1,-1,-1", "1,nan,-1,-1", "1,0,-1,-1", "1,-1,-1",
               "1e400,-1,-1,-1", "1,-1e-13,-1,-1", "a,b", ""],
    "--samples": ["1", "2", "0", "-1", "abc"],
    "--seed": ["0", "7", "-1", "x"],
    "--alpha": ["0", "0.5", "-0.5", "0.6931471805599453", "800", "nan", "inf", "1e400", "abc"],
    "--v": ["0.1,0.2,0.3", "0,0,0", "1.6666666666666667,0,0", "nan,0,0", "1e300,0,0", "1,2",
            "a,b,c", ""],
}
ARGV_TOKENS = ["simulate", "check", "boost", "compare", "kerr", "-1", "", "no-such-config.ini"]


RARELY_TRUE = st.sampled_from([False] * 9 + [True])
RARELY_FALSE = RARELY_TRUE.map(lambda flag: not flag)


@st.composite
def fuzz_argv(draw):
    def option(flag):
        return f"{flag}={draw(st.sampled_from(ARGV_VALUES[flag]))}"

    command = draw(st.sampled_from(["simulate", "compare", "check", "boost"] * 3
                                   + ARGV_TOKENS))
    argv = [command]
    if command == "check":
        argv += ["--samples", "2", option("--metric"), option("--diag")]
    elif command == "boost":
        argv += [option("--alpha"), option("--v")]
    elif command in ("simulate", "compare"):
        argv.append(draw(st.sampled_from(ARGV_TOKENS)))
    # drop some of the arguments above, then add stray options and tokens
    argv = [arg for i, arg in enumerate(argv) if i == 0 or draw(RARELY_FALSE)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.append(draw(st.sampled_from(ARGV_TOKENS) | st.sampled_from(list(ARGV_VALUES))
                         .map(option)))
    return argv


@FUZZ
@given(argv=fuzz_argv())
def test_fuzz_argv_exit_contract(argv):
    assert_exit_contract(argv)


FUZZ_BASE = {
    "scenario": {"kind": "geodesic"},
    "manifold": {"dimension": "4", "metric": "minkowski", "M": "1", "diag": "1, -1, -1, -1"},
    "potential": {"kind": "none", "E": "0.1, 0, 0", "B": "0, 0, 1", "q": "0.5",
                  "center": "0, 0, 0"},
    "particle": {"mass": "1", "charge": "0.5", "x0": "0, 10, 1.5707963267948966, 0",
                 "u0": "1.1, 0, 0, 0.03", "sign": "1", "normalize": "true"},
    "integrator": {"dt": "0.01", "steps": "20", "projection": "none"},
    "output": {"every": "5"},
    "compare": {"tolerance": "1e-6", "hamiltonian_charge": "0.5"},
}
FUZZ_KEYS = [(name, key) for name, entries in FUZZ_BASE.items() for key in entries] + [
    ("particle", "v0")]
FUZZ_VALUES = [
    "", "abc", "nan", "inf", "-inf", "0", "-1", "2.7", "5", "1e300", "1e308", "1e-300", "1,2",
    "1e200, 0, 0, 0", "0, 1, 0, 0", "nan, 0, 0, 0", "0, 1.5, 1, 0", "1, -1e-13, -1, -1",
    "0, 0, 0", "2, 0, 0", "1, 2, 3, 4, 5", "true", "geodesic", "compare", "schwarzschild",
    "diagonal", "coulomb", "uniform_field", "rescale",
]
# integrator.steps is never dropped (the default is 10000) and never above 20
FUZZ_STEPS = ["", "abc", "nan", "inf", "-inf", "0", "-1", "2.7", "2e1", "20.0", "1,2", "3"]


@st.composite
def mutated_scenarios(draw):
    sections = {name: dict(entries) for name, entries in FUZZ_BASE.items()}
    sections["scenario"]["kind"] = draw(st.sampled_from(cli.SCENARIO_KINDS))
    sections["manifold"]["metric"] = draw(st.sampled_from(cli.CATALOG_IDS))
    sections["potential"]["kind"] = draw(st.sampled_from(cli.POTENTIAL_KINDS))
    if draw(st.booleans()) or sections["scenario"]["kind"] == "three_velocity":
        del sections["particle"]["u0"]
        sections["particle"]["v0"] = "0.1, 0, 0.003"
    for name, key in draw(st.lists(st.sampled_from(FUZZ_KEYS), max_size=3)):
        if (name, key) == ("integrator", "steps"):
            sections[name][key] = draw(st.sampled_from(FUZZ_STEPS))
        elif draw(st.booleans()):
            sections[name].pop(key, None)
        else:
            sections[name][key] = draw(st.sampled_from(FUZZ_VALUES))
    return sections


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(sections=mutated_scenarios(), swap=RARELY_TRUE)
def test_fuzz_config_exit_contract(fuzz_dir, sections, swap):
    sections["output"]["csv"] = str(fuzz_dir / "out.csv")
    path = fuzz_dir / "scenario.ini"
    path.write_text(ini_text(sections), encoding="utf-8")
    command = "compare" if (sections["scenario"].get("kind") == "compare") != swap else "simulate"
    assert_exit_contract([command, str(path)])


@pytest.mark.parametrize("key, value", [
    ("particle.mass", "inf"), ("particle.charge", "nan"), ("integrator.dt", "inf"),
    ("compare.tolerance", "inf"), ("compare.hamiltonian_charge", "-inf"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, key, value):
    code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, {key: value}))
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert err == f"config error: {key}: not a finite number: {value!r}\n"


@pytest.mark.parametrize("kind", ["geodesic", "hamiltonian", "three_velocity"])
def test_overflow_during_run_is_one_line(tmp_path, capsys, kind):
    cfg = write_scenario(tmp_path, {"scenario.kind": kind, "particle.u0": None,
                                    "particle.v0": "0.1, 0, 0", "integrator.dt": "1e300"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning is a second stderr line
        code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("integration failed")


def test_three_velocity_overflow_in_a_stage_exits_3(tmp_path, capsys):
    # Gbar ** (e1 + 1) overflows in the first stage: a non-finite chart state
    cfg = write_scenario(tmp_path, {"scenario.kind": "three_velocity",
                                    "manifold.metric": "diagonal",
                                    "manifold.diag": "1e250, -1, -1, -1",
                                    "potential.kind": "none", "particle.u0": None,
                                    "particle.v0": "0.1, 0, 0"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert out == ""
    assert err == ("integration failed: non-finite chart state "
                   "(last good chart time q^0 = 0)\n")


def test_three_velocity_singular_system_exits_3(tmp_path, capsys):
    # on Schwarzschild's polar axis g_33 = 0: the system for w is singular
    cfg = write_scenario(tmp_path, {"scenario.kind": "three_velocity",
                                    "manifold.metric": "schwarzschild", "manifold.M": "1",
                                    "particle.x0": "0, 10, 0, 0", "particle.u0": None,
                                    "particle.v0": "0.01, 0, 0"})
    code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert out == ""
    assert err == ("integration failed: chart-time system for w is singular "
                   "(last good chart time q^0 = 0)\n")


def test_three_velocity_chart_time_that_stops_advancing_exits_3(tmp_path, capsys):
    # at q^0 = 1e20, q^0 + dt rounds back to q^0: the lift writes no CSV
    cfg = write_scenario(tmp_path, {"scenario.kind": "three_velocity",
                                    "particle.x0": "1e20, 0, 0, 0", "particle.u0": None,
                                    "particle.v0": "0.1, 0, 0", "integrator.steps": "5"})
    code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert out == ""
    assert err == "integration failed: chart time samples must be strictly increasing\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("error", [ArithmeticError("overflow in a stage"),
                                   ValueError("no finite value"),
                                   np.linalg.LinAlgError("singular matrix"),
                                   RelMechError("the run cannot go on")])
@pytest.mark.parametrize("command, entry, prefix, want", [
    ("check", "run_invariant_checks", "check failed", 2),
    ("boost", "boost_three", "boost failed", 3),
    ("simulate", "integrate_geodesic", "integration failed", 3),
    ("compare", "integrate_hamiltonian", "integration failed", 3),
])
def test_failed_computation_is_one_line_per_command(tmp_path, capsys, monkeypatch,
                                                    error, command, entry, prefix, want):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, entry, fail)
    if command == "check":
        argv = ["--metric", "minkowski", "--samples", "5"]
    elif command == "boost":
        argv = ["--alpha", "0.5", "--v", "0.1,0,0"]
    else:
        argv = [write_scenario(tmp_path, {"scenario.kind": "compare"}
                               if command == "compare" else {})]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == want
    assert out == ""
    assert err == f"{prefix}: {error}\n"


@pytest.mark.parametrize("command, kind", [("simulate", "hamiltonian"), ("compare", "compare")])
def test_overflowing_start_momenta_exit_3(tmp_path, capsys, command, kind):
    # p_3 = m g_33 u^3 = -1e308 r^2 u^3 overflows although m and u are finite
    cfg = write_scenario(tmp_path, {"scenario.kind": kind, "manifold.metric": "schwarzschild",
                                    "potential.kind": "none", "particle.mass": "1e308"})
    code, out, err = run_cli(capsys, command, cfg)
    assert code == 3
    assert out == ""
    assert_one_line_error(err)
    assert err.startswith("integration failed: the start momenta")


@pytest.mark.parametrize("kind", ["geodesic", "three_velocity"])
def test_huge_every_keeps_first_and_last_sample(tmp_path, capsys, kind):
    cfg = write_scenario(tmp_path, {"scenario.kind": kind, "particle.u0": None,
                                    "particle.v0": "0.1, 0, 0", "output.every": "1e300"})
    code, out, err = run_cli(capsys, "simulate", cfg)
    assert code == 0 and err == ""
    assert ": 2 samples," in out
