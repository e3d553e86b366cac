import json
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import relmech.cli as cli
from relmech.cli import main
from relmech.errors import DomainError
from relmech.geometry import PotentialField

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
    monkeypatch.setattr(cli, "build_potential", lambda cfg: nan_potential)
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
    assert "last good chart time q^0 = 0.5)" in err
    assert "tau" not in err


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
    gfield = cli.GTensorField.from_metric(cli.build_metric(cfg))
    potential = potential if potential is not None else cli.build_potential(cfg)
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

    monkeypatch.setattr(cli, "build_potential", lambda cfg: potential)
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
    monkeypatch.setattr(cli, "build_metric", lambda cfg: walled)
    cfg = write_config(tmp_path, "wall.ini", THREE_VELOCITY.format(
        x0=0.25, dt=0.01, steps=100, csv=tmp_path / "wall.csv"))
    code, _, err = run_cli(capsys, "simulate", cfg)
    assert code == 3
    assert_one_line_error(err)
    assert "past the wall" in err
    assert "(last good chart time q^0 = 0.29" in err
    assert "tau" not in err


def test_three_velocity_four_accelerations_per_step(tmp_path, capsys, monkeypatch):
    calls = [0]
    acceleration = cli.three_acceleration

    def counted(model, three):
        calls[0] += 1
        return acceleration(model, three)

    monkeypatch.setattr(cli, "three_acceleration", counted)
    cfg = write_config(tmp_path, "count.ini", THREE_VELOCITY.format(
        x0=0.25, dt=0.01, steps=25, csv=tmp_path / "count.csv"))
    code, _, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    assert calls[0] == 4 * 25


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
    code, out, err = run_cli(capsys, "check", "--metric", "diagonal",
                             "--diag=-1,-1,-1,-1")
    assert code == 2
    assert out == ""
    assert_one_line_error(err)
    assert "G > margin" in err


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
