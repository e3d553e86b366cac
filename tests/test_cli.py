import json
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import relmech.cli as cli
from relmech.cli import main
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
