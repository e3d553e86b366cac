"""Oracles that share no code with relmech.

The equations of motion are derived here with sympy from the metric and the
potential written out as formulas: the geodesic equation from the Lagrangian
L = (m/2) g_{mu nu} u^mu u^nu + e A_mu u^mu, and Hamilton's equations from
H = g^{mu nu} (p - eA)_mu (p - eA)_nu / (2m).  They are turned into numpy
functions with ``lambdify`` and integrated with scipy's DOP853 at rtol and
atol 1e-12 (Hairer, Norsett & Wanner, Solving ODEs I, 1993).  relmech's RK4
runs must approach these solutions at fourth order, both through the
integrators' O(m^2) float stages for the catalog fields and through the
generic path (inverse metric and connection symbols).

The ISCO test needs neither: it starts from the closed-form circular orbits
of Schwarzschild and predicts the radial turning points, or their absence,
from the conserved energy and angular momentum.
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

import relmech as rm

from conftest import generic

COORDS = sympy.symbols("x0:4", real=True)
VELOCITIES = sympy.symbols("u0:4", real=True)
MOMENTA = sympy.symbols("p0:4", real=True)

DIAG = (1.5, -0.75, -2.0, -1.25)
E_FIELD, B_FIELD = (0.3, -0.2, 0.5), (1.0, 2.0, -0.7)

#: RK4 error shrinks 16x per halved step; the gap must shrink at least this much
MIN_RATIO = 12.0


def _schwarzschild_formula():
    t, r, th, ph = COORDS
    f = 1 - 2 / r
    return sympy.diag(f, -1 / f, -r ** 2, -r ** 2 * sympy.sin(th) ** 2)


def _uniform_formula(e_field, b_field):
    # the gauge of relmech.uniform_field: F_{i0} = E_i, (F_23, F_31, F_12) = B
    _, x, y, z = COORDS
    ex, ey, ez = e_field
    bx, by, bz = b_field
    return [ex * x + ey * y + ez * z, by * z, bz * x, bx * y]


def _coulomb_formula(q):
    _, x, y, z = COORDS
    return [q / sympy.sqrt(x ** 2 + y ** 2 + z ** 2), 0, 0, 0]


#: name -> (relmech metric, relmech potential, charge, metric formula,
#: potential formula, x0, three-velocity v0, proper-time span, dt)
CASES = {
    "schwarzschild": (lambda: rm.schwarzschild(1.0), lambda: rm.zero_potential(4), 0.0,
                      _schwarzschild_formula, lambda: [0, 0, 0, 0],
                      (0.0, 10.0, 1.2, 0.0), (-0.02, 0.003, 0.03), 60.0, 2.0),
    "diagonal": (lambda: rm.diagonal_metric(DIAG), lambda: rm.uniform_field(E_FIELD, B_FIELD),
                 1.0, lambda: sympy.diag(*DIAG), lambda: _uniform_formula(E_FIELD, B_FIELD),
                 (0.0, 0.1, -0.2, 0.3), (0.2, -0.1, 0.15), 4.0, 0.1),
    "minkowski-uniform": (lambda: rm.minkowski(), lambda: rm.uniform_field(E_FIELD, B_FIELD),
                          -1.0, lambda: sympy.diag(1, -1, -1, -1),
                          lambda: _uniform_formula(E_FIELD, B_FIELD),
                          (0.0, 0.0, 0.0, 0.0), (0.3, 0.2, -0.1), 4.0, 0.1),
    "euclidean-uniform": (lambda: rm.euclidean(), lambda: rm.uniform_field(E_FIELD, B_FIELD),
                          1.0, lambda: sympy.eye(4), lambda: _uniform_formula(E_FIELD, B_FIELD),
                          (0.0, 0.1, 0.0, -0.2), (0.4, -0.3, 0.2), 4.0, 0.1),
    "minkowski-coulomb": (lambda: rm.minkowski(), lambda: rm.coulomb_potential(-0.5),
                          1.0, lambda: sympy.diag(1, -1, -1, -1), lambda: _coulomb_formula(-0.5),
                          (0.0, 2.0, 0.0, 0.0), (0.0, 0.35, 0.1), 12.0, 0.1),
}


@functools.lru_cache(maxsize=None)
def equations(name):
    """Numpy functions of the sympy-derived equations for one case:
    (geodesic f(x, u) -> a, Hamilton f(x, p) -> (xdot, pdot), symbols
    f(x) -> Gamma[lam, mu, nu]) for mass 1 and the case's charge."""
    charge = CASES[name][2]
    g = CASES[name][3]()
    a_form = sympy.Matrix(CASES[name][4]())
    x, u, p = sympy.Matrix(COORDS), sympy.Matrix(VELOCITIES), sympy.Matrix(MOMENTA)

    lagrangian = (u.T * g * u)[0] / 2 + charge * (a_form.T * u)[0]
    dl_du = sympy.Matrix([sympy.diff(lagrangian, ui) for ui in u])
    dl_dx = sympy.Matrix([sympy.diff(lagrangian, xi) for xi in x])
    mass_matrix = dl_du.jacobian(u)
    accel = mass_matrix.LUsolve(dl_dx - dl_du.jacobian(x) * u)

    ginv = g.inv()
    w = p - charge * a_form
    hamiltonian = (w.T * ginv * w)[0] / 2
    xdot = [sympy.diff(hamiltonian, pi) for pi in p]
    pdot = [-sympy.diff(hamiltonian, xi) for xi in x]

    gamma = [[[sum(ginv[lam, b] * (sympy.diff(g[b, nu], x[mu]) + sympy.diff(g[b, mu], x[nu])
                                    - sympy.diff(g[mu, nu], x[b])) for b in range(4)) / 2
               for nu in range(4)] for mu in range(4)] for lam in range(4)]

    geo = sympy.lambdify((COORDS, VELOCITIES), list(accel), "numpy")
    ham = sympy.lambdify((COORDS, MOMENTA), xdot + pdot, "numpy")
    sym = sympy.lambdify((COORDS,), gamma, "numpy")
    return (lambda xx, uu: np.array(geo(xx, uu), dtype=float),
            lambda xx, pp: np.array(ham(xx, pp), dtype=float),
            lambda xx: np.array(sym(xx), dtype=float))


def reference(rhs, y0, taus):
    """DOP853 solution of y' = rhs(y) sampled at ``taus``, shape (len, 8)."""
    sol = solve_ivp(lambda _, y: rhs(y), (0.0, taus[-1]), y0, method="DOP853",
                    t_eval=taus, rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y.T


def start(name):
    """(catalog metric, potential, charge, FourState on the unit shell)."""
    make_metric, make_potential, charge, _, _, x0, v0 = CASES[name][:7]
    metric = make_metric()
    gfield = rm.GTensorField.from_metric(metric)
    x0 = np.array(x0)
    u0 = rm.project_to_shell(gfield, x0, np.concatenate(([1.0], v0)))
    return metric, make_potential(), charge, rm.FourState(x0, u0)


def _as_built(model):
    return model


def geodesic_gap(name, metric, potential, charge, s0, span, dt, path=_as_built):
    """Largest gap between relmech's geodesic run and the reference; ``path``
    maps the connection to the one integrated."""
    steps = round(span / dt)
    conn = path(rm.connection_from(metric, potential, 1.0, charge))
    traj = rm.integrate_geodesic(conn, rm.GTensorField.from_metric(metric), s0, dt,
                                 steps, "none", steps // 10)
    geo = equations(name)[0]
    want = reference(lambda y: np.concatenate((y[4:], geo(y[:4], y[4:]))),
                     np.concatenate((s0.x, s0.u)), traj.tau)
    return np.max(np.abs(np.hstack((traj.x, traj.u)) - want))


def hamiltonian_gap(name, metric, potential, charge, s0, span, dt, path=_as_built):
    """Largest gap between relmech's Hamiltonian run and the reference;
    ``path`` maps the model to the one integrated."""
    steps = round(span / dt)
    ham = path(rm.standard_hamiltonian(metric, potential, 1.0, charge))
    p0 = rm.on_shell_momentum(ham, s0.x, s0.u)
    traj = rm.integrate_hamiltonian(ham, rm.PhaseState(s0.x, p0), dt, steps, steps // 10)
    flow = equations(name)[1]
    want = reference(lambda y: flow(y[:4], y[4:]), np.concatenate((s0.x, p0)), traj.tau)
    return np.max(np.abs(np.hstack((traj.x, traj.p)) - want))


@pytest.mark.parametrize("picture", ["geodesic", "hamiltonian"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_rk4_converges_to_reference(name, picture):
    metric, potential, charge, s0 = start(name)
    span, dt = CASES[name][7:]
    gap = geodesic_gap if picture == "geodesic" else hamiltonian_gap
    for path in (_as_built, generic):
        coarse = gap(name, metric, potential, charge, s0, span, dt, path)
        fine = gap(name, metric, potential, charge, s0, span, dt / 2, path)
        assert fine > 1e-9 and coarse / fine >= MIN_RATIO, (coarse, fine)


@pytest.mark.parametrize("name", ["schwarzschild", "diagonal"])
def test_connection_symbols_match_sympy(name):
    # relmech's C[mu, lam, nu] is the negative of the textbook Gamma^lam_{mu nu}
    metric = CASES[name][0]()
    gamma = equations(name)[2]
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = np.array([rng.uniform(-1, 1), rng.uniform(2.5, 30.0),
                      rng.uniform(0.2, math.pi - 0.2), rng.uniform(0, 2 * math.pi)])
        want = -np.transpose(gamma(x), (1, 0, 2))
        got = rm.christoffel_at(metric, x)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15 * np.max(np.abs(want)))


def _isco_start(r, du):
    """A circular equatorial Schwarzschild orbit at r (M = 1), E = f / k and
    L = sqrt(r) / k with f = 1 - 2/r, k = sqrt(1 - 3/r) (Bardeen, Press &
    Teukolsky, ApJ 178, 347, 1972, a = 0), with u^r = du."""
    f, k = 1.0 - 2.0 / r, math.sqrt(1.0 - 3.0 / r)
    e, ell = f / k, math.sqrt(r) / k
    return np.array([0.0, r, math.pi / 2, 0.0]), np.array([e / f, du, 0.0, ell / r ** 2])


def _turning_points(r, u):
    """Real roots of E^2 = f (1 + L^2 / r^2), the radii where u^r = 0 on an
    equatorial geodesic with E = f u^t and L = r^2 u^phi: the cubic
    (1 - E^2) r^3 - 2 r^2 + L^2 r - 2 L^2 = 0."""
    e, ell = (1.0 - 2.0 / r) * u[0], r * r * u[3]
    roots = np.roots([1.0 - e * e, -2.0, ell * ell, -2.0 * ell * ell])
    return np.sort(roots[np.abs(roots.imag) < 1e-9].real)


@pytest.mark.parametrize("du", [1e-3, -1e-3])
@pytest.mark.parametrize("r", [6.5, 7.0, 5.5, 5.9])
def test_isco_at_six_m(r, du):
    # a perturbed circular orbit stays between its turning points outside the
    # ISCO at r = 6M and falls through r = 2M inside it, within tau = 1000
    schw = rm.schwarzschild(1.0)
    gf = rm.GTensorField.from_metric(schw)
    x, u = _isco_start(r, du)
    u = rm.project_to_shell(gf, x, u)
    turning = _turning_points(r, u)
    run = functools.partial(rm.integrate_geodesic, rm.levi_civita_connection(schw), gf,
                            rm.FourState(x, u), 0.25, 4000)
    if r > 6.0:
        peri, apo = turning[-2:]
        assert peri < r < apo < r + 0.1
        radius = run().x[:, 1]
        assert peri - 1e-6 <= radius.min() <= peri + 1e-3
        assert apo - 1e-3 <= radius.max() <= apo + 1e-6
    else:
        assert not np.any((turning > 2.0) & (turning < r))  # nothing stops the fall
        with pytest.raises(rm.DomainError, match=r"r > 2M"):
            run()


def test_package_imports_neither_scipy_nor_sympy():
    code = ("import sys, relmech, relmech.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
