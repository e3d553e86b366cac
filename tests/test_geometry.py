import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import relmech as rm
from relmech.errors import DimensionMismatch, DomainError, SingularMetric
from relmech.geometry import _check_diagonal, fd_partials
from relmech.hamiltonian import _dginv

from conftest import dense_minkowski, random_point, same_bits, shear_minkowski

X0 = np.zeros(4)
X_SCHW = np.array([0.0, 10.0, math.pi / 2, 0.0])


# -- metric values -----------------------------------------------------------

def test_minkowski_value(mink):
    npt.assert_array_equal(rm.metric_at(mink, X0), np.diag([1.0, -1.0, -1.0, -1.0]))


def test_euclidean_value(eucl):
    npt.assert_array_equal(rm.metric_at(eucl, np.ones(4)), np.eye(4))


def test_schwarzschild_closed_form(schw):
    g = rm.metric_at(schw, X_SCHW)
    npt.assert_allclose(np.diag(g), [0.8, -1.25, -100.0, -100.0], rtol=1e-15)
    assert np.all(g[~np.eye(4, dtype=bool)] == 0.0)


def test_signatures(mink, eucl, schw):
    for metric, x, expected in (
        (mink, X0, (1, -1, -1, -1)),
        (schw, X_SCHW, (1, -1, -1, -1)),
        (eucl, X0, (1, 1, 1, 1)),
    ):
        eig = np.linalg.eigvalsh(rm.metric_at(metric, x))
        assert tuple(np.sign(np.sort(eig)[::-1])) == expected


def test_schwarzschild_domain_guard(schw):
    with pytest.raises(DomainError):
        rm.metric_at(schw, np.array([0.0, 1.5, 1.0, 0.0]))
    with pytest.raises(DomainError):
        rm.metric_at(schw, np.array([0.0, 2.0, 1.0, 0.0]))


def test_schwarzschild_domain_messages(schw):
    # the chart check runs inside value and partials, so every reader raises
    # it with the same message: a point, the first failing row of a batch,
    # the N = 1 form and the float forms of the integrators' stages
    def message(read):
        with pytest.raises(DomainError) as info:
            read()
        return str(info.value)

    def point(r):
        return np.array([0.0, r, 1.0, 0.0])

    u = np.array([1.0, 0.0, 0.0, 0.0])
    rows = np.stack([point(5.0), point(2.0), point(1.0)])
    conn = rm.connection_from(schw, rm.zero_potential(4), 1.0, 0.0)
    ham = rm.standard_hamiltonian(schw, rm.zero_potential(4), 1.0, 0.0)
    gf = rm.GTensorField.from_metric(schw)
    got = [message(lambda: rm.metric_at(schw, point(1.5))),
           message(lambda: rm.metric_at(schw, rows)),
           message(lambda: rm.g_value(gf, point(1.9), u)),
           message(lambda: conn.K._float_stage[0](point(1.25).tolist())),
           message(lambda: ham.flow._float_stage[1](point(1.75).tolist(), u.tolist()))]
    want = [f"schwarzschild chart requires r > 2M = 2; got r = {r}"
            for r in ("1.5", "2", "1.9", "1.25", "1.75")]
    assert got == want


def test_every_reader_respects_the_wall():
    # a chart that ends at x^1 = 4, walled in value and partials: every
    # reader of the field calls one of them, so each raises the wall's error
    def wall(x):
        if not x[1] >= 4.0:
            raise DomainError(f"x^1 = {x[1]:g} is behind the wall")

    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    walled = rm.MetricField.from_function(4, lambda x: (wall(x), eta.copy())[1],
                                          lambda x: (wall(x), np.zeros((4, 4, 4)))[1])
    gf = rm.GTensorField.from_metric(walled)
    x = np.array([0.0, 3.0, 0.0, 0.0])
    u = np.array([1.25, 0.75, 0.0, 0.0])
    three = rm.ThreeVelocity(0.0, x[1:], np.array([0.6, 0.0, 0.0]))
    readers = [
        lambda: rm.g_value(gf, x, u),
        lambda: rm.project_to_shell(gf, x, u),
        lambda: rm.four_from_three(three, gf),
        lambda: rm.lift_three_solution([three], gf),
        lambda: rm.euler_lagrange_E(rm.LagrangianModel(gf, rm.zero_potential(4)),
                                    x, u, np.zeros(4)),
        lambda: rm.integrate_geodesic(rm.levi_civita_connection(walled), gf,
                                      rm.FourState(x, u), 0.1, 10),
    ]
    for read in readers:
        with pytest.raises(DomainError, match="^x\\^1 = 3 is behind the wall$"):
            read()


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
def test_schwarzschild_rejects_mass_that_is_not_positive(mass):
    with pytest.raises(ValueError, match="mass must be positive"):
        rm.schwarzschild(mass)


def test_dimension_mismatch(mink):
    with pytest.raises(DimensionMismatch):
        rm.metric_at(mink, np.zeros(3))


def test_symmetry_at_random_points(mink, eucl, schw):
    rng = np.random.default_rng(0)
    for metric in (mink, eucl, schw):
        for _ in range(1000):
            g = rm.metric_at(metric, random_point(metric, rng))
            assert np.max(np.abs(g - g.T)) <= 1e-14


# -- inverse -----------------------------------------------------------------

def test_inverse_minkowski(mink):
    npt.assert_array_equal(rm.inverse_metric_at(mink, X0),
                           np.diag([1.0, -1.0, -1.0, -1.0]))


def test_inverse_diagonal():
    metric = rm.diagonal_metric([2.0, -2.0, -2.0, -2.0])
    npt.assert_allclose(rm.inverse_metric_at(metric, X0),
                        np.diag([0.5, -0.5, -0.5, -0.5]), rtol=1e-15)


def test_inverse_schwarzschild(schw):
    ginv = rm.inverse_metric_at(schw, X_SCHW)
    npt.assert_allclose(np.diag(ginv), [1.25, -0.8, -0.01, -0.01], rtol=1e-14)
    prod = rm.metric_at(schw, X_SCHW) @ ginv
    npt.assert_allclose(prod, np.eye(4), atol=1e-12)


def test_inverse_product_random(schw):
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = random_point(schw, rng)
        prod = rm.metric_at(schw, x) @ rm.inverse_metric_at(schw, x)
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-12


def test_singular_metric_rejected():
    metric = rm.diagonal_metric([1.0, -1e-13, -1.0, -1.0])
    with pytest.raises(SingularMetric):
        rm.inverse_metric_at(metric, X0)
    degenerate = rm.MetricField(4, lambda x: np.zeros((4, 4)),
                                lambda x: np.zeros((4, 4, 4)))
    with pytest.raises(SingularMetric):
        rm.inverse_metric_at(degenerate, X0)


def _lapack_inverse(metric, x):
    """The general path of inverse_metric_at, kept as the reference."""
    g = rm.metric_at(metric, x)
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric is singular at x = {x}") from exc
    cond = np.linalg.norm(g, np.inf) * np.linalg.norm(inv, np.inf)
    if not cond < 1e12:
        raise SingularMetric(
            f"metric is numerically singular at x = {x} (cond ~ {cond:.3e})")
    return 0.5 * (inv + inv.T)


def _constant_metric(g):
    g = np.asarray(g, dtype=float)
    return rm.MetricField(g.shape[0], lambda x: g.copy(),
                          lambda x: np.zeros((g.shape[0],) * 3))


def test_diagonal_inverse_equals_lapack_exactly(mink, schw):
    rng = np.random.default_rng(11)
    for metric in (schw, mink):
        for _ in range(1000):
            x = random_point(metric, rng)
            npt.assert_array_equal(rm.inverse_metric_at(metric, x),
                                   _lapack_inverse(metric, x))
    near_limit = [1.0, -1.0000001e-12, -1.0, -1.0]  # cond just under 1e12
    draws = [10.0 ** rng.uniform(-5.0, 5.0, 4) * rng.choice([-1.0, 1.0], 4)
             for _ in range(1000)]
    for entries in [near_limit] + draws:
        metric = rm.diagonal_metric(entries)
        try:
            want = _lapack_inverse(metric, X0)
        except SingularMetric as exc:
            with pytest.raises(SingularMetric, match=re.escape(str(exc))):
                rm.inverse_metric_at(metric, X0)
        else:
            npt.assert_array_equal(rm.inverse_metric_at(metric, X0), want)


@pytest.mark.parametrize("diag", [
    [1.0, -1e-13, -1.0, -1.0],
    [1e7, -1e-6, -1.0, -1.0],
    [1.0, -0.9999999e-12, -1.0, -1.0],
    [1.0, 0.0, -1.0, -1.0],
    [1.0, np.nan, -1.0, -1.0],
    [1.0, np.inf, -1.0, -1.0],
])
def test_singular_diagonal_same_message(diag):
    metric = _constant_metric(np.diag(diag))
    with pytest.raises(SingularMetric) as want:
        _lapack_inverse(metric, X0)
    with pytest.raises(SingularMetric, match=re.escape(str(want.value))):
        rm.inverse_metric_at(metric, X0)


def test_non_diagonal_constant_metric_takes_general_path(monkeypatch):
    # Minkowski space in a skewed linear chart: a boost along x composed
    # with a shear, so every entry of g is nonzero (a boost alone gives
    # back eta)
    ch, sh = math.cosh(0.4), math.sinh(0.4)
    boost = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    shear = np.eye(4) + np.triu(np.full((4, 4), 0.3), 1)
    chart = boost @ shear
    g = chart.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ chart
    assert np.count_nonzero(g) == 16
    metric = _constant_metric(g)
    inversions = [0]
    inv = np.linalg.inv

    def counted(a):
        inversions[0] += 1
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    ginv = rm.inverse_metric_at(metric, X0)
    assert inversions[0] == 1
    assert np.max(np.abs(g @ ginv - np.eye(4))) <= 1e-12
    assert np.all(rm.christoffel_at(metric, X0) == 0.0)
    # the diagonal closed form never calls LAPACK
    rm.inverse_metric_at(rm.minkowski(), X0)
    assert inversions[0] == 2


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
def test_diagonal_metric_rejects_zero_and_non_finite(bad):
    with pytest.raises(ValueError, match=r"diag\[2\]"):
        rm.diagonal_metric([1.0, -1.0, bad, -1.0])


# -- connection symbols ------------------------------------------------------

def test_christoffel_flat_is_exactly_zero(mink, eucl):
    for metric in (mink, eucl):
        c = rm.christoffel_at(metric, np.array([0.3, -1.0, 2.0, 0.5]))
        assert np.all(c == 0.0)


def test_christoffel_schwarzschild_value(schw):
    # C[t, r, t] = -(M/r^2)(1 - 2M/r), the sign-flipped textbook value
    c = rm.christoffel_at(schw, X_SCHW)
    npt.assert_allclose(c[0, 1, 0], -0.008, rtol=1e-12)


def test_christoffel_outer_symmetry(schw):
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = rm.christoffel_at(schw, random_point(schw, rng))
        npt.assert_allclose(c, c.transpose(2, 1, 0), atol=1e-15)


def _bits(a):
    """The bytes of ``a`` with -0.0 normalised to +0.0."""
    return (np.asarray(a) + 0.0).tobytes()


def test_diagonal_metric_contractions_equal_einsum(schw):
    # on a diagonal metric each sum of the contractions has one nonzero
    # term, so the matmul and the einsum differ at most in the signs of zeros
    rng = np.random.default_rng(17)
    for _ in range(2000):
        x = random_point(schw, rng)
        dg = np.asarray(schw.partials(x))
        ginv = rm.inverse_metric_at(schw, x)
        s = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
        c = -0.5 * np.einsum("lb,mbn->mln", ginv, s)
        assert _bits(rm.christoffel_at(schw, x)) == _bits(0.5 * (c + c.transpose(2, 1, 0)))
        assert _bits(_dginv(ginv, dg)) == _bits(-np.einsum("ac,lcd,db->lab", ginv, dg, ginv))


def _einsum_christoffel(metric, x):
    """C[mu, lam, nu] = -1/2 g^{lam b} (d_mu g_bn + d_nu g_bm - d_b g_mn), with
    numpy's inverse and one einsum per term."""
    ginv = np.linalg.inv(rm.metric_at(metric, x))
    dg = np.asarray(metric.partials(x))
    return -0.5 * (np.einsum("lb,mbn->mln", ginv, dg) + np.einsum("lb,nbm->mln", ginv, dg)
                   - np.einsum("lb,bmn->mln", ginv, dg))


def test_christoffel_non_diagonal_metric():
    # flat space in the shear chart X = x + eps sin y: the only symbol is
    # Gamma^x_yy = -eps sin y, so C[y, x, y] = eps sin y; the metric is
    # neither diagonal nor constant, so every inverse takes the general path
    eps = 0.3
    shear, _ = shear_minkowski(eps)
    rng = np.random.default_rng(19)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, 4)
        c = rm.christoffel_at(shear, x)
        npt.assert_allclose(c, _einsum_christoffel(shear, x), rtol=1e-13, atol=1e-15)
        expected = np.zeros((4, 4, 4))
        expected[2, 1, 2] = eps * math.sin(x[2])
        npt.assert_allclose(c, expected, rtol=1e-13, atol=1e-15)


def test_christoffel_dense_metric():
    # every entry of g and of its partials is nonzero, so every sum of the
    # contraction has four terms, added in the order the matmul chooses; a
    # symbol that cancels to ~1e-7 keeps the absolute error of the others
    dense = dense_minkowski(0.1)
    rng = np.random.default_rng(29)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, 4)
        npt.assert_allclose(rm.christoffel_at(dense, x), _einsum_christoffel(dense, x),
                            rtol=1e-13, atol=1e-15)


def test_partials_match_finite_differences(schw):
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = random_point(schw, rng)
        analytic = np.asarray(schw.partials(x))
        numeric = fd_partials(schw.value, x)
        scale = np.max(np.abs(analytic)) + 1e-30
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6


def test_fd_default_partials():
    # a metric built without analytic partials falls back to differences
    def curved(x):
        g = np.diag([1.0, -1.0, -1.0, -1.0])
        g[0, 0] = 1.0 + 0.1 * x[1] ** 2
        return g

    metric = rm.MetricField.from_function(4, curved)
    dg = metric.partials(np.array([0.0, 2.0, 0.0, 0.0]))
    npt.assert_allclose(dg[1, 0, 0], 0.4, rtol=1e-7)


# -- faraday -----------------------------------------------------------------

def test_faraday_zero_potential():
    pot = rm.zero_potential(4)
    npt.assert_array_equal(rm.faraday_at(pot, X0), np.zeros((4, 4)))


def test_faraday_constant_form_is_closed():
    pot = rm.PotentialField.from_function(4, lambda x: np.array([1.0, 0, 0, 0]))
    npt.assert_allclose(rm.faraday_at(pot, np.array([0.3, 1.0, -2.0, 0.7])),
                        np.zeros((4, 4)), atol=1e-12)


def test_faraday_linear_potential_by_hand():
    # A_2 = B q^1 gives F_12 = B, F_21 = -B, everything else zero
    b = 2.5
    pot = rm.PotentialField.from_function(
        4, lambda x: np.array([0.0, 0.0, b * x[1], 0.0]))
    f = rm.faraday_at(pot, np.array([0.1, 0.2, 0.3, 0.4]))
    expected = np.zeros((4, 4))
    expected[1, 2] = b
    expected[2, 1] = -b
    npt.assert_allclose(f, expected, atol=1e-9)


def test_uniform_field_exact_components():
    ee = (0.3, -0.2, 0.5)
    bb = (1.0, 2.0, -0.7)
    f = rm.faraday_at(rm.uniform_field(ee, bb), np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.max(np.abs(f + f.T)) <= 1e-14
    npt.assert_array_equal(f[1:, 0], ee)
    assert (f[2, 3], f[3, 1], f[1, 2]) == bb


def test_coulomb_potential_partials_match_fd():
    pot = rm.coulomb_potential(1.5, center=(0.0, 0.0, 0.0))
    x = np.array([0.0, 1.0, 2.0, -1.0])
    npt.assert_allclose(pot.partials(x), fd_partials(pot.value, x), atol=1e-8)


def test_faraday_antisymmetric_everywhere():
    pot = rm.uniform_field((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
    rng = np.random.default_rng(4)
    for _ in range(200):
        f = rm.faraday_at(pot, rng.uniform(-5, 5, 4))
        assert np.max(np.abs(f + f.T)) <= 1e-14


# -- velocity form -----------------------------------------------------------

@pytest.mark.parametrize("t", [3, -0.0, [1, 2, 5], np.array([0.5, -0.0, 7.25])],
                         ids=["int", "negative-zero", "int-list", "vector"])
def test_symmetrize_gives_rank_zero_and_one_input_as_floats(t):
    # an array of at most one axis has one permutation of its axes: the
    # input itself, as a float array
    assert same_bits(rm.symmetrize(t), np.asarray(t, dtype=float))


def test_g_value_examples(mink_gf):
    assert rm.g_value(mink_gf, X0, np.array([1.0, 0, 0, 0])) == 1.0
    assert rm.g_value(mink_gf, X0, np.zeros(4)) == 0.0
    assert rm.g_value(mink_gf, X0, np.array([2.0, 1.0, 0, 0])) == 3.0


def test_g_value_n2_reduces_to_square(n2_gfield, mink_gf):
    # pure symmetrized eta (x) eta contracts to (eta(u,u))^2
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    gf = rm.GTensorField.from_constant(np.einsum("ab,cd->abcd", eta, eta))
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.standard_normal(4)
        expected = rm.g_value(mink_gf, X0, u) ** 2
        npt.assert_allclose(rm.g_value(gf, X0, u), expected, rtol=1e-12)


@given(r=st.sampled_from([0.5, 2.0, 3.0]),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_g_value_homogeneity(r, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(4)
    x = rng.uniform(-2, 2, 4)
    for gf in (rm.GTensorField.from_metric(rm.minkowski()),):
        base = rm.g_value(gf, x, u)
        scaled = rm.g_value(gf, x, r * u)
        npt.assert_allclose(scaled, r ** 2 * base, rtol=1e-12, atol=1e-30)


def test_g_value_homogeneity_n2(n2_gfield):
    rng = np.random.default_rng(6)
    for r in (0.5, 2.0, 3.0):
        for _ in range(100):
            u = rng.standard_normal(4)
            base = rm.g_value(n2_gfield, X0, u)
            npt.assert_allclose(rm.g_value(n2_gfield, X0, r * u),
                                r ** 4 * base, rtol=1e-12, atol=1e-30)


def test_gtensor_symmetrization():
    # an intentionally asymmetric generator still yields a symmetric field
    def lopsided(x):
        t = np.zeros((4, 4))
        t[0, 1] = 3.0 + x[0]
        return t

    gf = rm.GTensorField.from_function(4, 1, lopsided)
    t = gf.value(np.array([1.0, 0, 0, 0]))
    npt.assert_allclose(t, t.T, atol=0)
    npt.assert_allclose(t[0, 1], 2.0)


def test_gtensor_from_metric_matches(mink, schw):
    rng = np.random.default_rng(8)
    for metric in (mink, schw):
        gf = rm.GTensorField.from_metric(metric)
        for _ in range(20):
            x = random_point(metric, rng)
            npt.assert_array_equal(gf.value(x), rm.metric_at(metric, x))


def test_gtensor_value_invariant_under_permutations(n2_gfield):
    t = n2_gfield.value(X0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        perm = rng.permutation(4)
        npt.assert_allclose(t, t.transpose(perm), atol=1e-14)


def test_gtensor_rejects_unsupported():
    with pytest.raises(ValueError):
        rm.GTensorField.from_function(4, 3, lambda x: np.zeros((4,) * 6))
    with pytest.raises(ValueError):
        rm.GTensorField.from_function(9, 1, lambda x: np.zeros((9, 9)))


def test_catalog_dispatch():
    assert rm.catalog_metric("minkowski").catalog_id == "minkowski"
    assert rm.catalog_metric("diagonal", diag=[1, -1, -1, -1]).dim == 4
    with pytest.raises(ValueError):
        rm.catalog_metric("kerr")


# -- float forms -----------------------------------------------------------------

def _outcome(read, x):
    """``read(x)``, or the type and message of the DomainError or
    SingularMetric it raises."""
    try:
        return read(x)
    except (DomainError, SingularMetric) as exc:
        return type(exc), str(exc)


def _schwarzschild_points(big_m):
    """Off the equator, near r = 2M on both sides, at and near the poles, and
    where g stops being finite."""
    rng = np.random.default_rng(41)
    r_min = 2.0 * big_m * (1.0 + 1e-9)
    pts = [[rng.uniform(-1, 1), rng.uniform(2.05, 40.0) * big_m, rng.uniform(0.01, 3.13),
            rng.uniform(0, 2 * math.pi)] for _ in range(300)]
    pts += [[0.0, r, rng.uniform(0.3, 2.8), 0.5]
            for r in (r_min * (1 + k * 2.2e-16) for k in range(-3, 4))]
    pts += [[0.0, 2.0 * big_m * (1 + 10.0 ** -k), 1.2, 0.0] for k in range(1, 12)]
    pts += [[0.0, 2.0 * big_m, 1.2, 0.0], [0.0, 1.5 * big_m, 1.2, 0.0]]
    pts += [[0.0, 5.0 * big_m, th, 1.0] for th in
            (0.0, -0.0, 1e-200, 1e-160, 1e-9, 1e-5, math.pi, math.pi - 1e-9, -1e-7)]
    pts += [[0.0, r, th, 0.0] for r in (1e154, 1e200, math.inf) for th in (1.2, 0.0)]
    return np.array(pts)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inverse_metric_at near the pole
@pytest.mark.parametrize("metric", [
    rm.minkowski(), rm.euclidean(), rm.minkowski(3), rm.schwarzschild(1.0),
    rm.schwarzschild(2.5), rm.diagonal_metric([1.5, -0.75, -2.0, -1.25]),
    rm.diagonal_metric([1.0, -1e-13, -1.0, -1.0]),
    rm.diagonal_metric([1e308, 1e308, -1.0, -1.0]),
    rm.diagonal_metric([1e308, 1e308, -1e308, -1e308])])
def test_metric_float_forms_equal_value_and_partials(metric):
    # the form has the bits of value and partials and raises their errors
    # with their messages, also where inverse_metric_at rejects g, g has a
    # zero entry or the sum of |g_aa| is not finite.  The stages' condition
    # test on the form's d raises inverse_metric_at's SingularMetric with
    # its message where that raises, and passes elsewhere
    never = metric.params.get("diag") in ((1e308, 1e308, -1.0, -1.0), (1.0, -1e-13, -1.0, -1.0))
    form = metric.value.float_form
    assert metric.partials.float_form is form
    if metric.catalog_id == "schwarzschild":
        points = _schwarzschild_points(metric.params["M"])
    else:
        points = np.random.default_rng(43).uniform(-3.0, 3.0, (100, metric.dim))
    seen = set()
    for x in points:
        want = _outcome(metric.value, x)
        if isinstance(want, tuple):
            seen.add("raises")
            assert _outcome(form, x.tolist()) == want
            continue
        d, slopes = form(x.tolist())
        dg = np.zeros((metric.dim,) * 3)
        for mu, a, v in slopes:
            dg[mu, a, a] = v
        assert same_bits(np.diag(d), want)
        assert same_bits(dg, metric.partials(x))
        singular = _outcome(lambda x: rm.inverse_metric_at(metric, x), x)
        tested = _outcome(lambda x: _check_diagonal(d, x), x.tolist())
        if isinstance(singular, tuple):
            seen.add("singular")
            assert tested == singular
        else:
            seen.add("form")
            assert tested is None
    if metric.catalog_id == "schwarzschild":
        assert seen == {"raises", "singular", "form"}
    elif never:
        assert seen == {"singular"}
    else:
        assert seen == {"form"}


def test_inverse_metric_at_names_a_listed_point_as_an_array():
    # the singular message and the condition message format x alike
    for metric in (rm.schwarzschild(), rm.diagonal_metric([1, -1e-13, -1, -1])):
        with pytest.raises(SingularMetric, match=re.escape("x = [ 0. 10.  0.  0.]")):
            rm.inverse_metric_at(metric, [0.0, 10.0, 0.0, 0.0])


def test_constant_metric_forms_test_their_condition_once(monkeypatch):
    # a constant metric's form returns the same d at every read and makes
    # no condition test, also where inverse_metric_at rejects g; a float
    # stage tests that d at its first call, and only then if it passes;
    # inverse_metric_at names the point at each read
    import relmech.dynamics as dynamics
    import relmech.geometry as geometry
    import relmech.hamiltonian as hamiltonian

    metrics = [rm.minkowski(), rm.diagonal_metric([1.5, -0.75, -2.0, -1.25]),
               rm.diagonal_metric([1.0, -1e-13, -1.0, -1.0])]
    points = ([0.5, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    tested = []

    def condition_test(d, x):
        raise AssertionError("a read made the condition test")

    def counted(d, x):
        tested.append(d)
        _check_diagonal(d, x)

    monkeypatch.setattr(geometry, "_check_diagonal", condition_test)
    for metric in metrics:
        form = metric.value.float_form
        assert metric.partials.float_form is form
        for x in points:
            assert form(x) is form(points[0])
            assert form(x) == (tuple(np.diag(metric.value(x))), ())
    monkeypatch.setattr(dynamics, "_check_diagonal", counted)
    monkeypatch.setattr(hamiltonian, "_check_diagonal", counted)
    u = [1.0, 0.0, 0.0, 0.0]
    for metric in metrics:
        form, accel = rm.levi_civita_connection(metric).K._float_stage
        flow = rm.standard_hamiltonian(metric, rm.zero_potential(4)).flow._float_stage[1]
        for stage in (lambda x: accel(x, u, form(x)), lambda x: flow(x, u)):
            tested.clear()
            for x in points * 2:
                want = _outcome(lambda x: rm.inverse_metric_at(metric, x), np.array(x))
                if metric is metrics[2]:
                    assert want[0] is SingularMetric
                    assert f"x = {np.array(x)} " in want[1]
                    assert _outcome(stage, x) == want
                else:
                    stage(x)
            assert len(tested) == (4 if metric is metrics[2] else 1)


@pytest.mark.parametrize("potential, center", [
    (rm.zero_potential(4), None), (rm.zero_potential(3), None), (rm.uniform_field(), None),
    (rm.uniform_field((0.3, -0.2, 0.5), (1.0, 2.0, -0.7)), None),
    (rm.uniform_field((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), None),
    (rm.coulomb_potential(0.8, center=(0.1, -0.2, 0.3)), (0.1, -0.2, 0.3)),
    (rm.coulomb_potential(-1e-3), (0.0, 0.0, 0.0))])
def test_potential_float_forms_equal_value_and_partials(potential, center):
    # A and the slopes have the bits of value and partials, also near the
    # Coulomb center, where the form raises their error with its message
    form = potential.value.float_form
    assert potential.partials.float_form is form
    rng = np.random.default_rng(47)
    points = list(rng.uniform(-3.0, 3.0, (200, potential.dim)))
    if center is not None:
        for scale in (0.0, 1e-12 * (1 - 1e-6), 1e-12, 1e-12 * (1 + 1e-6), 1e-9, 1e-6):
            step = rng.standard_normal(3)
            points.append(np.concatenate(([0.5], center + scale * step / np.linalg.norm(step))))
    seen = set()
    for x in points:
        got = _outcome(form, x.tolist())
        want = _outcome(potential.value, x)
        if isinstance(want, tuple):
            seen.add("raises")
            assert got == want == _outcome(potential.partials, x)
            continue
        seen.add("form")
        a, slopes = got
        da = np.zeros((potential.dim,) * 2)
        for lam, mu, v in slopes:
            da[lam, mu] = v
        assert same_bits(np.array(a(), dtype=float), want)
        assert same_bits(da, potential.partials(x))
    assert seen == ({"raises", "form"} if center is not None else {"form"})
