import math
import re
import warnings

import numpy as np
import pytest

import relmech as rm
import relmech.checks
import relmech.cli
import relmech.dynamics
import relmech.hamiltonian
from relmech.checks import (
    _CHECK_B,
    _CHECK_E,
    _check_record,
    _worst,
    run_invariant_checks,
    sample_point,
    sample_velocity,
)
from relmech.geometry import _check_point, contract_all

from conftest import counting_forms, dense_minkowski, shear_minkowski

DIAG = (1.5, -0.75, -2.0, -1.25)


# -- the per-sample loops as they were before one-pass evaluation --------------------

def _einsum_christoffel_and_inverse(metric, x):
    """Connection symbols through the einsum for every inverse."""
    dg = np.asarray(metric.partials(_check_point(x, metric.dim)), dtype=float)
    ginv = rm.inverse_metric_at(metric, x)
    s = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
    c = -0.5 * np.einsum("lb,mbn->mln", ginv, s)
    return 0.5 * (c + c.transpose(2, 1, 0)), ginv


def _einsum_dginv(ginv, dg):
    return -np.einsum("ac,lcd,db->lab", ginv, dg, ginv)


def _four_gradient_bracket(f, g, s):
    return (float(np.dot(f.grad_x(s.x, s.p), g.grad_p(s.x, s.p)))
            - float(np.dot(f.grad_p(s.x, s.p), g.grad_x(s.x, s.p))))


def _second_order_rhs_two_inversions(h, x, u):
    std = h.standard
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    m, e = std.mass, std.charge
    g = rm.metric_at(std.metric, x)
    ginv = rm.inverse_metric_at(std.metric, x)
    dg = np.asarray(std.metric.partials(x), float)
    da = np.asarray(std.potential.partials(x), float)
    dginv = _einsum_dginv(ginv, dg)

    w = m * (g @ u)
    p = w + e * np.asarray(std.potential.value(x), float)
    gp = ginv @ w / m
    mixed = (np.einsum("mln,n->lm", dginv, w) - e * np.einsum("ln,mn->lm", ginv, da)) / m
    gx = h.grad_x(x, p)
    return mixed @ gp - (ginv @ gx) / m


def _numpy_sample_velocity(metric, x, rng, margin=0.05):
    """``sample_velocity`` as it was before its float draw: g from
    ``metric_at``, every draw on numpy arrays."""
    g = rm.metric_at(metric, x)
    d = np.diag(g).copy()
    frame = None
    if np.count_nonzero(g) != np.count_nonzero(d):
        d, frame = np.linalg.eigh(g)
    sig = np.sign(d)
    scale = 1.0 / np.sqrt(np.abs(d))
    k = int(np.argmax(sig > 0))
    for _ in range(200):
        n = rng.standard_normal(metric.dim)
        uhat = 0.5 * n
        uhat[k] = math.copysign(1.0 + abs(n[k]), n[k])
        if float(np.sum(sig * uhat * uhat)) > margin:
            return scale * uhat if frame is None else frame @ (scale * uhat)
    raise rm.ConstraintUnreachable("velocity sampling failed to find G > margin")


def _block_velocities(metric, xs, rng, margin=0.05):
    """Velocities at the points ``xs`` as a block draw takes them, written as
    loops with the expressions of ``_numpy_sample_velocity``: each round draws
    one vector for each row still rejected, in row order, and a row that no
    round accepts in 200 gives up."""
    frames = []
    for x in xs:
        g = rm.metric_at(metric, x)
        d = np.diag(g).copy()
        frame = None
        if np.count_nonzero(g) != np.count_nonzero(d):
            d, frame = np.linalg.eigh(g)
        frames.append((np.sign(d), 1.0 / np.sqrt(np.abs(d)), frame))
    velocities = [None] * len(xs)
    rejected = list(range(len(xs)))
    for _ in range(200):
        if not rejected:
            return velocities
        still = []
        for i in rejected:
            sig, scale, frame = frames[i]
            k = int(np.argmax(sig > 0))
            n = rng.standard_normal(metric.dim)
            uhat = 0.5 * n
            uhat[k] = math.copysign(1.0 + abs(n[k]), n[k])
            if float(np.sum(sig * uhat * uhat)) > margin:
                velocities[i] = scale * uhat if frame is None else frame @ (scale * uhat)
            else:
                still.append(i)
        rejected = still
    if rejected:
        raise rm.ConstraintUnreachable("velocity sampling failed to find G > margin")
    return velocities


def _blocks(metric, rng, samples, velocity=False, normal=False):
    """The samples of one identity, block by block (``relmech.checks._BLOCK``
    each): a block's points, then their velocities, then one normal vector
    per sample; each sample as the tuple (x[, u][, normal])."""
    block = relmech.checks._BLOCK
    for start in range(0, samples, block):
        xs = [sample_point(metric, rng) for _ in range(min(block, samples - start))]
        columns = [xs]
        if velocity:
            columns.append(_block_velocities(metric, xs, rng))
        if normal:
            columns.append([rng.standard_normal(metric.dim) for _ in xs])
        yield from zip(*columns)


def _reference_checks(metric_id, samples, seed, diag=None):
    """``run_invariant_checks`` before one-pass evaluation, loop for loop: 11
    inversions per Schwarzschild sample, and velocities drawn on numpy arrays.
    Each identity draws its samples block by block, as ``_blocks`` gives
    them.  Run it with the einsum paths patched in."""
    metric = rm.catalog_metric(metric_id, diag=diag)
    rng = np.random.default_rng(seed)
    dim = metric.dim
    gfield = rm.GTensorField.from_metric(metric)
    potential = rm.uniform_field(_CHECK_E, _CHECK_B) if dim == 4 else rm.zero_potential(dim)
    model = rm.LagrangianModel(gfield, potential, mass=1.0, charge=1.0)
    ham = rm.standard_hamiltonian(metric, potential, mass=1.0, charge=1.0)
    shell = rm.mass_shell_scalar(ham)
    conn = rm.connection_from(metric, potential, mass=1.0, charge=1.0)
    conn_free = rm.levi_civita_connection(metric)

    checks = []

    worst = 0.0
    for x, u, a in _blocks(metric, rng, samples, velocity=True, normal=True):
        worst = max(worst, rm.noether_residual(model, x, u, a))
    checks.append(_check_record("noether_identity", samples, worst))

    worst = 0.0
    for x, u in _blocks(metric, rng, samples, velocity=True):
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
    for x, u in _blocks(metric, rng, samples, velocity=True):
        for c in (conn_free, conn):
            res = abs(rm.check_geodesic_condition(c, metric, x, u))
            res /= rm.geodesic_condition_scale(c, metric, x, u)
            worst = max(worst, res)
    checks.append(_check_record("geodesic_condition", samples, worst))

    worst = 0.0
    for x, p in _blocks(metric, rng, samples, normal=True):
        worst = max(worst, abs(_four_gradient_bracket(ham, shell, rm.PhaseState(x, p))))
    checks.append(_check_record("poisson_bracket", samples, worst))

    worst = 0.0
    for x, u in _blocks(metric, rng, samples, velocity=True):
        u = rm.project_to_shell(gfield, x, u)
        a_geo = rm.geodesic_rhs(conn, x, u)
        a_ham = _second_order_rhs_two_inversions(ham, x, u)
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


@pytest.mark.parametrize("metric_id, diag", [
    ("minkowski", None), ("euclidean", None), ("schwarzschild", None), ("diagonal", DIAG),
])
@pytest.mark.parametrize("seed", [0, 5])
def test_report_equals_reference_loops(monkeypatch, metric_id, diag, seed):
    report = run_invariant_checks(metric_id, samples=150, seed=seed, diag=diag)
    monkeypatch.setattr(relmech.dynamics, "_christoffel_and_inverse",
                        _einsum_christoffel_and_inverse)
    monkeypatch.setattr(relmech.hamiltonian, "_dginv", _einsum_dginv)
    assert report == _reference_checks(metric_id, 150, seed, diag)


def test_dginv_equals_einsum_on_a_dense_chart():
    # all 16 entries of g and all 64 of its partials are nonzero here, so the
    # matmul sums four terms in its own order; the tolerance is the shear
    # chart's, for entries that cancel
    dense = dense_minkowski(0.1)
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, 4)
        ginv = rm.inverse_metric_at(dense, x)
        dg = np.asarray(dense.partials(x))
        np.testing.assert_allclose(relmech.hamiltonian._dginv(ginv, dg),
                                   _einsum_dginv(ginv, dg), rtol=1e-13, atol=1e-15)


def test_six_inversions_per_identity_sample(inversion_count):
    # geodesic condition: free K + soldering (2); bracket: two flows (2);
    # RHS agreement: geodesic_rhs + second_order_rhs (2)
    run_invariant_checks("schwarzschild", samples=100)
    assert inversion_count[0] == 600
    # each block of samples is inverted in one call per use, however many
    # samples the block holds
    calls = inversion_count[1]
    run_invariant_checks("schwarzschild", samples=1000)
    assert inversion_count[1] - calls == calls



def test_form_reads_per_identity_sample(monkeypatch):
    # each block read is one float-form call per sample, reading g and its
    # partials together where a kernel reads them one after the other:
    # draws: one per velocity (4); noether: G and dG (1); projector: G (1);
    # geodesic condition: the connection's inverse and partials, the
    # soldering's inverse, and g and dg for each of two residuals (5);
    # bracket: inverse and partials in each of two flows (4); RHS agreement:
    # the connection (2) and second_order_rhs's g and partials (2), which
    # inverts the g it has read; project_to_shell's G (1).  The potential's
    # form: F in noether, the soldering and the connection (3), A and dA in
    # each flow (2 each), and A with dA together in second_order_rhs (1).
    metric, metric_calls = counting_forms(rm.schwarzschild(1.0))
    potential, potential_calls = counting_forms(rm.uniform_field(_CHECK_E, _CHECK_B))
    want = run_invariant_checks("schwarzschild", samples=100)
    monkeypatch.setattr(relmech.checks, "catalog_metric", lambda *args, **kwargs: metric)
    monkeypatch.setattr(relmech.checks, "uniform_field", lambda e, b: potential)
    assert run_invariant_checks("schwarzschild", samples=100) == want
    assert metric_calls == {"value": 0, "partials": 0, "form": 100 * 20}
    assert potential_calls == {"value": 0, "partials": 0, "form": 100 * 8}


# -- batched evaluation ---------------------------------------------------------

@pytest.mark.parametrize("metric_id, diag, block", [
    ("schwarzschild", None, 16), ("diagonal", DIAG, 16), ("euclidean", None, 16),
    ("minkowski", None, None),
])
def test_block_plus_one_equals_reference_loops(monkeypatch, metric_id, diag, block):
    if block is not None:
        monkeypatch.setattr(relmech.checks, "_BLOCK", block)
    samples = relmech.checks._BLOCK + 1
    report = run_invariant_checks(metric_id, samples=samples, seed=3, diag=diag)
    monkeypatch.setattr(relmech.dynamics, "_christoffel_and_inverse",
                        _einsum_christoffel_and_inverse)
    monkeypatch.setattr(relmech.hamiltonian, "_dginv", _einsum_dginv)
    assert report == _reference_checks(metric_id, samples, seed=3, diag=diag)


def _loop_worst(residuals):
    worst = 0.0
    for r in residuals:
        worst = max(worst, r)
    return worst


def _block_draw(draw):
    """A block draw for ``_worst`` from a per-sample ``draw()``: the samples
    drawn before the first draw that raises, stacked, and what it raises."""
    def block(n):
        rows, error = [], None
        try:
            for _ in range(n):
                rows.append(draw())
        except rm.COMPUTATION_ERRORS as exc:
            error = exc
        return [np.array(column) for column in zip(*rows)] or [np.empty(0)], error

    return block


@pytest.mark.parametrize("values", [
    [0.25, math.nan, 0.5, math.nan, 0.125],
    [math.nan, 0.3, 0.1],
    [math.nan, math.nan],
    [0.0, math.nan, math.inf, 2.0],
])
def test_nan_residual_reduces_as_the_loop(monkeypatch, values):
    monkeypatch.setattr(relmech.checks, "_BLOCK", 2)
    table = np.array(values)
    draws = iter(range(len(values)))
    worst = _worst(lambda k: table[k], _block_draw(lambda: (next(draws),)), len(values))
    assert worst == _loop_worst(values)


def test_nan_residual_in_a_check(monkeypatch):
    # a residual that is NaN for some samples of a block is passed over, as
    # the per-sample loop's max(worst, r) passes over it
    real = relmech.checks.noether_residual

    def patched(model, x, u, a):
        r = real(model, x, u, a)
        return np.where(np.asarray(x)[..., 0] > 0.0, math.nan, r)

    monkeypatch.setattr(relmech.checks, "noether_residual", patched)
    monkeypatch.setattr(relmech.checks, "_BLOCK", 8)
    report = run_invariant_checks("minkowski", samples=20, seed=1)
    rng = np.random.default_rng(1)
    metric = rm.minkowski()
    model = rm.LagrangianModel(rm.GTensorField.from_metric(metric),
                               rm.uniform_field(_CHECK_E, _CHECK_B), 1.0, 1.0)
    loop = [float(patched(model, x, u, a))
            for x, u, a in _blocks(metric, rng, 20, velocity=True, normal=True)]
    assert any(math.isnan(r) for r in loop)
    assert report["checks"][0]["max_residual"] == _loop_worst(loop)


def test_first_failing_sample_raises_as_in_the_loop():
    def identity(k):
        k = np.asarray(k)
        failing = k[k >= 3]
        if failing.size:  # a batch names its last failure, the loop its first
            raise ValueError(f"sample {int(failing.max())} failed")
        return 0.0 * k

    draws = iter(range(6))
    with pytest.raises(ValueError, match="^sample 3 failed$"):
        _worst(identity, _block_draw(lambda: (next(draws),)), 6)

    # a failure while drawing comes after the failures of the samples drawn before it
    def draw():
        k = next(draws)
        if k == 5:
            raise rm.ConstraintUnreachable("draw 5 failed")
        return (k,)

    draws = iter(range(6))
    with pytest.raises(ValueError, match="^sample 3 failed$"):
        _worst(identity, _block_draw(draw), 6)
    draws = iter(range(6))
    with pytest.raises(rm.ConstraintUnreachable, match="^draw 5 failed$"):
        _worst(lambda k: 0.0 * np.asarray(k), _block_draw(draw), 6)


def test_floating_point_exception_falls_back_to_the_loop():
    # overflow in a batch re-runs the block sample by sample, which warns as
    # the per-sample loop warns (numpy words a scalar's warning differently)
    # and gives its residuals
    def identity(v):
        return np.asarray(v) * 1e300

    values = [1.0, 1e10, 2.0]
    with warnings.catch_warnings(record=True) as loop:
        warnings.simplefilter("always")
        want = _loop_worst([float(identity(np.float64(v))) for v in values])
    draws = iter(values)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        worst = _worst(identity, _block_draw(lambda: (np.float64(next(draws)),)), len(values))
    assert worst == want == math.inf
    assert [str(w.message) for w in got] == [str(w.message) for w in loop]
    assert loop

    # a sample after the first failing one is never evaluated, so its
    # overflow does not warn
    def failing(v):
        r = identity(v)
        if np.any(r < 0.0):
            raise ValueError("negative sample")
        return r

    draws = iter([1.0, -1.0, 1e10])
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="negative sample"):
            _worst(failing, _block_draw(lambda: (np.float64(next(draws)),)), 3)
    assert not got


# -- the block draw ---------------------------------------------------------------

def _formless(entries):
    """The constant metric diag(entries), declaring no float form."""
    g = np.diag(entries)
    return rm.MetricField(len(entries), lambda x: g.copy(), lambda x: np.zeros((len(entries),) * 3))


def _timelike_where_t_is_positive():
    """diag(1, -1, -1, -1) where x^0 > 0, else diag(-1, -1, -1, -1), which
    has no timelike direction; declares no form."""
    def value(x):
        return np.diag([1.0 if x[0] > 0.0 else -1.0, -1.0, -1.0, -1.0])

    return rm.MetricField(4, value, lambda x: np.zeros((4, 4, 4)))


@pytest.mark.parametrize("metric, margin", [
    (rm.diagonal_metric(DIAG), 0.9), (rm.schwarzschild(1.0), 0.9), (rm.minkowski(9), 0.05),
    (_formless(DIAG), 0.9), (shear_minkowski(0.9)[0], 0.9),
], ids=["diagonal", "schwarzschild", "minkowski-9", "formless", "non-diagonal"])
def test_block_draw_equals_the_round_loop(metric, margin):
    # a block of rows drawn at once has, row for row, the velocities and the
    # generator state of the loop that draws round by round, rows that are
    # rejected and drawn again included
    points = np.random.default_rng(8)
    for n in (1, 2, 37):
        xs = relmech.checks._points(metric, points, n)
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        got, error = relmech.checks._velocities(metric, xs, ours, margin)
        want = _block_velocities(metric, list(xs), theirs, margin)
        assert error is None
        assert got.shape == (n, metric.dim)
        assert got.tobytes() == np.array(want).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert sample_velocity(metric, xs, np.random.default_rng(n), margin).tobytes() == got.tobytes()
    one_round = np.random.default_rng(37)
    one_round.standard_normal((37, metric.dim))
    assert ours.bit_generator.state != one_round.bit_generator.state  # a row was drawn again


def test_block_draw_stops_at_the_first_failing_row():
    # the rows before the first row whose draw fails are drawn as a block of
    # their own, and that row's error comes back with them
    metric = rm.schwarzschild(1.0)
    xs = relmech.checks._points(metric, np.random.default_rng(2), 6)
    xs[3, 2] = xs[5, 2] = 0.0  # rows 3 and 5 at the pole, where g_33 = 0
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    got, error = relmech.checks._velocities(metric, xs, ours, 0.05)
    assert isinstance(error, rm.SingularMetric)
    assert str(error) == f"metric is singular at x = {xs[3]}"
    want = _block_velocities(metric, list(xs[:3]), theirs)
    assert got.tobytes() == np.array(want).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
    with pytest.raises(rm.SingularMetric, match=re.escape(str(error))):
        sample_velocity(metric, xs, np.random.default_rng(5))

    # a row that no round accepts: the rows before it have velocities
    metric = _timelike_where_t_is_positive()
    xs = np.array([[0.5, 0.0, 0.0, 0.0], [0.25, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                   [1.0, 0.0, 2.0, 0.0]])
    got, error = relmech.checks._velocities(metric, xs, np.random.default_rng(0), 0.05)
    assert isinstance(error, rm.ConstraintUnreachable) and len(got) == 2
    assert all(rm.g_value(rm.GTensorField.from_metric(metric), x, u) > 0.05
               for x, u in zip(xs, got))


@pytest.mark.parametrize("metric_id, diag", [
    ("minkowski", None), ("euclidean", None), ("schwarzschild", None), ("diagonal", DIAG),
])
def test_check_passes_at_seeds_0_to_9(metric_id, diag):
    for seed in range(10):
        assert run_invariant_checks(metric_id, samples=1000, seed=seed, diag=diag)["pass"]


# -- one point, a block of one ----------------------------------------------------

@pytest.mark.parametrize("metric", [
    rm.minkowski(), rm.euclidean(), rm.schwarzschild(1.0), rm.diagonal_metric(DIAG),
    rm.diagonal_metric([-1.0, 2.0, -3.0, 0.5]),  # the boosted direction is not the first
    rm.diagonal_metric([1e-200, 1e-200, -1e-200, -1e-200]),
    rm.minkowski(3), rm.minkowski(7), rm.minkowski(9),  # numpy sums 8 or more pairwise
], ids=["minkowski", "euclidean", "schwarzschild", "diagonal", "boost-1", "tiny",
        "minkowski-3", "minkowski-7", "minkowski-9"])
def test_float_draw_equals_the_numpy_draw(metric):
    # the same velocities, bit for bit, and the same state of the generator after
    assert relmech.geometry._float_form(metric) is not None
    points = np.random.default_rng(11)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for margin in (0.05, 0.05, 0.05, 0.9, 0.0):
        for _ in range(200):
            x = sample_point(metric, points)
            got = sample_velocity(metric, x, ours, margin)
            want = _numpy_sample_velocity(metric, x, theirs, margin)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_float_draw_sums_in_numpy_order():
    # a draw whose sum of sig u u, in numpy's order, equals the margin is
    # rejected; summed in another order it would exceed the margin
    metric = rm.diagonal_metric(DIAG)
    sig = np.sign(np.array(DIAG))
    x = np.zeros(4)
    found = 0
    for seed in range(2000):
        n = np.random.default_rng(seed).standard_normal(4)
        uhat = 0.5 * n
        uhat[0] = math.copysign(1.0 + abs(n[0]), n[0])
        terms = (sig * uhat * uhat).tolist()
        margin = float(np.sum(sig * uhat * uhat))
        others = [((terms[3] + terms[2]) + terms[1]) + terms[0],
                  (terms[0] + terms[1]) + (terms[2] + terms[3])]
        if 0.0 < margin < 1.0 and max(others) > margin:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_velocity(metric, x, ours, margin)
            assert got.tobytes() == _numpy_sample_velocity(metric, x, theirs, margin).tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state
            first = np.random.default_rng(seed)
            first.standard_normal(4)  # the rejected draw
            assert ours.bit_generator.state != first.bit_generator.state
            found += 1
    assert found >= 5


def test_metric_without_a_form_takes_the_numpy_draw():
    # d comes from ``value`` here, with the bits of the draw from the form
    metric = _formless(DIAG)
    assert relmech.geometry._float_form(metric) is None
    ours, theirs = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(100):
        x = sample_point(metric, ours)
        assert np.array_equal(x, sample_point(metric, theirs))
        got = sample_velocity(metric, x, ours)
        assert got.tobytes() == _numpy_sample_velocity(metric, x, theirs).tobytes()


@pytest.mark.parametrize("metric, x", [
    (rm.schwarzschild(1.0), [0.0, 2.0 + 4e-9, 1.2, 0.3]),  # just above r_min: cond ~ 1e17
    (rm.schwarzschild(1.0), [0.0, 10.0, 1e-7, 0.3]),  # just off the pole: cond ~ 1e14
    (rm.diagonal_metric([1.0, -1e-13, -1.0, -1.0]), [0.5, -1.0, 0.25, 2.0]),
], ids=["near-horizon", "near-pole", "diagonal"])
def test_point_where_g_is_badly_conditioned_draws_without_inverting(inversion_count,
                                                                      metric, x):
    # inverse_metric_at rejects g here, which the draw never inverts: the
    # draw has the numpy draw's bits and generator state
    x = np.array(x)
    with pytest.raises(rm.SingularMetric):
        rm.inverse_metric_at(metric, x)
    inverted = list(inversion_count)
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(50):
        got = sample_velocity(metric, x, ours)
        assert got.tobytes() == _numpy_sample_velocity(metric, x, theirs).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert inversion_count == inverted


@pytest.mark.parametrize("theta", [0.0, -0.0])
def test_schwarzschild_pole_takes_the_numpy_draw(theta):
    # g_33 is a zero there, which the draw cannot divide by: it finds the
    # zero and raises before it draws, with no warning and the generator
    # untouched
    metric = rm.schwarzschild(1.0)
    x = np.array([0.0, 10.0, theta, 0.3])
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rm.SingularMetric) as got:
            sample_velocity(metric, x, rng)
    assert str(got.value) == f"metric is singular at x = {x}"
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("g", [
    np.diag([1.0, -1.0, 0.0, -1.0]),  # a zero entry of d
    np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],  # eigh gives (-1, -1, 0, 2)
              [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
])
def test_metric_without_a_form_where_g_is_singular_raises(g):
    metric = rm.MetricField(4, lambda x: g.copy(), lambda x: np.zeros((4, 4, 4)))
    x = np.array([0.0, 0.5, -1.0, 2.0])
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(rm.SingularMetric, match=re.escape(f"metric is singular at x = {x}")):
        sample_velocity(metric, x, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mass", [1.0, 2.5])
def test_schwarzschild_point_is_four_uniform_draws(mass):
    # one rng.random(4) gives the bits of one rng.uniform(low, high) per
    # coordinate, and leaves the generator where they leave it
    metric = rm.schwarzschild(mass)
    for seed in range(10):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            want = np.array([theirs.uniform(-1.0, 1.0),
                             theirs.uniform(3.0 * mass, 20.0 * mass),
                             theirs.uniform(0.4, math.pi - 0.4),
                             theirs.uniform(0.0, 2.0 * math.pi)])
            assert sample_point(metric, ours).tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_unreachable_velocity_gives_up_after_200_draws(capsys):
    metric = rm.diagonal_metric([-1.0, -1.0, -1.0, -1.0])
    x = np.zeros(4)
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    message = "^velocity sampling failed to find G > margin$"
    with pytest.raises(rm.ConstraintUnreachable, match=message):
        sample_velocity(metric, x, ours)
    with pytest.raises(rm.ConstraintUnreachable, match=message):
        _numpy_sample_velocity(metric, x, theirs)
    draws = np.random.default_rng(0)
    for _ in range(200):
        draws.standard_normal(4)
    assert ours.bit_generator.state == theirs.bit_generator.state == draws.bit_generator.state

    with pytest.raises(rm.ConstraintUnreachable, match=message):
        run_invariant_checks("diagonal", samples=10, diag=(-1.0, -1.0, -1.0, -1.0))
    with pytest.raises(rm.ConstraintUnreachable, match=message):
        _reference_checks("diagonal", 10, 0, diag=(-1.0, -1.0, -1.0, -1.0))
    code = relmech.cli.main(["check", "--metric", "diagonal", "--diag=-1,-1,-1,-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().endswith("velocity sampling failed to find G > margin")
    assert "\n" not in captured.err.strip() and "Traceback" not in captured.err


def test_numpy_draw_gives_up_after_200_draws():
    # a metric without a form and without a timelike direction: the draw
    # gives up as it does on a metric with a form, after the same draws
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(rm.ConstraintUnreachable, match="^velocity sampling failed to find G > margin$"):
        sample_velocity(_formless([-1.0, -1e-13, -1.0, -1.0]), np.zeros(4), ours)
    for _ in range(200):
        theirs.standard_normal(4)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_sample_velocity_on_a_non_diagonal_metric():
    metric, _ = shear_minkowski(0.9)
    gfield = rm.GTensorField.from_metric(metric)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, 4)
        assert rm.g_value(gfield, x, sample_velocity(metric, x, rng)) > 0.05
