"""One sha256 over every output of the benchmark operations and of ``check``.

    python3 tools/output_digest.py TREE [--each]

TREE is the root of a source checkout; its ``relmech`` package (``src/``)
runs the operations and its ``perfbench/workloads.py`` writes their inputs.
The digest covers, in a fixed order:

* every operation of ``workloads.build`` for each workload at seeds 0-2: the
  exit code, stdout, stderr and the bytes of the operation's CSV;
* ``relmech check`` on the four catalog metrics and on five diagonal
  metrics at the edge of the checks (``1e-200,...`` and ``3,-1e-11,-1,-7``;
  ``-1,-1,-1,-1``, where no velocity has G > 0 and the sampler gives up;
  ``-1,-1e-13,-1,-1``, which gives up too, with a condition number of 1e13
  that the draw never tests; ``1,-1e-13,-1,-1``, which
  ``inverse_metric_at`` rejects at every point), at
  seeds 0-3 with 50 and 1025 samples (1025 is one sample past a block),
  and on each catalog metric at seed 0 with 2049 samples (one sample past
  a second block, which a fault in a later block's draw changes): the exit
  code, the JSON report and stderr;
* each demo under ``demos/``, run in process with warnings as errors, as
  ``python -W error`` would run it: the exit code, stdout and stderr;
* a coverage round of ``simulate`` and ``compare`` runs on paths that no
  workload reaches (``COVERAGE``): Coulomb potentials in every scenario
  kind, charged Schwarzschild runs off the equator, ``projection =
  rescale``, the euclidean and diagonal metrics under an electric field,
  sign -1 and charge-0 three-velocity runs, charged Schwarzschild
  three-velocity runs under Coulomb and uniform E, B potentials, runs
  that fail at the pole (three-velocity too) and at the horizon, runs
  that start just off the pole (theta = 1e-7), where g's condition number
  is about 1e14, so the geodesic and Hamiltonian runs fail and the
  chart-time run, which never inverts g, completes, runs
  on ``diag = 1e308,1e308,-1e308,-1e308``, whose entries are finite but
  whose sum of |g_aa| overflows, three-velocity runs where g is too badly
  conditioned to invert, which that picture never does (a near-singular
  diagonal metric and a plunge towards Schwarzschild's horizon), and on
  every stage that Python floats cannot follow: a metric whose Gbar^(3/2)
  underflows and one whose Gbar overflows; and a three-velocity run at
  q^0 = 1e20,
  where q^0 + dt rounds back to q^0 and the lift rejects the chart times.
  Each is hashed as the workload operations are.

Each round of operations runs in a fresh temporary directory, and the paths
of that directory and of TREE are masked in every byte hashed, so two
checkouts that compute the same outputs print the same digest.  Nothing is
written under TREE: the inputs and outputs live in the temporary directory
and no bytecode is cached.  ``--each`` also prints one line per operation, its name and hash,
before the digest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import os
import runpy
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

sys.dont_write_bytecode = True

SEEDS = (0, 1, 2)
CHECK_SEEDS = (0, 1, 2, 3)
CHECK_SAMPLES = (50, 1025)
#: samples of the one run per catalog metric (seed 0) that reaches a third block
CHECK_THIRD_BLOCK = 2049
CHECK_METRICS = (
    ("minkowski", []),
    ("euclidean", []),
    ("schwarzschild", []),
    ("diagonal", ["--diag=1.5,-0.75,-2,-1.25"]),
    ("diagonal", ["--diag=1e-200,1e-200,-1e-200,-1e-200"]),
    ("diagonal", ["--diag=3,-1e-11,-1,-7"]),
    ("diagonal", ["--diag=-1,-1,-1,-1"]),
    ("diagonal", ["--diag=-1,-1e-13,-1,-1"]),
    ("diagonal", ["--diag=1,-1e-13,-1,-1"]),
)

_FLAT = {"dimension": 4, "metric": "minkowski"}
_SCHW = {"dimension": 4, "metric": "schwarzschild", "M": "1"}
_COULOMB = {"kind": "coulomb", "q": "-0.3", "center": "0,0,0"}
_SCHW_COULOMB = {"kind": "coulomb", "q": "0.4", "center": "1.5,-0.5,0.25"}
_EB = {"kind": "uniform_field", "E": "0.01,0.02,-0.01", "B": "0.02,-0.01,0.03"}
_OFF_EQUATOR = {"mass": "1", "charge": "0.5", "x0": "0,12,1.1,0.3",
                "u0": "1.1,0.02,0.01,0.03", "normalize": "true"}
_ORBIT = {"dt": "0.5", "steps": "300"}
#: a charged chart-time start off the equator, close in, whose every v
#: component is large enough that the radial row of (dg . u) . u and the
#: v . dd sums add terms of comparable size: with dt = 0.5 an ulp of the
#: acceleration reaches the state, so their summation order shows in the bits
_SCHW_CHART_TIME = {"mass": "1", "charge": "0.5", "x0": "0,8,1.1,0.3",
                    "v0": "0.1,0.03,0.05"}

#: a charged flat-chart chart-time start for the runs on extreme diagonal metrics
_FLAT_CHART_TIME = {"charge": "0.5", "x0": "0,0.3,-0.2,0.4", "v0": "0,0.05,-0.02"}

#: (name, kinds, INI sections without the scenario and output) of the coverage round
COVERAGE = (
    ("coulomb", ("geodesic", "hamiltonian", "compare"),
     {"manifold": _FLAT, "potential": _COULOMB,
      "particle": {"charge": "1", "x0": "0,10,0,0", "u0": "1,0,0.16,0", "normalize": "true"},
      "integrator": _ORBIT}),
    ("coulomb-chart-time", ("three_velocity",),
     {"manifold": _FLAT, "potential": _COULOMB,
      "particle": {"charge": "1", "x0": "0,10,0,0", "v0": "0,0.16,0"},
      "integrator": _ORBIT}),
    ("coulomb-rescale", ("geodesic",),
     {"manifold": _FLAT, "potential": _COULOMB,
      "particle": {"charge": "1", "x0": "0,10,0,0", "u0": "1,0,0.16,0", "normalize": "true"},
      "integrator": {**_ORBIT, "projection": "rescale"}}),
    ("schwarzschild-eb", ("geodesic", "hamiltonian"),
     {"manifold": _SCHW, "potential": _EB, "particle": _OFF_EQUATOR,
      "integrator": {"dt": "0.25", "steps": "400"}}),
    ("schwarzschild-coulomb", ("geodesic", "hamiltonian", "compare"),
     {"manifold": _SCHW, "potential": _SCHW_COULOMB, "particle": _OFF_EQUATOR,
      "integrator": {"dt": "0.25", "steps": "400"}}),
    ("schwarzschild-eb-rescale", ("geodesic",),
     {"manifold": _SCHW, "potential": _EB, "particle": _OFF_EQUATOR,
      "integrator": {"dt": "0.25", "steps": "400", "projection": "rescale"}}),
    ("euclidean-e", ("geodesic", "hamiltonian", "compare"),
     {"manifold": {"dimension": 4, "metric": "euclidean"},
      "potential": {"kind": "uniform_field", "E": "0.3,-0.2,0.1", "B": "0,0,0.5"},
      "particle": {"charge": "0.7", "x0": "0,1,-1,0.5", "u0": "1,0.2,-0.1,0.3",
                   "normalize": "true"},
      "integrator": {"dt": "0.05", "steps": "300"}}),
    ("diagonal-e", ("geodesic", "hamiltonian", "compare"),
     {"manifold": {"dimension": 4, "metric": "diagonal", "diag": "1.5,-0.75,-2,-1.25"},
      "potential": {"kind": "uniform_field", "E": "0.3,-0.2,0.1", "B": "0.1,0,0.5"},
      "particle": {"charge": "-0.7", "x0": "0,1,-1,0.5", "u0": "1,0.2,-0.1,0.3",
                   "normalize": "true"},
      "integrator": {"dt": "0.05", "steps": "300"}}),
    ("sign-minus", ("three_velocity",),
     {"manifold": _FLAT, "potential": _EB,
      "particle": {"charge": "1", "x0": "0,0,0,0", "v0": "0.3,-0.1,0.2", "sign": "-1"},
      "integrator": {"dt": "0.1", "steps": "300"}}),
    ("schwarzschild-coulomb-chart-time", ("three_velocity",),
     {"manifold": _SCHW, "potential": _SCHW_COULOMB, "particle": _SCHW_CHART_TIME,
      "integrator": {"dt": "0.5", "steps": "300"}}),
    ("schwarzschild-eb-chart-time", ("three_velocity",),
     {"manifold": _SCHW, "potential": _EB, "particle": _SCHW_CHART_TIME,
      "integrator": {"dt": "0.5", "steps": "300"}}),
    ("charge-zero", ("three_velocity",),
     {"manifold": _SCHW, "potential": _SCHW_COULOMB,
      "particle": {"charge": "0", "x0": "0,12,1.1,0.3", "v0": "0.02,0.01,0.03"},
      "integrator": {"dt": "0.25", "steps": "300"}}),
    ("pole", ("geodesic", "hamiltonian"),
     {"manifold": _SCHW, "potential": _EB,
      "particle": {"charge": "0.5", "x0": "0,10,0,0", "u0": "1.1,0,0,0.01",
                   "normalize": "true"},
      "integrator": {"dt": "0.25", "steps": "10"}}),
    ("pole-chart-time", ("three_velocity",),
     {"manifold": _SCHW, "potential": _EB,
      "particle": {"charge": "0.5", "x0": "0,10,0,0", "v0": "0.01,0,0"},
      "integrator": {"dt": "0.25", "steps": "10"}}),
    ("near-pole", ("three_velocity", "geodesic", "hamiltonian"),
     {"manifold": _SCHW,
      "particle": {"mass": "1", "charge": "0", "x0": "0,10,1e-7,0", "v0": "0.01,0,0.02"},
      "integrator": {"dt": "0.5", "steps": "20"}}),
    ("huge-diagonal", ("geodesic", "hamiltonian", "compare"),
     {"manifold": {"dimension": 4, "metric": "diagonal",
                   "diag": "1e308,1e308,-1e308,-1e308"},
      "potential": _EB,
      "particle": {"charge": "0.5", "x0": "0,0,0,0", "u0": "1.1,0.2,-0.1,0.3",
                   "normalize": "true"},
      "integrator": {"dt": "0.05", "steps": "300"}}),
    ("near-singular-chart-time", ("three_velocity",),
     {"manifold": {"dimension": 4, "metric": "diagonal", "diag": "1,-1e-13,-1,-1"},
      "potential": {"kind": "uniform_field", "E": "0,0.02,0", "B": "0.03,0,0"},
      "particle": _FLAT_CHART_TIME, "integrator": {"dt": "0.1", "steps": "200"}}),
    ("underflow-chart-time", ("three_velocity",),
     {"manifold": {"dimension": 4, "metric": "diagonal",
                   "diag": "1e-250,-1e-250,-1e-250,-1e-250"},
      "potential": _EB, "particle": {**_FLAT_CHART_TIME, "v0": "0.1,0.05,-0.02"},
      "integrator": {"dt": "0.1", "steps": "200"}}),
    ("overflow-chart-time", ("three_velocity",),
     {"manifold": {"dimension": 4, "metric": "diagonal",
                   "diag": "1e250,-1e250,-1e250,-1e250"},
      "potential": _EB, "particle": {**_FLAT_CHART_TIME, "v0": "0.1,0.05,-0.02"},
      "integrator": {"dt": "0.1", "steps": "200"}}),
    ("stalled-chart-time", ("three_velocity",),
     {"manifold": _FLAT,
      "particle": {**_FLAT_CHART_TIME, "x0": "1e20,0,0,0"},
      "integrator": {"dt": "0.01", "steps": "5"}}),
    ("horizon-chart-time", ("three_velocity",),
     {"manifold": _SCHW,
      "particle": {"charge": "0", "x0": "0,4,1.2,0", "v0": "-0.3,0,0"},
      "integrator": {"dt": "0.5", "steps": "400"}}),
    ("plunge", ("geodesic", "hamiltonian"),
     {"manifold": _SCHW, "potential": _SCHW_COULOMB,
      "particle": {"charge": "0.5", "x0": "0,3,1.2,0", "u0": "2,-0.5,0.01,0",
                   "normalize": "true"},
      "integrator": {"dt": "0.05", "steps": "10000"}}),
)


def run_captured(call):
    """Exit code, stdout and stderr of ``call()``, which returns the exit
    code, as a console script would give them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the console script would die with a traceback
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def op_hash(rc, stdout, stderr, csv: bytes, masks) -> str:
    h = hashlib.sha256()
    for part in (str(rc).encode(), stdout.encode(), stderr.encode(), csv):
        for path, name in masks:
            part = part.replace(path, name)
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def coverage_ops(work: Path):
    """The (name, call, csv) of every run of ``COVERAGE``, with its INI
    written under ``work``.  A simulate run writes every 10th sample."""
    from relmech import cli

    ops = []
    for name, kinds, sections in COVERAGE:
        for kind in kinds:
            label = f"{name}.{kind}"
            csv = work / f"{label}.csv"
            output = {} if kind == "compare" else {"csv": str(csv), "every": "10"}
            lines = []
            for section, entries in {"scenario": {"kind": kind}, **sections,
                                     "output": output}.items():
                lines.append(f"[{section}]")
                lines.extend(f"{key} = {value}" for key, value in entries.items())
            ini = work / f"{label}.ini"
            ini.write_text("\n".join(lines) + "\n", encoding="utf-8")
            command = "compare" if kind == "compare" else "simulate"
            ops.append((label, functools.partial(cli.main, [command, str(ini)]),
                        None if kind == "compare" else csv))
    return ops


def run_demo(path: Path) -> int:
    """Run a demo script as ``__main__`` with warnings as errors; exit code 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    return 0


def rounds(cli, tree: Path):
    """(name, ops) of every round, in digest order: ``ops(work)`` writes the
    round's inputs under ``work`` and returns its (name, call, csv or None),
    where ``call()`` runs the operation and returns its exit code."""
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            def ops(work, workload=workload, seed=seed):
                return [(op.name, functools.partial(cli.main, op.argv), op.csv)
                        for op in workloads.build(workload, seed, work)]
            yield f"{workload}.{seed}", ops
    checks = []
    for metric, extra in CHECK_METRICS:
        for seed in CHECK_SEEDS:
            for samples in CHECK_SAMPLES:
                argv = ["check", "--metric", metric, "--samples", str(samples),
                        "--seed", str(seed)] + extra
                checks.append((" ".join(argv[1:]), functools.partial(cli.main, argv), None))
    for metric, extra in CHECK_METRICS[:4]:  # the catalog metrics
        argv = ["check", "--metric", metric, "--samples", str(CHECK_THIRD_BLOCK),
                "--seed", "0"] + extra
        checks.append((" ".join(argv[1:]), functools.partial(cli.main, argv), None))
    yield "check", lambda work: checks
    demos = [(path.name, functools.partial(run_demo, path), None)
             for path in sorted((tree / "demos").glob("0*.py"))]
    yield "demos", lambda work: demos
    yield "coverage", coverage_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="root of a source checkout")
    parser.add_argument("--each", action="store_true",
                        help="print each operation's hash before the digest")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from relmech import cli
    if Path(cli.__file__).resolve().parents[2] != tree:  # an installed copy came first
        parser.error(f"relmech was imported from {cli.__file__}, not from {tree / 'src'}")

    digest = hashlib.sha256()
    count = 0
    home = os.getcwd()
    for round_name, ops in rounds(cli, tree):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp).resolve()
            masks = [(str(work).encode(), b"<tmp>"), (str(tree).encode(), b"<tree>")]
            os.chdir(work)
            try:
                for name, call, csv in ops(work):
                    rc, stdout, stderr = run_captured(call)
                    data = csv.read_bytes() if csv is not None and csv.exists() else b""
                    h = op_hash(rc, stdout, stderr, data, masks)
                    if args.each:
                        print(h, f"{round_name}: {name}")
                    digest.update(h.encode())
                    count += 1
            finally:
                os.chdir(home)
    print(f"{digest.hexdigest()}  ({count} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
