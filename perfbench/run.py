"""Run one relmech benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program under test is the
``relmech`` package in ``src/`` of that checkout.  One client thread drives
a closed loop: each operation is one call of ``relmech.cli.main`` on inputs
generated from the seed, and starts only after the previous one returned and
its outputs were checked.  The loop runs whole rounds of the workload's
operations until ``--seconds`` have passed.

With ``--trace 0`` the run reports the end-to-end metrics.  Their times
are rescaled to a fixed machine speed (see ``paced``), because a shared
host's speed can drift by 1.6x from one stretch of seconds to the next.
With ``--trace 1`` every operation runs twice in a row, untraced and then
traced; the traced run must reproduce the untraced outputs byte for byte,
and the spans give the per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 11

#: iterations of the reference computation, and the wall seconds they take
#: on the machine the README's reference figures come from
REFERENCE_LOOPS = 4000
REFERENCE_S = 0.070
#: wall seconds ``import numpy`` takes in a fresh interpreter on that machine
IMPORT_REFERENCE_S = 0.080

_IMPORT_PROBE = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); m = importlib.import_module(sys.argv[2]); "
                 "print(time.perf_counter() - t, m.__file__)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def time_import(module: str):
    """Seconds ``import module`` takes in a fresh interpreter, and its file."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), module], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed:\n{proc.stderr}")
    seconds, where = proc.stdout.split(maxsplit=1)
    return float(seconds), Path(where.strip())


def reference() -> float:
    """Wall seconds of a fixed computation that shares no code with relmech.

    It runs the mix relmech's hot loops run: numpy calls on 4-vectors and
    4x4 matrices, and Python float arithmetic on their entries.
    """
    a = np.diag([1.0, -2.0, -3.0, -4.0]) + 0.01
    x = np.array([1.0, 0.2, 0.3, 0.4])
    total = 0.0
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        b = np.linalg.inv(a + (1e-6 * i) * np.eye(4))
        y = np.einsum("ij,j->i", b, x)
        total += float(y @ x) + sum(float(v) for v in np.abs(y))
    seconds = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference computation lost its value")
    return seconds


def paced(fn):
    """Call ``fn()`` between two runs of the reference computation.

    Returns ``fn``'s result and the factor that rescales wall seconds
    measured inside ``fn`` to the reference speed: ``REFERENCE_S`` over the
    mean of the two reference times.  The host's speed changes in stretches
    of several seconds, longer than one call, so the factor cancels it; a
    change to relmech moves the call and not the reference.
    """
    before = reference()
    result = fn()
    after = reference()
    return result, 2.0 * REFERENCE_S / (before + after)


def set_up(workload: str, seed: int, work: Path):
    """Time ``import relmech`` plus input generation, several times.

    Returns (median set-up seconds at the reference speed, median set-up
    wall seconds, median import wall seconds, operations).

    Each ``import relmech`` runs in a fresh interpreter, between two timings
    of ``import numpy`` in fresh interpreters; neighbouring repeats share
    one.  numpy is relmech's one dependency and the bulk of its import, and
    ``IMPORT_REFERENCE_S`` over the mean of the two numpy timings rescales
    the import to the reference speed.  Import time follows the host's
    speed less closely than computation does, so it needs a reference of
    its own kind.  Generating the inputs takes about 1% of set-up and is
    counted as wall time.
    """
    paced_totals, totals, imports = [], [], []
    ops = None
    numpy_before, _ = time_import("numpy")
    for _ in range(SETUP_REPEATS):
        imported, where = time_import("relmech")
        if where.resolve().parent != SRC / "relmech":
            raise RuntimeError(f"imported relmech from {where}, not from {SRC}")
        numpy_after, _ = time_import("numpy")
        scale = 2.0 * IMPORT_REFERENCE_S / (numpy_before + numpy_after)
        numpy_before = numpy_after
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        ops = workloads.build(workload, seed, work)
        generated = time.perf_counter() - start
        paced_totals.append(imported * scale + generated)
        totals.append(imported + generated)
        imports.append(imported)
    return (statistics.median(paced_totals), statistics.median(totals),
            statistics.median(imports), ops)


def call_cli(cli, argv) -> workloads.Outcome:
    """One operation: ``relmech.cli.main(argv)`` as the console script runs it.

    An exception that escapes ``main`` is printed as the interpreter would
    print it and gives exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the console script would die with a traceback
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    return workloads.Outcome(rc, out.getvalue(), err.getvalue(), seconds)


class Tally:
    """Attempted and failed operations, and the timed operations' totals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []           # failures of operations that are not probes
        self.probe_failures = []
        self.op_seconds = []      # wall seconds
        self.paced_seconds = []   # the same, at the reference speed
        self.steps = 0
        self.samples = 0
        self.drift = 0.0
        self.oracle_ratio = 0.0
        self.divergence = 0.0
        self.check_ratio = 0.0

    def add(self, op: workloads.Op, outcome: workloads.Outcome, verdict: workloads.Verdict,
            scale: Optional[float] = None):
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            failures = self.probe_failures if op.probe else self.wrong
            failures.append(f"{op.name}: {'; '.join(verdict.failures)}")
        if op.probe:
            return
        self.op_seconds.append(outcome.seconds)
        if scale is not None:
            self.paced_seconds.append(outcome.seconds * scale)
        self.steps += op.steps
        self.samples += verdict.samples
        self.drift = max(self.drift, verdict.drift)
        self.oracle_ratio = max(self.oracle_ratio, verdict.oracle_ratio)
        self.divergence = max(self.divergence, verdict.divergence)
        self.check_ratio = max(self.check_ratio, verdict.check_ratio)


def run_plain(cli, ops, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in ops:
            if op.probe:
                outcome, scale = call_cli(cli, op.argv), None
            else:
                outcome, scale = paced(lambda: call_cli(cli, op.argv))
            tally.add(op, outcome, op.verify(outcome), scale)
    return tally


def _outputs(op, outcome):
    """What a traced run must reproduce: exit code, both streams, CSV bytes."""
    csv = op.csv.read_bytes() if op.csv is not None and op.csv.exists() else None
    return outcome.rc, outcome.stdout, outcome.stderr, csv


def run_traced(cli, ops, seconds: float, tracer: spans.Tracer):
    """Each operation untraced and checked, then traced and compared.

    Probes are not traced: they are left out of every timing metric.
    """
    tally = Tally()
    rounds = 0
    traced_seconds = 0.0
    csv_bytes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            plain = call_cli(cli, op.argv)
            verdict = op.verify(plain)
            if not op.probe:
                expected = _outputs(op, plain)
                with tracer.installed(rounds * len(ops) + i):
                    traced = call_cli(cli, op.argv)
                verdict.require(_outputs(op, traced) == expected,
                                "traced run changed the outputs")
                traced_seconds += traced.seconds
                if op.csv is not None and op.csv.exists():
                    csv_bytes += op.csv.stat().st_size
            tally.add(op, plain, verdict)
        rounds += 1
    return tally, rounds, traced_seconds, csv_bytes


def end_to_end(workload: str, tally: Tally, setup_s: float, seconds=None) -> dict:
    """End-to-end metrics from ``seconds``, by default the paced operation times."""
    seconds = tally.paced_seconds if seconds is None else seconds
    busy = sum(seconds)
    # check integrates nothing: there a step is one identity sample
    work = tally.samples if workload == "invariant_check" else tally.steps
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(seconds), "s"),
        "steps_per_s": (work / busy, "steps/s"),
        "samples_per_s": (tally.samples / busy, "samples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(ops, tally: Tally, rounds: int, traced_seconds: float, csv_bytes: int,
              import_s: float, stats: spans.SpanStats) -> dict:
    """Per-layer metrics, each per round of the workload unless it is a ratio."""
    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    timed = [op for op in ops if not op.probe]
    geodesic_steps = rounds * sum(op.geodesic_steps for op in timed)
    hamiltonian_steps = rounds * sum(op.hamiltonian_steps for op in timed)
    csv_write = stats.total("cli.write_trajectory_csv") + stats.total("cli.write_phase_csv")
    m = {
        "import_s": (import_s, "s"),
        "cli.load_config_s": (per_round(stats.total("cli.load_config")), "s"),
        "cli.csv_write_s": (per_round(csv_write), "s"),
        "cli.csv_mb_per_s": (ratio(csv_bytes / 1e6, csv_write), "MB/s"),
        "geometry.self_s": (per_round(stats.layer_self("geometry")), "s"),
        "geometry.calls": (per_round(stats.layer_calls("geometry")), "count"),
    }
    for fn in ("inverse_metric_at", "christoffel_at"):
        name = f"geometry.{fn}"
        m[f"{name}.calls"] = (per_round(stats.count(name)), "count")
        m[f"{name}.us"] = (1e6 * ratio(stats.total(name), stats.count(name)), "us")
    for fn in ("metric_at", "g_value", "faraday_at"):
        m[f"geometry.{fn}.calls"] = (per_round(stats.count(f"geometry.{fn}")), "count")
    m.update({
        "dynamics.self_s": (per_round(stats.layer_self("dynamics")), "s"),
        "dynamics.rhs_evals": (per_round(stats.count("dynamics.Connection.K")), "count"),
        "dynamics.step_us": (1e6 * ratio(stats.total("dynamics.integrate_geodesic"),
                                         geodesic_steps), "us"),
        "hamiltonian.self_s": (per_round(stats.layer_self("hamiltonian")), "s"),
        "hamiltonian.grad_x.calls": (per_round(stats.count("hamiltonian.grad_x")), "count"),
        "hamiltonian.grad_p.calls": (per_round(stats.count("hamiltonian.grad_p")), "count"),
        "hamiltonian.step_us": (1e6 * ratio(stats.total("hamiltonian.integrate_hamiltonian"),
                                            hamiltonian_steps), "us"),
        "lagrangian.self_s": (per_round(stats.layer_self("lagrangian")), "s"),
        "lagrangian.three_euler_lagrange.calls":
            (per_round(stats.count("lagrangian.three_euler_lagrange")), "count"),
        "lagrangian.el_evals_per_acceleration":
            (ratio(stats.children_of("lagrangian.three_euler_lagrange",
                                     "lagrangian.three_acceleration"),
                   stats.count("lagrangian.three_acceleration")), "count"),
        "kinematics.self_s": (per_round(stats.layer_self("kinematics")), "s"),
        "kinematics.four_from_three.calls":
            (per_round(stats.count("kinematics.four_from_three")), "count"),
        "kinematics.lift_s": (per_round(stats.total("kinematics.lift_three_solution")), "s"),
        "checks.self_s": (per_round(stats.layer_self("checks")), "s"),
        "cli.self_s": (per_round(stats.layer_self("cli")), "s"),
        "numerics.max_constraint_drift": (tally.drift, "1"),
        "numerics.max_oracle_error": (tally.oracle_ratio, "ratio"),
        "numerics.max_divergence": (tally.divergence, "1"),
        "numerics.max_check_residual_ratio": (tally.check_ratio, "ratio"),
        "trace.overhead_s": (per_round(traced_seconds - sum(tally.op_seconds)), "s"),
    })
    return m


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                             ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relmech" / "__init__.py").is_file():
        print(f"error: no relmech sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    setup_s, setup_wall_s, import_s, ops = set_up(args.workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    import relmech.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "relmech":
        print(f"error: imported relmech from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = spans.Tracer()
        tally, rounds, traced_seconds, csv_bytes = run_traced(cli, ops, args.seconds, tracer)
        metrics = per_layer(ops, tally, rounds, traced_seconds, csv_bytes, import_s,
                            spans.SpanStats(tracer))
    else:
        tally = run_plain(cli, ops, args.seconds)
        metrics = end_to_end(args.workload, tally, setup_s)
        wall = end_to_end(args.workload, tally, setup_wall_s, tally.op_seconds)

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed operations {len(tally.op_seconds)}")
    print(f"attempted {tally.attempted}  failed {tally.failed}")
    for failure in tally.wrong + sorted(set(tally.probe_failures)):
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        count = f"  (median of {len(tally.op_seconds)})" if name == "op_s_p50" else ""
        raw = f"  (wall clock {wall[name][0]:.6g})" if not args.trace and unit != "MB" else ""
        print(f"  {name:40s} {value:.6g} {unit}{count}{raw}")
    print("env " + json.dumps(env, sort_keys=True))

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        tracer.save(RESULTS / f"spans-{args.workload}.npz")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "env": env, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
