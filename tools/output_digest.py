"""One sha256 over every output of the benchmark operations and of ``check``.

    python3 tools/output_digest.py TREE [--each]

TREE is the root of a source checkout; its ``relmech`` package (``src/``)
runs the operations and its ``perfbench/workloads.py`` writes their inputs.
The digest covers, in a fixed order:

* every operation of ``workloads.build`` for each workload at seeds 0-2: the
  exit code, stdout, stderr and the bytes of the operation's CSV;
* ``relmech check`` on the four catalog metrics and on two diagonal metrics
  at the edge of the checks (``1e-200,...`` and ``3,-1e-11,-1,-7``), at
  seeds 0-3 with 50 and 1025 samples (1025 is one sample past a block): the
  exit code, the JSON report and stderr;
* each demo under ``demos/``, run in process with warnings as errors, as
  ``python -W error`` would run it: the exit code, stdout and stderr.

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
CHECK_METRICS = (
    ("minkowski", []),
    ("euclidean", []),
    ("schwarzschild", []),
    ("diagonal", ["--diag=1.5,-0.75,-2,-1.25"]),
    ("diagonal", ["--diag=1e-200,1e-200,-1e-200,-1e-200"]),
    ("diagonal", ["--diag=3,-1e-11,-1,-7"]),
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
    yield "check", lambda work: checks
    demos = [(path.name, functools.partial(run_demo, path), None)
             for path in sorted((tree / "demos").glob("0*.py"))]
    yield "demos", lambda work: demos


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
