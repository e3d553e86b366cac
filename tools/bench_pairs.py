"""Alternating benchmark pairs of two commits, written as a ``BENCH_*.json``.

    python3 tools/bench_pairs.py PARENT CHANGE [--workloads W ...] [--pairs 10]
        [--seconds 18] [--out BENCH_N.json]

PARENT and CHANGE are commits of this repository.  Each is exported with
``git archive`` to its own temporary directory, so uncommitted files take no
part.  For each workload (by default every workload of the change's
``BENCHMARK.json``), pair i (1-based) runs the benchmark command with seed
10 + i and ``--trace 0`` once on each tree, the parent first on odd pairs and
the change first on even ones, so a drift of the host's speed within a pair
does not favour one side.  All runs go back to back; run it on an idle host.

The record holds the change's commit subject, and per workload and
end-to-end metric of ``BENCHMARK.json`` the median and quartiles (``statistics.quantiles``, n = 4) of each side's
runs, change median over parent median, ``pairs_change_better`` (the pairs
where the change read better, in the metric's direction) and every run;
and per side the operations attempted and failed and whether every run was
correct.  A run that
exits nonzero or prints no result stops the tool.  The record goes to
``--out``, else to standard output; nothing else is written in this
checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 11


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export(sha: str, dest: Path) -> None:
    """The tree of commit ``sha`` at ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its result object, the last
    line of its standard output."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}")
    return json.loads(lines[-1])


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def metric_record(spec: dict, parent: list, change: list) -> dict:
    lower = spec["better"] == "lower"
    better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    record = {key: spec[key] for key in ("unit", "better", "bound") if key in spec}
    record.update(parent=summary(parent), change=summary(change))
    base = record["parent"]["median"]
    record["change_over_parent"] = record["change"]["median"] / base if base else None
    record["pairs_change_better"] = f"{better}/{len(parent)}"
    record["runs"] = {"parent": parent, "change": change}
    return record


def workload_record(specs: dict, runs: dict, seeds: list) -> dict:
    """The record of one workload from each side's run results."""
    values = {metric: {side: [r["metrics"][metric]["value"] for r in runs[side]]
                       for side in ("parent", "change")}
              for metric in specs
              if all(metric in r["metrics"] for side in runs for r in runs[side])}
    return {
        "runs": len(seeds),
        "seeds": seeds,
        "end_to_end": {metric: metric_record(specs[metric], v["parent"], v["change"])
                       for metric, v in values.items()},
        "operations": {side: {"attempted": sum(r["attempted"] for r in rs),
                              "failed": sum(r["failed"] for r in rs),
                              "all_correct": all(r["correct"] for r in rs)}
                       for side, rs in runs.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2 or not args.seconds > 0:
        parser.error("--pairs must be at least 2 and --seconds positive")

    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: tmp / side for side in shas}
        for side, sha in shas.items():
            export(sha, trees[side])
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        names = args.workloads or [w["name"] for w in bench["workloads"]]
        specs = {spec["name"]: spec for spec in bench["end_to_end"]}
        seeds = list(range(FIRST_SEED, FIRST_SEED + args.pairs))
        results = {}
        for name in names:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds, 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    out = run_once(trees[side], bench["command"], name, seed, args.seconds)
                    runs[side].append(out)
                    shown = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
                    print(f"{name} pair {i}/{args.pairs} seed {seed} {side}: {shown}",
                          file=sys.stderr, flush=True)
            results[name] = workload_record(specs, runs, seeds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "change": git("log", "-1", "--format=%s", shas["change"]).decode().strip(),
        "command": " ".join(bench["command"]) + f" --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": (f"per workload: {args.pairs} untraced pairs, seeds {seeds[0]}-{seeds[-1]}, "
                     "parent and change alternating which runs first (parent first on odd "
                     "pair numbers); all runs back to back on one machine, each side from a "
                     "clean `git archive` of its commit (tools/bench_pairs.py)"),
        "git_sha": shas,
        "machine": {"nproc": os.cpu_count(), "numpy": metadata.version("numpy"),
                    "python": platform.python_version()},
        "workloads": results,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
