"""Run every workload repeatedly and report how steady each metric is.

    python3 perfbench/steady.py [--runs 10]

For each workload of BENCHMARK.json this runs ``run.py`` ``--runs`` times
untraced, with seeds 1, 2, ..., then once traced with the next seed, each
run as long as BENCHMARK.json's ``run_seconds``.  It prints, for every
end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound, marked WIDE when it exceeds
a third of the bound; the per-layer metrics of the traced run; and
attempted and failed operations per workload.  Everything it prints is
also written to ``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = [line[4:] for line in lines if line.startswith("env ")]
    result["env"] = json.loads(env[0]) if env else {}
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    seconds = spec["run_seconds"]

    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(1, args.runs + 1)
        plain = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, args.runs + 1, seconds, 1)
        entry = {
            "env": plain[0]["env"],
            "attempted": [r["attempted"] for r in plain + [traced]],
            "failed": [r["failed"] for r in plain + [traced]],
            "correct": all(r["correct"] for r in plain + [traced]),
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        print(f"\n== {workload}  ({args.runs} runs of {seconds} s, seeds 1-{args.runs})")
        print(f"env {json.dumps(entry['env'], sort_keys=True)}")
        print(f"correct {entry['correct']}  attempted {entry['attempted']}  "
              f"failed {entry['failed']}")
        shares = {r["failed"] / r["attempted"] for r in plain + [traced]}
        print(f"failed share per run: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in plain])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
            print(f"  {name:16s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:7.2%}  "
                  f"bound {metric['bound']:.0%}  {flag}  [{metric['unit']}]")
        print(f"  traced run (seed {args.runs + 1}):")
        for name, m in traced["metrics"].items():
            print(f"    {name:40s} {m['value']:.6g} {m['unit']}")
        report["workloads"][workload] = entry

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / "steady.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
