"""Steadiness report: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--sets 2]

Run from the root of a checkout.  Each run is ``perfbench/run.py`` with
its own seed (run ``i`` of set ``s`` uses seed ``1000 * s + i``); the sets
interleave, so drift of the machine lands on both.  For every workload
and end-to-end metric the report gives each set's median, first and
third quartile and spread (quartile distance / median), the metric's
bound from ``BENCHMARK.json`` and the change of the second set's median
against the first's, and flags a spread or change beyond the bound (the
spread of ``setup_s`` is not held to its bound).  It also compares the
failed share of each set.  Exits non-zero if anything is flagged or a
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]} {lines[-1:]}"
        )
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                results[w][s].append(run_once(w, 1000 * s + i + 1, seconds))
                print(f"run {i + 1}/{args.runs} set {s + 1} {w} done", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle)

    flagged = 0
    for w in workloads:
        print(f"\n{w}")
        shares = [
            {r["failed"] / r["attempted"] for r in runs} for runs in results[w]
        ]
        print(f"  failed share per set: {[sorted(s) for s in shares]}")
        if any(len(s) != 1 for s in shares) or len({frozenset(s) for s in shares}) != 1:
            print("  !! failed share differs between runs")
            flagged += 1
        for name, spec in bounds.items():
            rows = [summary([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            cells = "  ".join(
                f"set{k + 1} med {row['median']:.6g} q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                f"spread {row['spread']:.3f}"
                for k, row in enumerate(rows)
            )
            note = ""
            if name != "setup_s" and any(row["spread"] > spec["bound"] for row in rows):
                note += " !! spread over bound"
                flagged += 1
            if len(rows) == 2:
                change = rows[1]["median"] / rows[0]["median"] - 1.0
                worse = change if spec["better"] == "lower" else -change
                cells += f"  change {change:+.3f}"
                if worse > spec["bound"]:
                    note += " !! second set worse by more than the bound"
                    flagged += 1
            print(f"  {name:16s} bound {spec['bound']:.2f}  {cells}{note}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
