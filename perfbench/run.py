"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload fleet-overbooked --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Prints one detail line (raw figures,
reference-kernel timing, CPU pin, digests, and for ``--trace 1`` the
per-layer breakdown) and then, as the last line, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Exits non-zero when a correctness check
fails; exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: durable stores and trace files.
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fleet-overbooked", "durable-churn", "install-burst")


def _workload_module(name: str):
    if name == "fleet-overbooked":
        from perfbench import fleet as module
    elif name == "durable-churn":
        from perfbench import churn as module
    else:
        from perfbench import burst as module
    return module


def _replica(workload: str, seed: int) -> str:
    """Decision digest of the same seed's first rounds, from a second
    process (it must equal this process's)."""
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--replica"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(f"replica run failed: {result.stderr.strip()[-500:]}")
    return result.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replica", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    module = _workload_module(args.workload)

    os.makedirs(WORK_DIR, exist_ok=True)
    if args.replica:
        print(module.replica_digest(args.seed, WORK_DIR))
        return 0

    from perfbench.refclock import RefClock, pin_to_one_cpu
    from perfbench.tracer import Tracer

    replica = _replica(args.workload, args.seed)
    inputs = module.input_digest(args.seed)
    other_inputs = module.input_digest(args.seed + 1)

    cpu = pin_to_one_cpu()
    clock = RefClock(module.KERNEL)
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer(clock) if args.trace else None
    trace_path = os.path.join(WORK_DIR, "traces", f"{args.workload}-seed{args.seed}.json")
    started = time.perf_counter()
    try:
        outcome = module.run(
            args.seed, args.seconds, clock, tracer=tracer, trace_path=trace_path,
            work_dir=run_dir,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wall_s = time.perf_counter() - started

    violations = outcome.violations
    own = outcome.details.get("decision_digest")
    violations.expect(
        own == replica,
        f"determinism: seed {args.seed} gave decision digest {own} here, {replica} in a second process",
    )
    violations.expect(
        outcome.details.get("input_digest") == inputs,
        f"determinism: the run fed inputs {outcome.details.get('input_digest')}, "
        f"the seed's generator gives {inputs}",
    )
    violations.expect(
        inputs != other_inputs,
        f"determinism: seeds {args.seed} and {args.seed + 1} gave the same inputs",
    )

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall_s,
        "cpu_pin": cpu,
        "reference_kernel": clock.kernel_summary(),
        "violations": violations.messages[:20],
        **outcome.details,
    }
    print(json.dumps({"detail": detail}, default=float))
    result = {
        "correct": violations.ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if violations.ok else 1


if __name__ == "__main__":
    sys.exit(main())
