"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  With ``--trace 0`` it sets the workload
up ``SETUPS`` times, each in a fresh process, and measures it in the last
one; it prints every end-to-end metric, ``setup_s`` being the median
set-up time.  With ``--trace 1`` one fresh process runs the traced pair of
passes and it prints every per-layer metric.  The last stdout line is the
result JSON; a non-zero exit means no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cell-cold", "opt-tune", "targets-replan", "full-redeploy")
#: set-ups per measured run (the last one also measures)
SETUPS = 3
#: every run ends within this many seconds
DEADLINE_S = 170.0


def child(args: argparse.Namespace, mode: str, started: float) -> dict:
    """Run the worker in a fresh process; its last stdout line is JSON."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    left = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(left, 1.0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        if args.trace:
            run = child(args, "trace", started)
            setup_s = run["setup_s"]
        else:
            setups = [child(args, "setup", started)["setup_s"]
                      for _ in range(SETUPS - 1)]
            run = child(args, "measure", started)
            setups.append(run["setup_s"])
            setup_s = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if run["problems"]:
        for why in run["problems"]:
            print(f"error: {why}", file=sys.stderr)
        return 1
    metrics = run["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    env = run["env"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}; single-threaded "
          f"closed loop, BLAS/OpenMP pinned to one thread")
    print(f"setup_s {setup_s:.4f} (import {run['import_s']:.4f}, "
          f"dataset {run['dataset_s']:.4f})")
    if "tail" in run:
        print(f"host_ms_per_op.tail is p{run['tail']['percentile']:.1f} of "
              f"{run['tail']['samples']} ops")
        print(f"host times are CPU times scaled by {run['speed_factor']:.4f} "
              f"(calibration kernel); unscaled p50 {run['raw_p50_ms']:.3f} ms")
    if "spans" in run:
        print(f"{run['spans']} spans written to {run['span_file']}")
    for why in run["failed"]:
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": not run["failed"],
        "attempted": run["attempted"],
        "failed": len(run["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
