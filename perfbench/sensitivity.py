"""Layer-sensitivity test: proof that the benchmark measures every layer.

    python3 perfbench/sensitivity.py [--seed N] [--seconds S]

For each row of the layer table it wraps that layer's entry points with a
fixed busy-wait, sized from the traced ``calls_per_op`` so that it adds
``INJECT`` times the ``host_ms_per_op.p50`` bound to the row's "dominates"
workload, as a share of its median op.  The
predicted end-to-end metrics (``host_ms_per_op.p50`` and
``ops_per_host_s``) must then move beyond their bound on the "dominates"
workload and stay inside it on the "idle" workload, where the same
per-call wait adds only ``calls_per_op`` x wait.  First it checks, from
the traced runs, that each layer's ``share`` is larger on its "dominates"
workload than on its "idle" one.  Exit code 1 when a check fails.  Takes several minutes: every run is a fresh worker process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: layer -> (workload it dominates, workload it is idle on)
ROWS = {
    "graph": ("cell-cold", "opt-tune"),
    "frameworks": ("targets-replan", "full-redeploy"),
    "opt": ("opt-tune", "targets-replan"),
    "lint": ("opt-tune", "cell-cold"),
    "verify": ("opt-tune", "full-redeploy"),
    "plan.execute": ("cell-cold", "full-redeploy"),
    "plan.analyze": ("opt-tune", "full-redeploy"),
    "plan.cache": ("targets-replan", "opt-tune"),
    "serve": ("full-redeploy", "cell-cold"),
    "gpusim.streams": ("full-redeploy", "cell-cold"),
}
#: the wait adds this multiple of the bound to the dominated workload's op
INJECT = 3.0
METRICS = ("host_ms_per_op.p50", "ops_per_host_s")


def worker(workload: str, seed: int, seconds: float, mode: str,
           delay: tuple[str, float] | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if delay is not None:
        cmd += ["--delay-layer", delay[0], "--delay-us", repr(delay[1])]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out.get("problems") or out.get("failed"):
        raise RuntimeError(f"{workload}: {out['problems']} {out['failed']}")
    values = {k: v["value"] for k, v in out["metrics"].items()}
    values["raw_p50_ms"] = out.get("raw_p50_ms")
    return values


def change(metric: str, base: dict, run: dict) -> float:
    """Relative worsening of ``metric`` (positive = worse)."""
    if metric == "ops_per_host_s":
        return (base[metric] - run[metric]) / base[metric]
    return (run[metric] - base[metric]) / base[metric]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    workloads = sorted({w for row in ROWS.values() for w in row})
    traced = {w: worker(w, args.seed, args.seconds / 2, "trace") for w in workloads}

    failed = 0
    print(f"{'layer':16} {'share on dominates':>20} {'share on idle':>14}  ok",
          flush=True)
    for layer, (dom, idle) in ROWS.items():
        shares = [traced[w][f"{layer}.share"] for w in (dom, idle)]
        ok = shares[0] > shares[1]
        failed += not ok
        print(f"{layer:16} {shares[0]:20.4f} {shares[1]:14.4f}  "
              f"{'yes' if ok else 'NO'}")
    print()
    print(f"{'layer':16} {'workload':15} {'role':9} {'wait_us':>9} "
          f"{'predicted':>9} " + " ".join(f"{m:>19}" for m in METRICS) + "  ok")
    for layer, (dom, idle) in ROWS.items():
        # each delayed run is paired with a baseline run just before it, so
        # both see the same machine; the wait is CPU time, so it is sized
        # against the baseline's unscaled median
        wait_s = 0.0
        for workload, role in ((dom, "dominates"), (idle, "idle")):
            base = worker(workload, args.seed, args.seconds, "measure")
            op_s = base["raw_p50_ms"] / 1e3
            if role == "dominates":
                target_s = INJECT * bounds["host_ms_per_op.p50"] * op_s
                wait_s = target_s / traced[dom][f"{layer}.calls_per_op"]
            predicted = traced[workload][f"{layer}.calls_per_op"] * wait_s / op_s
            run = worker(workload, args.seed, args.seconds, "measure",
                         delay=(layer, wait_s * 1e6))
            moved = {m: change(m, base, run) for m in METRICS}
            if role == "dominates":
                ok = all(moved[m] > bounds[m] for m in METRICS)
            else:
                ok = all(abs(moved[m]) <= bounds[m] for m in METRICS)
            failed += not ok
            print(f"{layer:16} {workload:15} {role:9} {wait_s * 1e6:9.1f} "
                  f"{predicted:+9.3f} "
                  + " ".join(f"{moved[m]:+19.3f}" for m in METRICS)
                  + f"  {'yes' if ok else 'NO'}", flush=True)
    print(f"{len(ROWS) * 3 - failed}/{len(ROWS) * 3} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
