"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace [--delay-layer L --delay-us D]

``setup`` only sets up and reports the set-up time; ``measure`` runs the
timed closed loop (one op at a time, no worker threads) and reports the
end-to-end metrics; ``trace`` runs the same ops twice, first counting calls
and then recording spans, and reports the per-layer metrics.  With
``--delay-layer`` every call into that layer busy-waits ``--delay-us``
microseconds (the layer-sensitivity test).  The last stdout line is JSON.
``perfbench/run.py`` is the benchmark command; it runs this file.
"""

from __future__ import annotations

import os

# pin every BLAS / OpenMP pool before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from layers import CLOCK, LAYER_NAMES, Instrument  # noqa: E402
from workloads import WORKLOADS, Counts  # noqa: E402

#: a tail needs at least this many samples beyond it
TAIL_BEYOND = 10


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _calibration_kernel() -> None:
    """Fixed host work of the kind the program does: interpreted
    arithmetic, small-object allocation, a keyed sort and dict updates."""
    acc = 0
    for i in range(40_000):
        acc += i * i
    items = [_Item(i * 7919 % 10_007, i) for i in range(10_000)]
    items.sort(key=lambda it: it.key)
    totals: dict[int, int] = {}
    for it in items:
        totals[it.key] = totals.get(it.key, 0) + it.value


class Speed:
    """Scales host times to reference milliseconds.

    CPU time removes the time the hypervisor takes the CPU away, but not the
    CPU getting slower: on a shared VM its speed drifts by up to 40% over
    minutes (another tenant on the sibling hyperthread), which no number of
    repeats averages out.  Between ops the benchmark times a fixed
    calibration kernel, every ``EVERY_S`` of op time; the run's host times
    are scaled by ``REF_S`` over the kernel's mean time, i.e. reported as
    the time they would take on a CPU that runs the kernel in ``REF_S``.
    One factor per run: single 10 ms samples swing by +-30% within seconds,
    while an op averages over its whole length.  A change to the program
    cannot move the kernel, so it moves the scaled times as much as the raw.
    """

    REF_S = 0.010
    #: op time between two kernel samples
    EVERY_S = 0.1

    def __init__(self) -> None:
        _calibration_kernel()  # warm-up, not recorded
        self.samples: list[float] = []
        self._since = 0.0

    def sample(self) -> None:
        t0 = CLOCK()
        _calibration_kernel()
        self.samples.append(CLOCK() - t0)
        self._since = 0.0

    def before_op(self) -> None:
        if not self.samples or self._since >= self.EVERY_S:
            self.sample()

    def after_op(self, dt: float) -> None:
        self._since += dt

    def factor(self) -> float:
        return self.REF_S / (sum(self.samples) / len(self.samples))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the maximum when there are fewer)."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n


def run_ops(wl, *, seconds: float = 0.0, n_ops: int | None = None,
            inst: Instrument | None = None, speed: Speed | None = None
            ) -> list[dict]:
    """The closed loop: one op at a time until ``seconds`` of op time, the
    modeled set and the current block of the model mix are done, or exactly
    ``n_ops`` ops.  Inputs, state resets, garbage collection, calibration,
    checks and modeled values stay outside the op timing."""
    records: list[dict] = []
    total, i = 0.0, 0
    while (i < n_ops) if n_ops is not None else (
        total < seconds or i < wl.modeled_ops or i % len(wl.block)
    ):
        inp = wl.prepare(i)
        if speed is not None:
            speed.before_op()
        gc.collect()
        if inst is not None:
            inst.begin_op(i)
        t0 = CLOCK()
        out, problems = None, []
        try:
            out = wl.op(inp)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        dt = CLOCK() - t0
        if inst is not None:
            inst.end_op()
        total += dt
        if speed is not None:
            speed.after_op(dt)
        rec = {"dt": dt, "cell": wl.describe(inp), "counts": Counts().as_dict()}
        if not problems:
            try:
                rec["counts"] = wl.counts(out).as_dict()
                problems = wl.check(inp, out)
                if i < wl.modeled_ops and not problems:
                    rec["modeled"] = wl.modeled(inp, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
        rec["problems"] = problems
        records.append(rec)
        del out
        i += 1
    return records


def failures(records: list[dict]) -> list[str]:
    return [f"{r['cell']}: {'; '.join(r['problems'])}"
            for r in records if r["problems"]]


def modeled_metrics(wl, records: list[dict]) -> dict[str, float]:
    """Over the ops of the modeled set that passed their check."""
    per_op = [r["modeled"] for r in records[: wl.modeled_ops] if "modeled" in r]
    return wl.summarize(per_op) if per_op else {}


#: end-to-end metric -> unit (``setup_s`` is added by run.py)
E2E_UNITS = {
    "ops_per_host_s": "ops/s",
    "host_ms_per_op.p50": "ms",
    "host_ms_per_op.tail": "ms",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "modeled_speedup": "x",
    "modeled_ms.geomean": "ms",
    "modeled_p50_ms": "ms",
    "modeled_p99_ms": "ms",
    "modeled_goodput_frac": "ratio",
}

#: per-layer metric -> unit
LAYER_UNITS = {
    **{
        f"{layer}.{m}": unit
        for layer in LAYER_NAMES
        for m, unit in (("self_ms_per_op", "ms"), ("calls_per_op", "count"),
                        ("share", "ratio"))
    },
    "other.self_ms_per_op": "ms",
    "trace.overhead_frac": "ratio",
    "setup.import_s": "s",
    "setup.dataset_s": "s",
    "plan.cache.hit_ratio": "ratio",
    "plan.cache.evictions_per_op": "count",
    "opt.rewrites_applied_frac": "ratio",
    "opt.tuner_measurements_per_op": "count",
    "serve.batches_per_op": "count",
    "serve.avg_batch": "count",
    "serve.host_us_per_request": "us",
    "serve.host_s_per_modeled_s": "s/s",
}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}


def measure(wl, records: list[dict], speed: Speed) -> dict:
    factor = speed.factor()
    dts = [r["dt"] * factor for r in records]
    tail_s, tail_pct = tail(dts)
    failed = failures(records)
    values = {
        "ops_per_host_s": len(dts) / sum(dts),
        "host_ms_per_op.p50": float(np.median(dts)) * 1e3,
        "host_ms_per_op.tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": (len(records) - len(failed)) / len(records),
    }
    modeled = modeled_metrics(wl, records)
    if not modeled:
        return {"failed": failed, "attempted": len(records),
                "problems": ["every op of the modeled set failed"]}
    values.update(modeled)
    return {
        "metrics": with_units(values, E2E_UNITS),
        "raw_p50_ms": float(np.median([r["dt"] for r in records])) * 1e3,
        "speed_factor": factor,
        "tail": {"percentile": tail_pct, "samples": len(dts)},
        "attempted": len(records),
        "failed": failed,
        "problems": [],
    }


def per_op_counts(records: list[dict]) -> list[dict]:
    return [r["counts"] for r in records]


def trace(wl, seconds: float, name: str, seed: int) -> dict:
    """Pass A counts calls; pass B repeats the same ops recording spans."""
    rewrites = {"gated": 0, "applied": 0}

    def on_optimize(result) -> None:
        _plan, records = result
        for r in records:
            if r.detail != "no match":
                rewrites["gated"] += 1
                rewrites["applied"] += int(r.applied)

    with Instrument() as counted:
        recs_a = run_ops(wl, seconds=seconds, inst=counted)
    n = len(recs_a)
    with Instrument(trace=True, on_return={
        "repro.opt.passes:optimize_plan": on_optimize,
    }) as traced:
        recs_b = run_ops(wl, n_ops=n, inst=traced)
    ops = list(range(n))
    failed = failures([
        {"cell": a["cell"], "problems": a["problems"] + b["problems"]}
        for a, b in zip(recs_a, recs_b)
    ])
    problems = []
    calls_a, calls_b = counted.layer_calls(ops), traced.layer_calls(ops)
    if per_op_counts(recs_a) != per_op_counts(recs_b):
        problems.append("program counts differ between the untraced and "
                        "traced pass")
    if calls_a != calls_b:
        problems.append(f"layer calls differ: untraced {calls_a}, "
                        f"traced {calls_b}")

    op_s_a = sum(r["dt"] for r in recs_a)
    op_s_b = sum(r["dt"] for r in recs_b)
    own = traced.self_seconds()
    c = {k: sum(r["counts"][k] for r in recs_b) for k in recs_b[0]["counts"]}
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_ms_per_op"] = own[layer] / n * 1e3
        metrics[f"{layer}.calls_per_op"] = calls_b[layer] / n
        metrics[f"{layer}.share"] = own[layer] / op_s_b
    lookups = c["cache_hits"] + c["cache_misses"]
    metrics.update({
        "other.self_ms_per_op": (op_s_b - traced.top_level_seconds()) / n * 1e3,
        "trace.overhead_frac": op_s_b / op_s_a - 1.0,
        "setup.import_s": wl.import_s,
        "setup.dataset_s": wl.dataset_s,
        "plan.cache.hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "plan.cache.evictions_per_op": c["cache_evictions"] / n,
        "opt.rewrites_applied_frac": (
            rewrites["applied"] / rewrites["gated"] if rewrites["gated"] else 0.0
        ),
        "opt.tuner_measurements_per_op": c["tuner_measurements"] / n,
        "serve.batches_per_op": c["batches"] / n,
        "serve.avg_batch": c["completed"] / c["batches"] if c["batches"] else 0.0,
        # host figures from the untraced pass: span recording would inflate them
        "serve.host_us_per_request": (
            op_s_a / c["requests"] * 1e6 if c["requests"] else 0.0
        ),
        "serve.host_s_per_modeled_s": (
            op_s_a / c["modeled_makespan_s"] if c["modeled_makespan_s"] else 0.0
        ),
    })
    span_file = OUT / f"trace-{name}-seed{seed}.npz"
    spans = traced.write(span_file)
    return {
        "metrics": with_units(metrics, LAYER_UNITS),
        "attempted": n,
        "failed": failed,
        "problems": problems,
        "spans": spans,
        "span_file": str(span_file.relative_to(ROOT)),
    }


def environment(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=["setup", "measure", "trace"],
                   default="measure")
    p.add_argument("--delay-layer", choices=LAYER_NAMES, default=None)
    p.add_argument("--delay-us", type=float, default=0.0)
    args = p.parse_args(argv)

    t0 = CLOCK()
    wl = WORKLOADS[args.workload](args.seed)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl.import_s = CLOCK() - t0
    wl.setup()
    setup_cpu_s = CLOCK()  # the process's CPU time from its start
    speed = Speed()
    for _ in range(8):
        speed.sample()
    result: dict = {"setup_s": setup_cpu_s * speed.factor(),
                    "import_s": wl.import_s, "dataset_s": wl.dataset_s,
                    "env": environment(args.seed)}
    if args.mode == "trace":
        result.update(trace(wl, args.seconds, args.workload, args.seed))
    elif args.mode == "measure":
        if args.delay_layer is not None:
            with Instrument((args.delay_layer,), delay_s=args.delay_us * 1e-6):
                records = run_ops(wl, seconds=args.seconds, speed=speed)
        else:
            records = run_ops(wl, seconds=args.seconds, speed=speed)
        result.update(measure(wl, records, speed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
