"""Plan-cache smoke check (CI): three identical in-process serve passes.

The first ``repro serve --smoke`` pass profiles the offline pipeline: it
lowers and analyzes it, and never executes it (a plan-cache miss).  The
second pass must hit the process-wide :class:`repro.plan.PlanCache`,
report ``plan_cache_hit > 0`` through the shared metrics registry, and
finish in less host wall time.
The third pass runs with a :class:`repro.obs.Tracer` installed: tracing
must not bypass the cache, so it too adds to ``plan_cache_hit`` and
records a ``plan.cache.hit`` span.

Run as a script: ``PYTHONPATH=src python benchmarks/plan_cache_smoke.py``.
Exits non-zero when any of the assertions fails.
"""

import io
import sys
import time

from repro.cli import main
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.tracer import Tracer, set_tracer
from repro.plan import get_plan_cache

ARGS = [
    "--max-edges", "200000",
    "serve", "--smoke",
    "--system", "TLPGNN", "--model", "gcn", "--dataset", "CR",
]


def timed_pass(label: str) -> float:
    out = io.StringIO()
    t0 = time.perf_counter()
    rc = main(list(ARGS), out=out)
    elapsed = time.perf_counter() - t0
    print(f"{label}: rc={rc}, {elapsed * 1e3:.1f} ms host wall time")
    if rc != 0:
        print(out.getvalue())
        sys.exit(f"{label} serve pass failed (rc={rc})")
    return elapsed


def cache_hits(registry: MetricsRegistry) -> float:
    return sum(
        rec["value"]
        for rec in registry.snapshot()
        if rec["name"] == "plan_cache_hit"
    )


def run() -> None:
    cache = get_plan_cache()
    if cache is None:
        sys.exit("plan cache is disabled; smoke check needs it on")
    cache.clear()
    registry = MetricsRegistry()
    tracer = Tracer()
    previous = set_registry(registry)
    try:
        t_cold = timed_pass("cold pass")
        t_warm = timed_pass("warm pass")
        hits = cache_hits(registry)
        previous_tracer = set_tracer(tracer)
        try:
            timed_pass("traced warm pass")
        finally:
            set_tracer(previous_tracer)
        traced_hits = cache_hits(registry) - hits
    finally:
        set_registry(previous)

    hit_spans = sum(1 for sp in tracer.walk() if sp.name == "plan.cache.hit")
    print(f"plan_cache_hit total: {hits} untraced, {traced_hits} traced")
    print(f"plan.cache.hit spans: {hit_spans}")
    print(f"cache state: {cache.snapshot()}")
    if hits <= 0:
        sys.exit("warm pass reported no plan_cache_hit")
    if t_warm >= t_cold:
        sys.exit(
            f"warm pass not faster: cold {t_cold * 1e3:.1f} ms "
            f"vs warm {t_warm * 1e3:.1f} ms"
        )
    if traced_hits <= 0 or hit_spans <= 0:
        sys.exit("traced warm pass bypassed the plan cache")
    print("plan-cache smoke OK")


if __name__ == "__main__":
    run()
