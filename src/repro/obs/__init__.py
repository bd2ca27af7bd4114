"""Observability: structured tracing, metrics, timelines, and run archives.

The paper's argument is counter-level (atomic store traffic, sector per
request, occupancy — §2.3), so the reproduction's credibility rests on
those counters staying correct as the system grows.  This package makes
the stack auditable the way GPGPU-Sim-style workload studies are:

* :mod:`~repro.obs.tracer` — hierarchical span tracer (context-manager
  API, nested spans, wall-clock + modeled-time attribution) wired into
  the bench harness, the four framework pipelines, and the kernel
  ``run()``/``analyze()`` paths.  Disabled by default; the disabled path
  is a single module-global load and allocates nothing.
* :mod:`~repro.obs.timeline` — Chrome-trace-event JSON export (Perfetto /
  ``chrome://tracing`` loadable): kernel spans whose summed durations
  equal ``ProfileReport.gpu_time_ms``, and one track per simulated SM
  drawn from the block placements of :func:`repro.gpusim.scheduler.place`.
* :mod:`~repro.obs.metrics` — counter/gauge registry that
  :class:`~repro.gpusim.profiler.ProfileReport` and the cost model
  publish into, with a JSONL sink.
* :mod:`~repro.obs.archive` — :class:`ProfileArchive` persists profiled
  runs (schema version + config fingerprint).
* :mod:`~repro.obs.trend` — the one regression engine: a single policy
  table (exact counters, float-noise bands on modeled floats, a
  direction per metric), :func:`compare_metrics`, and the
  :class:`TrendStore` trajectory of ``BENCH_*.json`` points.

CLI: ``python -m repro trace`` writes a timeline (and optionally an
archive entry); ``python -m repro diff`` compares two archived runs and
``python -m repro regress`` compares HEAD's probes against the recorded
trajectory — both through :func:`compare_metrics`, both exiting non-zero
on regression.
"""

from .archive import SCHEMA_VERSION, ProfileArchive, config_fingerprint, load_run
from .dashboard import render_top
from .expose import render_prometheus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_edges_ms,
    get_registry,
    set_registry,
)
from .reqtrace import (
    BatchContext,
    KernelSpan,
    RequestContext,
    RequestTrace,
    RequestTraceCollector,
    current_batch_context,
    get_request_collector,
    set_request_collector,
)
from .slo import SLO, BurnRateAlert, BurnRateRule, SLOMonitor, default_rules
from .tracer import Span, Tracer, current_span, get_tracer, set_tracer, span
from .trend import MetricPolicy, TrendDiff, TrendStore, compare_metrics, git_rev

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "get_tracer",
    "set_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "default_latency_edges_ms",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "RequestContext",
    "BatchContext",
    "KernelSpan",
    "RequestTrace",
    "RequestTraceCollector",
    "get_request_collector",
    "set_request_collector",
    "current_batch_context",
    "SLO",
    "BurnRateRule",
    "BurnRateAlert",
    "SLOMonitor",
    "default_rules",
    "TrendStore",
    "TrendDiff",
    "MetricPolicy",
    "compare_metrics",
    "git_rev",
    "render_top",
    "render_prometheus",
    "ProfileArchive",
    "config_fingerprint",
    "load_run",
    "SCHEMA_VERSION",
    "build_timeline",
    "write_timeline",
]


def __getattr__(name):  # timeline imports gpusim; keep this package import-light
    if name in ("build_timeline", "write_timeline"):
        from . import timeline

        return getattr(timeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
