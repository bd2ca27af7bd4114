"""The inference service: arrivals → admission → batcher → streams.

:class:`InferenceService` runs the whole serving pipeline on the
simulated clock:

1. open-loop arrivals (:mod:`.workload`) are offered to the
   :class:`~repro.serve.admission.AdmissionController` (bounded
   in-system population; overload is shed and counted); an arrival the
   planner's ``can_serve`` rejects is refused and counted instead,
2. admitted requests wait in the :class:`~repro.serve.batcher.
   MicroBatcher` until a size or deadline trigger fires,
3. each emitted batch is planned by the servable model into an ordered
   list of :class:`~repro.gpusim.streams.StreamKernel` launches and
   submitted to the least-loaded stream of the
   :class:`~repro.gpusim.streams.MultiStreamSimulator`,
4. completions flow into the :class:`~repro.serve.accounting.
   LatencyAccountant`; a request finishes when the *last* kernel of its
   batch finishes.

The loop advances the simulator only to *decision times* (next arrival
or next batcher deadline) — between decision times nothing can be
submitted, so event-order fidelity is exact.  No wall clock is read
anywhere (DESIGN.md, "Determinism rules"); identical seeds and configs
reproduce identical reports bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.reqtrace import (
    BatchContext,
    KernelSpan,
    RequestContext,
    get_request_collector,
    pop_batch_context,
    push_batch_context,
)
from ..obs.slo import SLO, SLOMonitor, default_rules
from ..obs.tracer import span
from ..gpusim.streams import MultiStreamSimulator
from .accounting import LatencyAccountant
from .admission import AdmissionController
from .batcher import MicroBatcher
from .workload import Request, bursty_trace, make_requests, poisson_trace

__all__ = ["ServeConfig", "ServeReport", "InferenceService", "serve_trace"]

_T_EPS = 1e-12


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of one serving run."""

    arrival: str = "poisson"  # "poisson" | "bursty"
    rate_hz: float = 2_000.0
    num_requests: int = 200
    job: str = "full"  # "full" | "targets"
    targets_per_request: int = 16
    max_batch: int = 8
    window_s: float = 200e-6
    num_streams: int = 1
    #: max in-system requests (admitted, not yet completed)
    queue_depth: int = 64
    #: device co-residency cap (None = num_streams)
    max_concurrent: int | None = None
    burst_factor: float = 8.0
    burst_len: int = 16
    seed: int = 7
    #: per-request latency objective (simulated ms); None disables SLO
    #: monitoring for the run
    slo_ms: float | None = None
    #: target good fraction of the SLO (0.99 = 1% error budget)
    slo_objective: float = 0.99

    def trace(self, num_vertices: int | None = None) -> list[Request]:
        """Generate this config's deterministic request trace."""
        if self.arrival == "poisson":
            arrivals = poisson_trace(
                self.rate_hz, self.num_requests, seed=self.seed
            )
        elif self.arrival == "bursty":
            arrivals = bursty_trace(
                self.rate_hz,
                self.num_requests,
                burst_factor=self.burst_factor,
                burst_len=self.burst_len,
                seed=self.seed,
            )
        else:
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        return make_requests(
            arrivals,
            job=self.job,
            num_vertices=num_vertices,
            targets_per_request=self.targets_per_request,
            seed=self.seed + 1,
        )


@dataclass
class ServeReport:
    """Outcome of one serving run (all times simulated)."""

    label: str
    config: ServeConfig
    arrived: int = 0
    admitted: int = 0
    shed: int = 0
    #: arrivals the planner cannot serve (never admitted or batched)
    refused: int = 0
    completed: int = 0
    num_batches: int = 0
    avg_batch: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    mean_wait_ms: float = 0.0
    throughput_rps: float = 0.0
    makespan_s: float = 0.0
    avg_concurrency: float = 0.0
    offline_runtime_ms: float | None = None
    #: per-request records for fine-grained assertions
    accountant: LatencyAccountant = field(default_factory=LatencyAccountant)
    #: SLO monitor summary (burn rates, alerts, attribution); None when
    #: the config declares no SLO
    slo: dict | None = None

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0

    def publish(
        self, registry: MetricsRegistry | None = None, **labels: str
    ) -> None:
        """Write the report into a ``repro.obs`` metrics registry
        (the installed one by default; no-op when none is installed)."""
        registry = registry if registry is not None else get_registry()
        if registry is None:
            return
        tags = {"serve": self.label, **labels}
        registry.counter("serve_requests_arrived", **tags).inc(self.arrived)
        registry.counter("serve_requests_admitted", **tags).inc(self.admitted)
        registry.counter("serve_requests_shed", **tags).inc(self.shed)
        registry.counter("serve_requests_refused", **tags).inc(self.refused)
        registry.counter("serve_requests_completed", **tags).inc(self.completed)
        registry.counter("serve_batches", **tags).inc(self.num_batches)
        registry.gauge("serve_latency_p50_ms", **tags).set(self.p50_ms)
        registry.gauge("serve_latency_p95_ms", **tags).set(self.p95_ms)
        registry.gauge("serve_latency_p99_ms", **tags).set(self.p99_ms)
        registry.gauge("serve_latency_mean_ms", **tags).set(self.mean_ms)
        registry.gauge("serve_throughput_rps", **tags).set(self.throughput_rps)
        registry.gauge("serve_avg_batch", **tags).set(self.avg_batch)
        registry.gauge("serve_avg_concurrency", **tags).set(self.avg_concurrency)
        registry.gauge("serve_offered_rate_hz", **tags).set(self.config.rate_hz)
        if self.accountant.records:
            hist = registry.histogram("serve_latency_ms", **tags)
            for rec in self.accountant.records:
                hist.observe(rec.latency_s * 1e3, exemplar=rec.request.rid)
        if self.slo is not None:
            for klass, stats in self.slo["classes"].items():
                slo_tags = {**tags, "klass": klass}
                registry.gauge("slo_budget_used", **slo_tags).set(
                    stats["budget_used"]
                )
                registry.counter("slo_bad_latency", **slo_tags).inc(
                    stats["bad_latency"]
                )
                registry.counter("slo_bad_shed", **slo_tags).inc(
                    stats["bad_shed"]
                )
            registry.counter("slo_alerts_fired", **tags).inc(
                len(self.slo["alerts"])
            )

    def summary(self) -> str:
        cfg = self.config
        lines = [
            f"serve {self.label}",
            f"  trace      : {cfg.arrival} @ {cfg.rate_hz:,.0f} req/s, "
            f"{cfg.num_requests} requests, job={cfg.job}",
            f"  batching   : max_batch={cfg.max_batch}, "
            f"window={cfg.window_s * 1e6:.0f} us, streams={cfg.num_streams}, "
            f"queue_depth={cfg.queue_depth}",
            f"  admission  : arrived={self.arrived} admitted={self.admitted} "
            f"shed={self.shed} completed={self.completed}",
            f"  batches    : {self.num_batches} "
            f"(avg size {self.avg_batch:.2f}, "
            f"avg device concurrency {self.avg_concurrency:.2f})",
            f"  latency ms : p50={self.p50_ms:.4f} p95={self.p95_ms:.4f} "
            f"p99={self.p99_ms:.4f} mean={self.mean_ms:.4f} "
            f"(batch wait {self.mean_wait_ms:.4f})",
            f"  throughput : {self.throughput_rps:,.1f} req/s over "
            f"{self.makespan_s * 1e3:.3f} ms (simulated)",
        ]
        if self.refused:
            lines.append(
                f"  refused    : {self.refused} request(s) the model cannot "
                "serve (never batched)"
            )
        if self.offline_runtime_ms is not None:
            lines.append(
                f"  offline    : single-request runtime "
                f"{self.offline_runtime_ms:.4f} ms (run_system reference)"
            )
        if self.slo is not None:
            n_alerts = len(self.slo["alerts"])
            worst = max(
                (s["budget_used"] for s in self.slo["classes"].values()),
                default=0.0,
            )
            lines.append(
                f"  slo        : target {cfg.slo_ms:.4f} ms @ "
                f"{cfg.slo_objective:.2%}; budget used {worst:.1%}, "
                f"{n_alerts} burn-rate alert(s)"
            )
        return "\n".join(lines)


class InferenceService:
    """Drives one planner (anything with ``plan(batch) -> [StreamKernel]``,
    and optionally ``can_serve(request) -> bool``) through a request trace
    on the simulated clock."""

    def __init__(self, planner, cfg: ServeConfig, *, label: str | None = None):
        self.planner = planner
        self.cfg = cfg
        self.label = label or getattr(planner, "label", "service")

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ServeReport:
        cfg = self.cfg
        requests = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        sim = MultiStreamSimulator(
            num_streams=cfg.num_streams, max_concurrent=cfg.max_concurrent
        )
        batcher = MicroBatcher(max_batch=cfg.max_batch, window_s=cfg.window_s)
        admission = AdmissionController(queue_depth=cfg.queue_depth)
        can_serve = getattr(self.planner, "can_serve", None)
        accountant = LatencyAccountant()
        collector = get_request_collector()
        monitor: SLOMonitor | None = None
        if cfg.slo_ms is not None:
            monitor = SLOMonitor(
                [
                    SLO(
                        klass=klass,
                        latency_ms=cfg.slo_ms,
                        objective=cfg.slo_objective,
                    )
                    for klass in sorted({r.compat_key for r in requests})
                    or [cfg.job]
                ],
                default_rules(max(cfg.num_requests, 1) / cfg.rate_hz),
            )
        #: batch id -> [requests, dispatch_s, kernels in flight, BatchContext]
        in_flight: dict[int, list] = {}
        num_batches = 0

        def settle(batch, bctx, *, dispatch_s: float, finish_s: float) -> None:
            """One batch fully finished: account, release, notify."""
            for r in batch:
                accountant.record(
                    r,
                    dispatch_s=dispatch_s,
                    finish_s=finish_s,
                    batch_size=len(batch),
                )
                if monitor is not None:
                    monitor.observe_completion(
                        r.compat_key,
                        at_s=finish_s,
                        latency_ms=(finish_s - r.arrival_s) * 1e3,
                        rid=r.rid,
                    )
            if collector is not None and bctx is not None:
                collector.record_finish(bctx, finish_s=finish_s)
            admission.release(len(batch))

        def absorb_completions() -> None:
            for c in sim.take_completions():
                state = in_flight[c.kernel.tag]
                state[2] -= 1
                if collector is not None and state[3] is not None:
                    collector.record_kernel(
                        state[3],
                        KernelSpan(
                            name=c.kernel.name,
                            stream=c.stream,
                            enqueue_s=c.enqueue_s,
                            launch_start_s=c.launch_start_s,
                            ready_s=c.ready_s,
                            start_s=c.start_s,
                            finish_s=c.finish_s,
                        ),
                    )
                if state[2] == 0:
                    batch, dispatch_s, _, bctx = state
                    settle(
                        batch, bctx, dispatch_s=dispatch_s, finish_s=c.finish_s
                    )
                    del in_flight[c.kernel.tag]

        def dispatch(batch: list[Request], now_s: float) -> None:
            nonlocal num_batches
            bid = num_batches
            num_batches += 1
            bctx = None
            if collector is not None:
                bctx = BatchContext(
                    bid=bid,
                    klass=batch[0].compat_key,
                    rids=tuple(r.rid for r in batch),
                )
                collector.record_dispatch(bctx, dispatch_s=now_s)
                push_batch_context(bctx)
            try:
                plan = self.planner.plan(batch)
            finally:
                if bctx is not None:
                    pop_batch_context()
            if not plan:  # zero-work plan: complete at dispatch time
                settle(batch, bctx, dispatch_s=now_s, finish_s=now_s)
                return
            stream = min(range(cfg.num_streams), key=sim.pending_work_s)
            in_flight[bid] = [batch, now_s, len(plan), bctx]
            for kernel in plan:
                sim.submit(kernel.with_tag(bid), stream=stream, at_s=now_s)

        with span(
            "serve.run", label=self.label, requests=len(requests)
        ) as sp:
            i, now = 0, 0.0
            while True:
                decision_times = []
                if i < len(requests):
                    decision_times.append(requests[i].arrival_s)
                deadline = batcher.next_deadline_s()
                if deadline is not None:
                    decision_times.append(deadline)
                if not decision_times:
                    break
                now = max(now, min(decision_times))
                sim.advance_to(now)
                absorb_completions()
                while (
                    i < len(requests)
                    and requests[i].arrival_s <= now + _T_EPS
                ):
                    request = requests[i]
                    i += 1
                    if can_serve is not None and not can_serve(request):
                        admission.refuse()
                    elif admission.try_admit():
                        batcher.add(request, now_s=now)
                        if collector is not None:
                            collector.record_admit(
                                RequestContext(request.rid, request.compat_key),
                                arrival_s=request.arrival_s,
                                enqueue_s=now,
                            )
                    else:
                        if collector is not None:
                            collector.record_shed(
                                RequestContext(request.rid, request.compat_key),
                                at_s=now,
                            )
                        if monitor is not None:
                            monitor.observe_shed(
                                request.compat_key, at_s=now, rid=request.rid
                            )
                for batch in batcher.pop_ready(now):
                    dispatch(batch, now)
            sim.drain()
            absorb_completions()
            if in_flight or batcher.num_pending:  # pragma: no cover
                raise RuntimeError("serving loop finished with work in flight")
            if sp is not None:
                sp.add_modeled(sim.makespan_s)
                sp.set(
                    completed=accountant.completed,
                    shed=admission.shed,
                    refused=admission.refused,
                )

        report = ServeReport(
            label=self.label,
            config=cfg,
            arrived=admission.arrived,
            admitted=admission.admitted,
            shed=admission.shed,
            refused=admission.refused,
            completed=accountant.completed,
            num_batches=num_batches,
            avg_batch=accountant.avg_batch,
            p50_ms=accountant.percentile_ms(50),
            p95_ms=accountant.percentile_ms(95),
            p99_ms=accountant.percentile_ms(99),
            mean_ms=accountant.mean_ms,
            mean_wait_ms=accountant.mean_wait_ms,
            throughput_rps=accountant.throughput_rps,
            makespan_s=sim.makespan_s,
            avg_concurrency=sim.avg_concurrency(),
            offline_runtime_ms=(
                self.planner.offline_runtime_s * 1e3
                if hasattr(self.planner, "offline_runtime_s")
                else None
            ),
            accountant=accountant,
        )
        if monitor is not None:
            end_s = max(
                sim.makespan_s,
                requests[-1].arrival_s if requests else 0.0,
            )
            report.slo = monitor.summary(end_s)
        if report.arrived != (
            report.admitted + report.shed + report.refused
        ):  # pragma: no cover
            raise RuntimeError("admission conservation violated")
        if report.admitted != report.completed:  # pragma: no cover
            raise RuntimeError("completion conservation violated")
        return report


def serve_trace(planner, cfg: ServeConfig, *, label: str | None = None) -> ServeReport:
    """Generate ``cfg``'s trace and serve it through ``planner``."""
    num_vertices = getattr(
        getattr(planner, "graph", None), "num_vertices", None
    )
    requests = cfg.trace(num_vertices)
    return InferenceService(planner, cfg, label=label).run(requests)
