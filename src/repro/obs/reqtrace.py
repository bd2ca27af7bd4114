"""Request-level tracing: one span tree per served inference request.

:mod:`repro.obs.tracer` answers "where did this *run* spend its time";
this module answers the serving question — "where did this *request*
spend its time".  A :class:`RequestContext` (request id + job class) is
attached to every request at admission and propagated through the
batcher (a dispatched batch gets a :class:`BatchContext`), the stream
scheduler (each kernel's completion is matched to its batch by the
batch-id tag of its :class:`~repro.gpusim.streams.StreamKernel`), and
down into per-kernel execution, so each completed request owns a span
tree with an exact four-stage breakdown:

* **queue** — admission processing plus every wait on the device path
  (host launch serialization, stream FIFO, co-residency slots),
* **batch** — time parked in the micro-batcher before dispatch,
* **launch** — host time actually issuing this batch's kernel launches,
* **kernel** — device execution time (under multi-stream contention).

The four stages partition ``[arrival, finish]`` exactly: their sum equals
the recorded end-to-end latency to float precision, which the acceptance
test pins.  All timestamps are *simulated* seconds (DESIGN.md,
"Determinism rules") — identical seeds reproduce identical trees.

Like the tracer and the metrics registry, collection is opt-in and free
when disabled: the serving loop loads one module global per run and
records nothing unless a :class:`RequestTraceCollector` is installed via
:func:`set_request_collector`.

Export: :meth:`RequestTraceCollector.to_chrome_trace` renders one track
per request (root span + per-kernel launch/exec children, Perfetto
loadable) plus one track per stream; :meth:`RequestTrace.render_tree`
prints the queryable span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "RequestContext",
    "BatchContext",
    "KernelSpan",
    "RequestTrace",
    "RequestTraceCollector",
    "get_request_collector",
    "set_request_collector",
    "current_batch_context",
    "push_batch_context",
    "pop_batch_context",
]


@dataclass(frozen=True)
class RequestContext:
    """Identity of one request as it flows through the serving pipeline."""

    rid: int
    #: job class ("full" | "targets" | a tenant class) — the SLO key
    klass: str


@dataclass(frozen=True)
class BatchContext:
    """Identity of one dispatched micro-batch (a set of request contexts)."""

    bid: int
    klass: str
    rids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.rids)


@dataclass(frozen=True)
class KernelSpan:
    """One kernel of a batch's plan, with its full stream lifecycle."""

    name: str
    stream: int
    enqueue_s: float
    launch_start_s: float
    ready_s: float
    start_s: float
    finish_s: float

    @property
    def launch_s(self) -> float:
        """Host time issuing this launch."""
        return self.ready_s - self.launch_start_s

    @property
    def exec_s(self) -> float:
        """Device execution time (includes contention stretch)."""
        return self.finish_s - self.start_s


@dataclass
class RequestTrace:
    """The span tree of one completed (or shed) request."""

    ctx: RequestContext
    arrival_s: float
    #: admitted into the batcher (== arrival in the current model)
    enqueue_s: float | None = None
    dispatch_s: float | None = None
    finish_s: float | None = None
    batch_id: int | None = None
    batch_size: int = 0
    shed: bool = False
    #: the batch's kernel lifecycle (shared by every request of the batch)
    kernels: list[KernelSpan] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.finish_s is not None and not self.shed

    @property
    def latency_s(self) -> float:
        """End-to-end simulated latency (0.0 while open or shed)."""
        if self.finish_s is None:
            return 0.0
        return self.finish_s - self.arrival_s

    # stage decomposition ----------------------------------------------
    @property
    def batch_wait_s(self) -> float:
        """Stage 2: parked in the micro-batcher awaiting a trigger."""
        if self.dispatch_s is None or self.enqueue_s is None:
            return 0.0
        return self.dispatch_s - self.enqueue_s

    @property
    def launch_total_s(self) -> float:
        """Stage 3: host time issuing this batch's kernel launches."""
        return sum(k.launch_s for k in self.kernels)

    @property
    def kernel_total_s(self) -> float:
        """Stage 4: device execution time across the batch's kernels."""
        return sum(k.exec_s for k in self.kernels)

    @property
    def queue_s(self) -> float:
        """Stage 1: everything else — admission processing plus host /
        stream / co-residency waits between dispatch and finish.

        Computed as the residual of the exact partition, so the four
        stages always sum to the end-to-end latency.
        """
        if self.finish_s is None or self.dispatch_s is None:
            return 0.0
        admit = (self.enqueue_s or self.arrival_s) - self.arrival_s
        device = (
            (self.finish_s - self.dispatch_s)
            - self.launch_total_s
            - self.kernel_total_s
        )
        return admit + device

    def stages(self) -> dict[str, float]:
        """The four-stage breakdown (seconds); sums to ``latency_s``."""
        return {
            "queue": self.queue_s,
            "batch": self.batch_wait_s,
            "launch": self.launch_total_s,
            "kernel": self.kernel_total_s,
        }

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready record (the request-trace schema in DESIGN.md)."""
        return {
            "rid": self.ctx.rid,
            "klass": self.ctx.klass,
            "arrival_s": self.arrival_s,
            "enqueue_s": self.enqueue_s,
            "dispatch_s": self.dispatch_s,
            "finish_s": self.finish_s,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "shed": self.shed,
            "latency_ms": self.latency_s * 1e3,
            "stages_ms": {k: v * 1e3 for k, v in self.stages().items()},
            "kernels": [
                {
                    "name": k.name,
                    "stream": k.stream,
                    "launch_ms": k.launch_s * 1e3,
                    "exec_ms": k.exec_s * 1e3,
                }
                for k in self.kernels
            ],
        }

    def render_tree(self) -> str:
        """Human-readable span tree of this request."""
        if self.shed:
            return (
                f"request #{self.ctx.rid} [{self.ctx.klass}] "
                f"SHED at t={self.arrival_s * 1e3:.4f} ms"
            )
        stages = self.stages()
        lines = [
            f"request #{self.ctx.rid} [{self.ctx.klass}] "
            f"latency {self.latency_s * 1e3:.4f} ms "
            f"(batch {self.batch_id}, size {self.batch_size})",
            f"├─ queue   {stages['queue'] * 1e3:10.4f} ms",
            f"├─ batch   {stages['batch'] * 1e3:10.4f} ms",
            f"├─ launch  {stages['launch'] * 1e3:10.4f} ms",
            f"└─ kernel  {stages['kernel'] * 1e3:10.4f} ms",
        ]
        for i, k in enumerate(self.kernels):
            tee = "└─" if i == len(self.kernels) - 1 else "├─"
            lines.append(
                f"   {tee} {k.name} [stream {k.stream}] "
                f"launch {k.launch_s * 1e6:.2f} us + "
                f"exec {k.exec_s * 1e6:.2f} us"
            )
        return "\n".join(lines)


class RequestTraceCollector:
    """Builds one :class:`RequestTrace` per request from serving events.

    The :class:`~repro.serve.service.InferenceService` feeds it at each
    lifecycle edge (admit / shed / dispatch / kernel completion / batch
    finish); batches share their kernel-span list, so a batch of B
    requests costs one list, not B copies.
    """

    def __init__(self):
        #: completed + shed traces, in finish (resp. shed) order
        self.traces: list[RequestTrace] = []
        #: finished batches: bid -> (context, shared kernel spans)
        self.batches: dict[int, tuple[BatchContext, list[KernelSpan]]] = {}
        self._open: dict[int, RequestTrace] = {}
        #: batch id -> shared kernel-span list of that batch
        self._batch_kernels: dict[int, list[KernelSpan]] = {}

    # ------------------------------------------------------------------
    def record_admit(
        self, ctx: RequestContext, *, arrival_s: float, enqueue_s: float
    ) -> None:
        self._open[ctx.rid] = RequestTrace(
            ctx=ctx, arrival_s=arrival_s, enqueue_s=enqueue_s
        )

    def record_shed(self, ctx: RequestContext, *, at_s: float) -> None:
        self.traces.append(
            RequestTrace(ctx=ctx, arrival_s=at_s, shed=True)
        )

    def record_dispatch(self, bctx: BatchContext, *, dispatch_s: float) -> None:
        kernels = self._batch_kernels.setdefault(bctx.bid, [])
        for rid in bctx.rids:
            trace = self._open.get(rid)
            if trace is None:  # request admitted before collector install
                continue
            trace.dispatch_s = dispatch_s
            trace.batch_id = bctx.bid
            trace.batch_size = bctx.size
            trace.kernels = kernels

    def record_kernel(self, bctx: BatchContext, span: KernelSpan) -> None:
        self._batch_kernels.setdefault(bctx.bid, []).append(span)

    def record_finish(self, bctx: BatchContext, *, finish_s: float) -> None:
        for rid in bctx.rids:
            trace = self._open.pop(rid, None)
            if trace is None:
                continue
            trace.finish_s = finish_s
            self.traces.append(trace)
        self.batches[bctx.bid] = (
            bctx, self._batch_kernels.pop(bctx.bid, []),
        )

    # ------------------------------------------------------------------
    @property
    def completed(self) -> list[RequestTrace]:
        return [t for t in self.traces if t.completed]

    @property
    def shed(self) -> list[RequestTrace]:
        return [t for t in self.traces if t.shed]

    def get(self, rid: int) -> RequestTrace | None:
        """Query one request's trace by id (completed or shed)."""
        for t in self.traces:
            if t.ctx.rid == rid:
                return t
        return self._open.get(rid)

    def slowest(self, n: int = 1) -> list[RequestTrace]:
        """The ``n`` highest-latency completed requests (the p99 tail)."""
        return sorted(
            self.completed, key=lambda t: t.latency_s, reverse=True
        )[:n]

    # ------------------------------------------------------------------
    def to_chrome_trace(self, *, request_pid: int = 3, stream_pid: int = 4) -> list[dict]:
        """Chrome trace events: one track per request, one per stream.

        All timestamps are simulated microseconds.  Request tracks nest
        the root request span over its batch/launch/kernel children;
        stream tracks show each kernel with the request ids it served.
        """
        events: list[dict] = [
            {
                "name": "process_name", "ph": "M", "pid": request_pid,
                "tid": 0, "ts": 0,
                "args": {"name": "requests (simulated clock)"},
            },
            {
                "name": "process_name", "ph": "M", "pid": stream_pid,
                "tid": 0, "ts": 0,
                "args": {"name": "streams (simulated clock)"},
            },
        ]

        def span_event(name, pid, tid, t0, t1, **args):
            return {
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": t0 * 1e6, "dur": max(t1 - t0, 0.0) * 1e6,
                "args": args,
            }

        for t in self.completed:
            tid = t.ctx.rid + 1  # tid 0 is the metadata track
            stages = {k: v * 1e3 for k, v in t.stages().items()}
            events.append(
                span_event(
                    f"request #{t.ctx.rid}", request_pid, tid,
                    t.arrival_s, t.finish_s,
                    klass=t.ctx.klass, batch=t.batch_id,
                    batch_size=t.batch_size, stages_ms=stages,
                )
            )
            if t.dispatch_s is not None and t.enqueue_s is not None:
                events.append(
                    span_event(
                        "batch_wait", request_pid, tid,
                        t.enqueue_s, t.dispatch_s, batch=t.batch_id,
                    )
                )
            for k in t.kernels:
                events.append(
                    span_event(
                        f"launch {k.name}", request_pid, tid,
                        k.launch_start_s, k.ready_s, stream=k.stream,
                    )
                )
                events.append(
                    span_event(
                        f"kernel {k.name}", request_pid, tid,
                        k.start_s, k.finish_s, stream=k.stream,
                    )
                )
        for bid, (bctx, kernels) in sorted(self.batches.items()):
            for k in kernels:
                events.append(
                    span_event(
                        k.name, stream_pid, k.stream + 1,
                        k.start_s, k.finish_s,
                        batch=bid, klass=bctx.klass, rids=list(bctx.rids),
                    )
                )
        return events


# ----------------------------------------------------------------------
# module-global collector: None = disabled (the default, allocation-free)
_COLLECTOR: RequestTraceCollector | None = None

#: stack of batch contexts currently being planned, so the offline
#: profile's spans (``GNNSystem.profile``'s pipeline or cache-hit span)
#: can annotate themselves with the request ids they serve
_BATCH_STACK: list[BatchContext] = []


def get_request_collector() -> RequestTraceCollector | None:
    """The installed collector, or None when request tracing is disabled."""
    return _COLLECTOR


def set_request_collector(
    collector: RequestTraceCollector | None,
) -> RequestTraceCollector | None:
    """Install (or, with None, disable) the request-trace collector;
    returns the previous one so callers can restore it."""
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    return previous


def current_batch_context() -> BatchContext | None:
    """The batch context being planned/executed right now, if any."""
    return _BATCH_STACK[-1] if _BATCH_STACK else None


def push_batch_context(bctx: BatchContext) -> None:
    _BATCH_STACK.append(bctx)


def pop_batch_context() -> BatchContext | None:
    return _BATCH_STACK.pop() if _BATCH_STACK else None
