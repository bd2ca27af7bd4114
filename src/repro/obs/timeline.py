"""Chrome-trace-event JSON timelines of a profiled run.

Converts one :class:`~repro.frameworks.base.SystemResult` into a trace
loadable in Perfetto / ``chrome://tracing``:

* **pid 2 — "GPU (modeled)"**: a ``kernels`` track whose complete events
  (``ph="X"``) are the pipeline's kernels laid end to end — their summed
  durations equal ``ProfileReport.gpu_time_ms`` exactly — plus **one
  track per simulated SM** showing block residency: each kernel's blocks
  (slowest warp plus ``block_schedule_cycles``) placed on the device's
  block slots by the hardware distributor's list schedule
  (:func:`repro.gpusim.scheduler.place` over
  :func:`~repro.gpusim.scheduler.block_slots`).  Every kernel is drawn
  this way, including those costed under the static or software-pool
  policy.  Because a kernel's modeled GPU time can exceed its SM makespan
  (bandwidth- or atomic-bound kernels), the blocks are stretched to fill
  the kernel's window — relative SM load stays faithful.
* **pid 1 — "host (wall clock)"**: the span tree of an optional
  :class:`~repro.obs.tracer.Tracer` (harness / pipeline / kernel spans).

Timestamps are microseconds and monotonic per track.  Event counts are
bounded per kernel: ``max_block_events_per_kernel`` covers one launch
record (not drawn), then a span and a completion instant per block, in
block order; what does not fit is counted in ``otherData.dropped_events``
rather than silently truncated.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracer import Tracer

__all__ = ["build_timeline", "write_timeline"]

_GPU_PID = 2
_KERNEL_TID = 0  # SM s lives on tid s+1


def _meta(pid: int, tid: int, kind: str, name: str) -> dict:
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "args": {"name": name}}


def build_timeline(
    result,
    spec,
    *,
    tracer: Tracer | None = None,
    max_block_events_per_kernel: int = 20_000,
) -> dict:
    """Build the Chrome trace object for one profiled run."""
    from ..gpusim.scheduler import block_max, block_slots, place

    report = getattr(result, "report", result)
    events: list[dict] = [
        _meta(_GPU_PID, _KERNEL_TID, "process_name", "GPU (modeled)"),
        _meta(_GPU_PID, _KERNEL_TID, "thread_name", "kernels"),
    ]
    for sm in range(spec.num_sms):
        events.append(_meta(_GPU_PID, sm + 1, "thread_name", f"SM {sm}"))

    cursor_us = 0.0
    dropped = 0
    cycles_to_us = 1e6 / spec.clock_hz
    for stats, timing in zip(report.stats.kernels, report.timing.kernels, strict=True):
        dur_us = timing.gpu_seconds * 1e6
        events.append(
            {
                "name": timing.name,
                "ph": "X",
                "ts": cursor_us,
                "dur": dur_us,
                "pid": _GPU_PID,
                "tid": _KERNEL_TID,
                "args": {
                    "gpu_ms": timing.gpu_seconds * 1e3,
                    "occupancy": timing.occupancy,
                    "sm_utilization": timing.sm_utilization,
                    "total_bytes": timing.total_bytes,
                    "atomic_bytes": timing.atomic_bytes,
                    "sectors_per_request": timing.sectors_per_request,
                },
            }
        )
        if stats.atomic_ops:
            events.append(
                {
                    "name": "atomic serialization (ops)",
                    "ph": "C",
                    "ts": cursor_us,
                    "pid": _GPU_PID,
                    "tid": _KERNEL_TID,
                    "args": {"atomic_ops": stats.atomic_ops},
                }
            )

        if stats.warp_cycles.size:
            wpb = stats.launch.warps_per_block(spec.threads_per_warp)
            blocks = place(
                block_max(stats.warp_cycles, wpb),
                block_slots(stats.launch, spec),
                per_task_overhead=spec.block_schedule_cycles,
            )
            n_blocks = blocks.worker.size
            # the cap covers a launch record (not drawn), then a span and
            # a completion instant per block, in block order
            cap = max(max_block_events_per_kernel, 0)
            spans = min(n_blocks, cap // 2)
            instants = min(n_blocks, max((cap - 1) // 2, 0))
            dropped += max(1 + 2 * n_blocks - cap, 0)
            sim_us = float(blocks.end.max()) * cycles_to_us
            # stretch SM activity to fill the kernel's (possibly
            # bandwidth-bound) window
            scale = dur_us / sim_us if sim_us > 0 else 0.0
            start = cursor_us + blocks.start[:spans] * cycles_to_us * scale
            end = cursor_us + blocks.end[:spans] * cycles_to_us * scale
            start, end = start.tolist(), end.tolist()
            tid = (blocks.worker[:spans] % spec.num_sms + 1).tolist()
            last_warps = stats.warp_cycles.size - (n_blocks - 1) * wpb
            for b in range(spans):
                events.append(
                    {
                        "name": f"{timing.name} block",
                        "ph": "X",
                        "ts": start[b],
                        "dur": max(end[b] - start[b], 0.0),
                        "pid": _GPU_PID,
                        "tid": tid[b],
                        "args": {
                            "block": b,
                            "warps": wpb if b < n_blocks - 1 else last_warps,
                        },
                    }
                )
            for b in range(instants):
                events.append(
                    {
                        "name": "warp_complete",
                        "ph": "i",
                        "s": "t",
                        "ts": end[b],
                        "pid": _GPU_PID,
                        "tid": tid[b],
                        "args": {"unit": b},
                    }
                )
        cursor_us += dur_us

    if tracer is not None:
        events.extend(tracer.to_chrome_trace(pid=1))

    # stable ordering: metadata first, then by (track, time)
    events.sort(key=lambda e: (e["ph"] != "M", e["pid"], e["tid"], e["ts"]))
    other = {
        "system": report.system,
        "model": report.model,
        "dataset": report.dataset,
        "num_sms": spec.num_sms,
        "gpu_time_ms": report.gpu_time_ms,
        "runtime_ms": report.runtime_ms,
        "dropped_events": dropped,
    }
    plan = getattr(result, "plan", None)
    if plan is not None:
        other["plan_fingerprint"] = plan.fingerprint
        other["plan_cached"] = plan.cached
        other["plan_ops"] = list(plan.op_names)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_timeline(
    path: str | Path,
    result,
    spec,
    *,
    tracer: Tracer | None = None,
    max_block_events_per_kernel: int = 20_000,
) -> dict:
    """Build and write the timeline JSON; returns the trace object."""
    trace = build_timeline(
        result, spec, tracer=tracer,
        max_block_events_per_kernel=max_block_events_per_kernel,
    )
    Path(path).write_text(json.dumps(trace) + "\n")
    return trace
