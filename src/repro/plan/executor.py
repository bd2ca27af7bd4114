"""The shared numeric executor: one run path for every lowered plan.

Every system computes the same convolution; kernels differ in how the
work maps onto the GPU, not in what they compute.  So the output of any
plan is :func:`~repro.models.convspec.reference_aggregate` of its
:class:`~repro.plan.ir.ComputeStep` workload, optionally un-permuted
back to the caller's vertex order.  Two plans over the same workload
therefore produce byte-identical outputs by construction.
"""

from __future__ import annotations

import numpy as np

from ..models.convspec import reference_aggregate
from ..obs.reqtrace import current_batch_context
from ..obs.tracer import span
from .ir import ExecutionPlan

__all__ = ["execute_plan"]


def _request_tags() -> dict:
    """Request-level attribution for kernel spans: when this execution
    happens on behalf of a served batch, tag the span with its ids."""
    bctx = current_batch_context()
    if bctx is None:
        return {}
    return {"batch": bctx.bid, "rids": list(bctx.rids)}


def execute_plan(plan: ExecutionPlan) -> np.ndarray:
    """Produce the plan's output features (the execute stage)."""
    step = plan.compute
    conv = plan.conv_op
    label = step.label or plan.pipeline_name
    if conv is not None:
        label = conv.kernel.name
    with span("kernel.run", kernel=label, **_request_tags()):
        output = reference_aggregate(step.workload)
    if step.output_perm is not None:
        output = output[step.output_perm]
    return output
