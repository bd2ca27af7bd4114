"""Servable adapter: a (system, model, graph) triple the service can plan.

The adapter bridges the offline world (a :class:`~repro.frameworks.base.
GNNSystem` profiling one convolution) and the online one (the stream
simulator executing micro-batches):

* it profiles the cell with :meth:`~repro.frameworks.base.GNNSystem.
  profile` — lower → optimize → analyze, never execute: serving reads
  the modeled timing, not the output.  The profile routes through the
  process-wide :class:`~repro.plan.PlanCache`, so a warm serve pass
  reuses the memoized :class:`~repro.gpusim.costmodel.PipelineTiming`
  and skips lowering and re-analysis entirely, then
* converts each pipeline kernel into a :class:`~repro.gpusim.streams.
  StreamKernel` via :func:`~repro.gpusim.costmodel.stream_demands`, with
  the framework dispatch cost (the single source of truth is the system's
  ``dispatch_seconds``, applied once in ``repro.plan.cost_plan``) folded
  into the launch prefix.

The conversion is exact by construction: summing ``launch + alone`` over
the plan reproduces the offline ``runtime_seconds``, which is what makes
the streams=1 / batch=1 parity acceptance test hold to the femtosecond.

Batch semantics
---------------
* ``job="full"`` — a batch of B requests is one pipeline launch over the
  full graph with B feature sets stacked: kernel *demands* scale by B,
  launches are paid once per pipeline kernel (the amortization the
  batcher exists to exploit).  The B=1 pipeline is profiled once and
  cached; planning a batch is then O(#kernels).
* ``job="targets"`` — the batch's target sets are unioned, the union's
  in-edge subgraph is extracted (:meth:`~repro.graph.csr.CSRGraph.
  induced_in_edges`, as :func:`repro.multigpu.distribute_conv` does per
  device), and the system is profiled on that subgraph, so batch cost
  grows sublinearly when targets overlap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..frameworks.base import GNNSystem, UnsupportedModelError
from ..graph.csr import CSRGraph
from ..graph.datasets import Dataset
from ..graph.generators import make_features
from ..gpusim.config import V100, GPUSpec
from ..gpusim.costmodel import PipelineTiming, stream_demands
from ..gpusim.streams import StreamKernel
from ..identity import split_cell
from .workload import Request

__all__ = ["ServableModel", "plan_from_timing"]


def plan_from_timing(
    timing: PipelineTiming, *, scale: float = 1.0
) -> list[StreamKernel]:
    """Convert an offline pipeline timing into an ordered stream plan.

    ``scale`` multiplies the device demands (batch size for full-graph
    jobs); host-side launch costs are per launch and do not scale.  The
    per-pipeline framework dispatch cost is spread evenly over the
    kernels so the plan's serialized total stays ``launch_seconds +
    scale * gpu_seconds`` exactly.
    """
    kernels = timing.kernels
    if not kernels:
        return []
    fw_share = timing.framework_seconds / len(kernels)
    plan = []
    for k in kernels:
        comp, mem = stream_demands(k)
        plan.append(
            StreamKernel(
                name=k.name,
                comp_seconds=comp * scale,
                mem_seconds=mem * scale,
                launch_seconds=k.launch_seconds + fw_share,
            )
        )
    return plan


class ServableModel:
    """One deployable (system, model, dataset) unit behind the service."""

    def __init__(
        self,
        system: GNNSystem,
        model: str,
        data: Dataset | CSRGraph,
        *,
        feat_dim: int = 32,
        spec: GPUSpec = V100,
        seed: int = 7,
        opt: str = "off",
    ):
        model = model.lower()
        if not system.supports(model):
            raise UnsupportedModelError(
                f"{system.name} does not implement {model}"
            )
        self.system = system
        self.model = model
        self.data = data
        self.graph, _ = split_cell(data)
        self.spec = spec
        self.seed = seed
        #: optimizer level forwarded to every ``system.profile`` call ("off" =
        #: the pre-optimizer plan); at "search" a warm deploy picks up
        #: persisted tuner decisions through the TunedPlanStore
        self.opt = opt
        self.X = make_features(self.graph.num_vertices, feat_dim, seed=seed)
        self._full_timing: PipelineTiming | None = None
        #: plan identity of the last offline profile (cached flag included)
        self.plan_info = None

    @property
    def label(self) -> str:
        return f"{self.system.name}/{self.model}/{self.graph.name}"

    # ------------------------------------------------------------------
    @property
    def offline_timing(self) -> PipelineTiming:
        """The cached B=1 full-graph pipeline timing (profiled on demand)."""
        if self._full_timing is None:
            prof = self.system.profile(
                self.model, self.data, self.X, self.spec, opt=self.opt
            )
            self._full_timing = prof.report.timing
            self.plan_info = prof.plan
        return self._full_timing

    @property
    def offline_runtime_s(self) -> float:
        """Offline single-request modeled latency (the parity reference)."""
        return self.offline_timing.runtime_seconds

    # ------------------------------------------------------------------
    def can_serve(self, request: Request) -> bool:
        """False for a targets request naming a vertex outside the graph;
        the service refuses it on arrival, before it can join a batch."""
        targets = request.targets
        return targets is None or (
            min(targets) >= 0 and max(targets) < self.graph.num_vertices
        )

    def plan(self, batch: Sequence[Request]) -> list[StreamKernel]:
        """The ordered kernel launches that serve this micro-batch."""
        if not batch:
            raise ValueError("cannot plan an empty batch")
        jobs = {r.job for r in batch}
        if len(jobs) != 1:
            raise ValueError(f"mixed-job batch: {sorted(jobs)}")
        job = jobs.pop()
        if job == "full":
            return plan_from_timing(self.offline_timing, scale=float(len(batch)))
        sub, vertices = self.graph.induced_in_edges(
            np.concatenate([np.asarray(r.targets, dtype=np.int64) for r in batch]),
            name=f"{self.graph.name}_serve",
        )
        prof = self.system.profile(
            self.model, sub, np.ascontiguousarray(self.X[vertices]), self.spec,
            opt=self.opt,
        )
        return plan_from_timing(prof.report.timing)
