"""Multi-GPU graph convolution (the paper's future work, as a library).

Implements the partition → per-device convolution → halo exchange pipeline
the paper sketches ("our techniques can also be deployed on a multi-GPU
setting with the help of graph partition techniques, e.g., METIS"):

1. k-way partition of the vertex set (:func:`repro.graph.partition_kway`,
   the METIS substitute),
2. per-device local CSR over (local ∪ halo) vertices,
3. the unchanged TLPGNN kernel per device, each profiled on its own
   modeled GPU,
4. halo feature exchange accounted as interconnect traffic (NVLink-class
   bandwidth by default).

Works for any weighted-sum workload whose edge weights factorize into
per-vertex scalars (GCN's symmetric norm, GIN's unweighted sum, SAGE's
mean via post-division) — the factorization is what keeps the exchange to
one feature row per halo vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph.csr import CSRGraph, from_edge_list
from .graph.partition import Partition, partition_kway
from .gpusim.config import V100, GPUSpec
from .kernels.tlpgnn import TLPGNNKernel
from .models.convspec import ConvWorkload
from .plan import execute_plan, model_plan, plan_for_kernel

__all__ = ["DeviceShard", "MultiGPUResult", "distribute_conv"]

#: NVLink-class device-to-device bandwidth (V100 NVLink2: ~50 GB/s per link)
NVLINK_BYTES_PER_S = 50e9


@dataclass(frozen=True)
class DeviceShard:
    """One device's slice of the distributed convolution."""

    device: int
    local_vertices: np.ndarray
    halo_vertices: np.ndarray
    local_graph: CSRGraph
    gpu_seconds: float

    @property
    def num_local(self) -> int:
        return int(self.local_vertices.size)

    @property
    def num_halo(self) -> int:
        return int(self.halo_vertices.size)


@dataclass
class MultiGPUResult:
    """Distributed output + per-device profiles + exchange accounting."""

    output: np.ndarray
    shards: list[DeviceShard] = field(default_factory=list)
    halo_bytes: int = 0
    exchange_seconds: float = 0.0

    @property
    def num_devices(self) -> int:
        return len(self.shards)

    @property
    def conv_seconds(self) -> float:
        """Critical-path device time (devices run concurrently)."""
        return max((s.gpu_seconds for s in self.shards), default=0.0)

    @property
    def total_seconds(self) -> float:
        return self.conv_seconds + self.exchange_seconds

    @property
    def load_balance(self) -> float:
        """max/mean ratio of per-device conv time (1.0 = perfect)."""
        times = [s.gpu_seconds for s in self.shards]
        mean = float(np.mean(times)) if times else 0.0
        return max(times) / mean if mean > 0 else 1.0


def distribute_conv(
    graph: CSRGraph,
    X: np.ndarray,
    num_devices: int,
    *,
    src_scale: np.ndarray | None = None,
    dst_scale: np.ndarray | None = None,
    spec: GPUSpec = V100,
    partition: Partition | None = None,
    kernel: TLPGNNKernel | None = None,
    seed: int = 0,
) -> MultiGPUResult:
    """Run ``out[u] = dst_scale[u] * Σ_v src_scale[v] X[v]`` on k devices.

    ``src_scale``/``dst_scale`` default to ones (plain GIN-style sum).  GCN's
    symmetric norm passes ``1/sqrt(d+1)`` for both; the self-loop term is the
    caller's (it is embarrassingly local).
    """
    X = np.ascontiguousarray(X, dtype=np.float32)
    n = graph.num_vertices
    if X.shape[0] != n:
        raise ValueError("X rows must match vertex count")
    ones = np.ones(n, dtype=np.float32)
    src_scale = ones if src_scale is None else src_scale.astype(np.float32)
    dst_scale = ones if dst_scale is None else dst_scale.astype(np.float32)
    partition = partition or partition_kway(graph, num_devices, seed=seed)
    if partition.k != num_devices:
        raise ValueError("partition.k must equal num_devices")
    kernel = kernel or TLPGNNKernel()

    src_all, dst_all = graph.edge_list()
    scaled = X * src_scale[:, None]
    out = np.zeros_like(X)
    shards: list[DeviceShard] = []
    halo_bytes = 0
    for dev in range(num_devices):
        local = partition.part_vertices(dev)
        mask = partition.assignment[dst_all] == dev
        src, dst = src_all[mask], dst_all[mask]
        halo = np.unique(src[partition.assignment[src] != dev])
        halo_bytes += int(halo.size) * X.shape[1] * 4
        vertices = np.unique(np.concatenate([local, halo]))
        lut = np.full(n, -1, dtype=np.int64)
        lut[vertices] = np.arange(vertices.size)
        local_graph = from_edge_list(
            lut[src], lut[dst], vertices.size, name=f"dev{dev}"
        )
        workload = ConvWorkload(
            graph=local_graph,
            X=np.ascontiguousarray(scaled[vertices]),
            reduce="sum",
        )
        plan = plan_for_kernel(
            kernel,
            workload,
            system="multigpu",
            pipeline_name=f"multigpu_dev{dev}",
        )
        shard_out = execute_plan(plan)
        _pipeline, timing = model_plan(plan, spec)
        mine = lut[local]
        out[local] += shard_out[mine]
        shards.append(
            DeviceShard(
                device=dev,
                local_vertices=local,
                halo_vertices=halo,
                local_graph=local_graph,
                gpu_seconds=timing.gpu_seconds,
            )
        )
    out *= dst_scale[:, None]
    return MultiGPUResult(
        output=out,
        shards=shards,
        halo_bytes=halo_bytes,
        exchange_seconds=halo_bytes / NVLINK_BYTES_PER_S,
    )
