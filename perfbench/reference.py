"""Output checks behind ``ops_ok_frac``, written without ``repro.models``.

Offline cells: every system that ran must agree with the others, and gcn,
gin and sage must match the float64 reference below, both within a stated
tolerance.  Byte hashes are not used: float32 results differ in the last
bits across numpy builds.  Serve runs: admission and completion must be
conserved and every latency finite.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import scipy.sparse as sp

#: float32 outputs of two systems (different kernels and reduction orders)
AGREE_RTOL, AGREE_ATOL = 1e-5, 1e-6
#: float32 outputs against the float64 reference
REF_RTOL, REF_ATOL = 1e-5, 1e-6

#: the paper's dashes: GNNAdvisor implements neither GAT nor GraphSAGE, and
#: fails with an illegal memory access on the four largest graphs
DASH_MODELS = {"GNNAdvisor": ("gat", "sage")}
DASH_DATASETS = {"GNNAdvisor": ("CL", "ON", "RD", "OT")}


def expected_dash(system: str, model: str, abbr: str) -> bool:
    return model in DASH_MODELS.get(system, ()) or abbr in DASH_DATASETS.get(
        system, ()
    )


def reference_conv(model: str, indptr: np.ndarray, indices: np.ndarray,
                   X: np.ndarray) -> np.ndarray:
    """One graph convolution of gcn / gin / sage in float64.

    The CSR lists in-edges: row ``u`` holds the sources ``v`` of edges v->u.
    gcn: sum_v X[v] / sqrt((d_u+1)(d_v+1)) + X[u] / (d_u+1);
    gin: sum_v X[v] + X[u]  (eps = 0);
    sage: mean_v X[v]  (the self feature is concatenated in the dense phase).
    """
    n = indptr.size - 1
    deg = np.diff(indptr).astype(np.float64)
    X64 = X.astype(np.float64)
    if model == "gcn":
        c = 1.0 / np.sqrt(deg + 1.0)
        w = np.repeat(c, np.diff(indptr)) * c[indices]
    else:
        w = np.ones(indices.size)
    agg = sp.csr_matrix((w, indices, indptr), shape=(n, n)) @ X64
    if model == "gcn":
        return agg + X64 / (deg + 1.0)[:, None]
    if model == "gin":
        return agg + X64
    if model == "sage":
        return agg / np.maximum(deg, 1.0)[:, None]
    raise ValueError(f"no reference for {model!r}")


def _mismatch(a: np.ndarray, b: np.ndarray, rtol: float, atol: float) -> str | None:
    if a.shape != b.shape:
        return f"shape {a.shape} != {b.shape}"
    if not np.isfinite(a).all():
        return "non-finite output"
    bad = np.abs(a.astype(np.float64) - b) > atol + rtol * np.abs(b)
    if bad.any():
        err = float(np.max(np.abs(a.astype(np.float64) - b)))
        return f"{int(bad.sum())} element(s) outside tolerance (max |diff| {err:.3g})"
    return None


def check_outputs(model: str, graph: Any, X: np.ndarray,
                  outputs: dict[str, np.ndarray]) -> list[str]:
    """Cross-system agreement, then the reference for gcn/gin/sage."""
    problems = []
    names = sorted(outputs)
    if not names:
        return ["no system produced an output"]
    anchor = outputs[names[0]].astype(np.float64)
    for name in names[1:]:
        why = _mismatch(outputs[name], anchor, AGREE_RTOL, AGREE_ATOL)
        if why:
            problems.append(f"{name} disagrees with {names[0]}: {why}")
    if model in ("gcn", "gin", "sage"):
        ref = reference_conv(model, graph.indptr, graph.indices, X)
        for name in names:
            why = _mismatch(outputs[name], ref, REF_RTOL, REF_ATOL)
            if why:
                problems.append(f"{name} differs from the reference: {why}")
    return problems


def check_serve(report: Any, num_requests: int) -> list[str]:
    """Conservation and finite latencies of one ServeReport."""
    problems = []
    if report.arrived != num_requests:
        problems.append(f"arrived {report.arrived} != sent {num_requests}")
    if report.arrived != report.admitted + report.shed:
        problems.append("admission not conserved")
    if report.admitted != report.completed:
        problems.append("completion not conserved")
    if report.completed != len(report.accountant.records):
        problems.append("completed count != completion records")
    if report.completed and report.num_batches < 1:
        problems.append("requests completed without a batch")
    lat = report.accountant.latencies_ms()
    if lat.size and (not np.isfinite(lat).all() or (lat < 0).any()):
        problems.append("non-finite or negative latency")
    if not all(math.isfinite(v) for v in (report.p50_ms, report.p99_ms)):
        problems.append("non-finite latency percentile")
    return problems
