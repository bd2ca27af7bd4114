"""Cell identity: the one module that builds every content key.

A *cell* is one (system, model, graph, features, GPU spec) combination.
Four consumers address cells by content, and each key is a projection of
the functions here:

* the plan cache, :func:`repro.plan.cache.plan_fingerprint`: the cell
  plus the system's knobs and the optimizer context, over the feature
  *shape* and dtype (a cached profile reads no feature value);
* the tuned-plan store, :func:`repro.opt.tuner.tuning_key`: the cell over
  the feature *shape* and dtype, plus the tuner version;
* the profile archive and the ``repro regress`` probes,
  :func:`repro.obs.archive.config_fingerprint`: the run configuration;
* the verifier, :mod:`repro.verify.normal`: the digests of a workload's
  arrays (:func:`owned_digest`), and the content addresses of normal
  forms and certificates.

Every key is one construction, :func:`content_key`: sha256 over the
payload's sorted JSON, optionally followed by a graph fingerprint and an
array's shape, dtype and bytes.  Those bytes are persisted (tuned-plan
stores, archives, the ``BENCH_*.json`` trajectories, certificates), and
``tests/test_cell_key_pins.py`` pins them.

A leaf module: stdlib and numpy only, nothing from :mod:`repro`, and
every argument duck-typed, so each layer can import it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any

import numpy as np

__all__ = [
    "array_digest", "content_key", "dataset_block", "owned_digest",
    "spec_payload", "split_cell",
]


def spec_payload(spec: Any) -> dict[str, Any]:
    """``asdict(spec)`` of a frozen GPU spec, built once per spec object.

    The memo lives on the instance, not in a table keyed by equality: two
    equal specs can still serialize differently (``1`` vs ``1.0``), and a
    ``dataclasses.replace`` copy starts without one.  Callers must not
    mutate the returned dict.
    """
    memo = vars(spec)
    payload: dict[str, Any] | None = memo.get("_cell_payload")
    if payload is None:
        payload = memo["_cell_payload"] = asdict(spec)
    return payload


def dataset_block(dataset: Any) -> dict[str, Any] | None:
    """The dataset's full-size hints (None for a bare graph).

    They steer TLPGNN's hybrid heuristic, so one graph at two scales is
    two cells.
    """
    if dataset is None:
        return None
    return {
        "abbr": dataset.spec.abbr,
        "scale": dataset.scale,
        "full_num_vertices": dataset.full_num_vertices,
        "full_avg_degree": dataset.full_avg_degree,
    }


def split_cell(data: Any) -> tuple[Any, Any]:
    """``(graph, dataset)`` of a ``Dataset | CSRGraph`` argument; the
    dataset is None for a bare graph."""
    if hasattr(data, "full_num_vertices"):
        return data.graph, data
    return data, None


def content_key(
    payload: Any, *, graph: Any = None, array: Any = None, compact: bool = False
) -> str:
    """sha256 hex of ``payload``'s sorted JSON, then ``graph``'s
    fingerprint, then ``array`` (see :func:`array_digest`).

    ``compact`` drops the spaces after separators, the layout in which
    normal-form digests and certificate ids are persisted.
    """
    separators = (",", ":") if compact else None
    blob = json.dumps(payload, sort_keys=True, default=str, separators=separators)
    return _sha256(blob.encode(), graph, array)


def array_digest(array: Any, *, graph: Any = None) -> str:
    """sha256 hex of an array's shape, dtype and bytes, after ``graph``'s
    fingerprint when one is given."""
    return _sha256(b"", graph, array)


def owned_digest(owner: Any, name: str) -> str | None:
    """:func:`array_digest` of ``owner.<name>`` (None stays None),
    computed once per owner.

    The owner is a frozen holder of arrays (a ``ConvWorkload``, its
    ``AttentionSpec``, a ``ComputeStep``), and the memo lives on it, as
    ``CSRGraph.fingerprint`` lives on the graph.  It is never keyed on the
    ``id()`` of a bare array, and a ``dataclasses.replace`` copy starts
    empty.  An owner's arrays must not be mutated in place once digested.
    """
    memo: dict[str, str | None] = vars(owner).setdefault("_cell_digests", {})
    if name not in memo:
        array = getattr(owner, name)
        memo[name] = None if array is None else array_digest(array)
    return memo[name]


def _sha256(head: bytes, graph: Any, array: Any) -> str:
    h = hashlib.sha256(head)
    if graph is not None:
        h.update(graph.fingerprint().encode())
    if array is not None:
        a = np.ascontiguousarray(array)
        h.update(repr((a.shape, str(a.dtype))).encode())
        h.update(a.data)  # the bytes of a.tobytes(), without the copy
    return h.hexdigest()
