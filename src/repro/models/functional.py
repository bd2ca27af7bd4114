"""Dense/segment functional ops (numpy) used by the GNN models.

These are the "regular neural operations" of the paper's three-phase layer
pattern; only the graph-convolution phase is timed, but the models need
these to be runnable end to end.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "leaky_relu",
    "linear",
    "xavier_uniform",
    "segment_sum",
    "segment_max",
    "segment_softmax",
    "softmax",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.2) -> np.ndarray:
    return np.where(x >= 0, x, negative_slope * x)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight + bias`` with shape checks."""
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(f"shape mismatch: {x.shape} @ {weight.shape}")
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


# ----------------------------------------------------------------------
# segment ops over CSR edge groups (destination-major)
# ----------------------------------------------------------------------
def _segment_ids(indptr: np.ndarray) -> np.ndarray:
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def _reduceat(ufunc, values: np.ndarray, indptr: np.ndarray, empty: float) -> np.ndarray:
    """Segment reduction via ``ufunc.reduceat`` with empty segments fixed up.

    ``reduceat`` returns ``values[start]`` for zero-length segments (and
    cannot take ``start == len(values)``), so empty segments are clipped and
    overwritten with ``empty`` afterwards.  Orders of magnitude faster than
    ``ufunc.at`` at multi-million-edge scale.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    out_shape = (n, *values.shape[1:])
    if values.shape[0] == 0:
        return np.full(out_shape, empty, dtype=values.dtype)
    starts = indptr[:-1]
    # reduceat cannot take a boundary == len(values) (trailing empty
    # segments); reduce over the valid boundaries and scatter back.
    valid = starts < values.shape[0]
    out = np.full(out_shape, empty, dtype=values.dtype)
    out[valid] = ufunc.reduceat(values, starts[valid], axis=0)
    if np.any(lengths == 0):
        out[lengths == 0] = empty
    return out


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum ``values`` (E,...) over CSR segments → (n,...)."""
    return _reduceat(np.add, values, indptr, 0.0)


def segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Max over CSR segments; empty segments yield zero (GNN convention)."""
    return _reduceat(np.maximum, values, indptr, 0.0)


def segment_softmax(logits: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-destination softmax over edge logits (E,) — GAT's edge softmax.

    Empty segments contribute nothing; numerically stabilized by the
    per-segment max, exactly like DGL's edge_softmax.
    """
    if logits.ndim != 1:
        raise ValueError("edge logits must be 1-D")
    x = logits.astype(np.float64)
    mx = _reduceat(np.maximum, x, indptr, 0.0)
    seg = _segment_ids(indptr)
    e = np.exp(x - mx[seg])
    denom = np.maximum(_reduceat(np.add, e, indptr, 1.0), 1e-38)
    return (e / denom[seg]).astype(logits.dtype, copy=False)
