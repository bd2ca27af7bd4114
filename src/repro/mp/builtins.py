"""The model zoo, re-expressed: every builtin is a UDF instance.

Each entry is nothing but a ``(MessageSpec, ReduceSpec)`` pair — the
same closed algebra user code writes.  The registry replaces the closed
per-model builder dispatch: frameworks resolve a model *name* to its
spec structure, derive their lowering from the terms, and compile the
numerics through :meth:`~repro.mp.spec.MPModel.workload`.

``register`` is the extension point: a user registers a builder once and
the name becomes runnable on every framework, lintable, optimizable, and
servable — the derivation chain the custom-conv example demonstrates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..graph.csr import CSRGraph
from ..plan.cache import get_plan_cache
from .spec import (
    AttentionLogit,
    MessageSpec,
    MPModel,
    ReduceSpec,
    SelfTerm,
    SymNorm,
    bind,
)

__all__ = [
    "BUILTIN_SPECS",
    "build_model",
    "is_registered",
    "register",
    "registered_models",
    "resolve",
    "unregister",
]

#: a spec builder returns the (message, reduce) halves for one cell; most
#: builders ignore the cell and return a constant structure, but terms may
#: carry cell-dependent payloads (explicit edge scalars, attention vectors)
SpecBuilder = Callable[[], tuple[MessageSpec, ReduceSpec]]


def _gcn() -> tuple[MessageSpec, ReduceSpec]:
    return (
        MessageSpec(feature="src", scale=SymNorm()),
        ReduceSpec(op="sum", self_term=SelfTerm(kind="scaled")),
    )


def _gin() -> tuple[MessageSpec, ReduceSpec]:
    return (
        MessageSpec(feature="src"),
        ReduceSpec(op="sum", self_term=SelfTerm(kind="eps")),
    )


def _sage() -> tuple[MessageSpec, ReduceSpec]:
    return (
        MessageSpec(feature="src"),
        ReduceSpec(op="mean", self_term=SelfTerm(kind="concat")),
    )


def _gat() -> tuple[MessageSpec, ReduceSpec]:
    return (
        MessageSpec(feature="src", scale=AttentionLogit()),
        ReduceSpec(op="sum", normalize="softmax"),
    )


def _rgcn() -> tuple[MessageSpec, ReduceSpec]:
    # one homogeneous relation of an R-GCN layer: plain neighbour mean;
    # relation weights live in the dense phase (models.RelationalLayer
    # applies this spec once per relation graph)
    return (MessageSpec(feature="src"), ReduceSpec(op="mean"))


#: the five paper/extension models as spec structures
BUILTIN_SPECS: dict[str, SpecBuilder] = {
    "gcn": _gcn,
    "gin": _gin,
    "sage": _sage,
    "graphsage": _sage,
    "gat": _gat,
    "rgcn": _rgcn,
}

_registry: dict[str, SpecBuilder] = dict(BUILTIN_SPECS)


def register(name: str, builder: SpecBuilder, *, replace: bool = False) -> None:
    """Register a user-defined model under ``name`` (lowercased)."""
    key = name.lower()
    if not replace and key in _registry:
        raise ValueError(f"model {name!r} is already registered")
    _registry[key] = builder
    _discard_cached_plans(key)


def unregister(name: str) -> None:
    """Remove a user-registered model (builtins cannot be removed)."""
    key = name.lower()
    if key in BUILTIN_SPECS:
        raise ValueError(f"cannot unregister builtin model {name!r}")
    _registry.pop(key, None)
    _discard_cached_plans(key)


def _discard_cached_plans(key: str) -> None:
    """The plan-cache key holds a model's name, not its spec: a name whose
    spec changes drops its entries from the installed plan cache."""
    cache = get_plan_cache()
    if cache is not None:
        cache.discard_model(key)


def is_registered(name: str) -> bool:
    return name.lower() in _registry


def registered_models() -> tuple[str, ...]:
    return tuple(sorted(_registry))


def resolve(name: str) -> tuple[MessageSpec, ReduceSpec]:
    """The spec structure of a registered model name."""
    key = name.lower()
    if key not in _registry:
        raise KeyError(
            f"unknown model {name!r}; registered: {registered_models()}"
        )
    return _registry[key]()


def build_model(
    name: str,
    graph: CSRGraph,
    X: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
) -> MPModel:
    """Resolve ``name`` and bind its spec to one ``(graph, X)`` cell."""
    message, reduce_ = resolve(name)
    return bind(name.lower(), message, reduce_, graph, X, rng=rng)
