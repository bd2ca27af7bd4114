"""The layer table and the wrappers that time, count or delay each layer.

Every layer is a list of the program's public entry points.  The benchmark
never edits the program: :class:`Instrument` patches each entry point, from
outside, with a wrapper that closes over the instrument, and restores the
originals on exit.  Three uses share that mechanism:

* count mode (``trace=False``) counts calls per layer and per op;
* trace mode (``trace=True``) also records one span per call (name, start,
  end, parent, op id), kept in memory and written out at the end;
* delay mode (``delay_s > 0``) busy-waits before every call of the given
  layers -- the layer-sensitivity test.

It never installs ``repro.obs.Tracer``: an installed tracer makes
``GNNSystem.run`` bypass the plan cache, which would change the program
being measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

#: every host time of the benchmark is process CPU time: on a shared VM the
#: hypervisor takes the CPU away for up to a sixth of wall time, at random,
#: and CPU time is what running the single-threaded, I/O-free program costs
CLOCK = time.process_time

#: layer -> entry points, as "module:qualname"; a method's calls are counted
#: on its class, so every subclass and instance sees the wrapper
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": (
        "repro.graph.datasets:load_dataset",
        "repro.graph.csr:from_edge_list",
        "repro.graph.reorder:degree_sort",
    ),
    "frameworks": (
        "repro.frameworks.base:GNNSystem.run",
        "repro.frameworks.base:GNNSystem.lower",
    ),
    "opt": (
        "repro.opt.passes:optimize_plan",
        "repro.opt.tuner:AutoTuner.tune",
    ),
    "lint": ("repro.lint:lint_plan",),
    "verify": (
        "repro.verify.normal:normalize_plan",
        "repro.verify.equiv:decide_equivalence",
        "repro.verify.certificate:certify_plans",
    ),
    "plan.execute": ("repro.plan.executor:execute_plan",),
    "plan.analyze": (
        "repro.plan.analyzer:analyze_plan",
        "repro.plan.analyzer:time_parts",
        "repro.plan.analyzer:cost_plan",
    ),
    "plan.cache": (
        "repro.plan.cache:plan_fingerprint",
        "repro.opt.tuner:tuning_key",
        "repro.plan.cache:PlanCache.get",
        "repro.plan.cache:PlanCache.put",
    ),
    "serve": (
        "repro.serve.service:InferenceService.run",
        "repro.serve.adapter:ServableModel.plan",
    ),
    "gpusim.streams": tuple(
        f"repro.gpusim.streams:MultiStreamSimulator.{m}"
        for m in (
            "__init__",
            "submit",
            "take_completions",
            "pending_work_s",
            "advance_to",
            "drain",
            "avg_concurrency",
        )
    ),
}

LAYER_NAMES = tuple(LAYERS)


def _resolve(path: str) -> tuple[Any, str, Callable, bool]:
    """``module:qualname`` -> (owner, attribute, original, is_method)."""
    mod_name, qual = path.split(":")
    owner: Any = importlib.import_module(mod_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(original):
        raise TypeError(f"{path} is not a function")
    return owner, attr, original, isinstance(owner, type)


def _holders(fn: Callable) -> list[tuple[Any, str]]:
    """Every (module, name) binding of a module-level function: the program
    imports functions by name, so each importing module holds its own."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                out.append((module, attr))
    return out


class Instrument:
    """Patch the layer table's entry points for the life of a ``with`` block.

    ``layers`` selects the layers to wrap.  Counts and spans are attributed
    to the op set by :meth:`begin_op`.  ``on_return`` maps an entry point
    to a callback that sees each call's return value (count and trace
    modes only).
    """

    def __init__(
        self,
        layers: tuple[str, ...] = LAYER_NAMES,
        *,
        trace: bool = False,
        delay_s: float = 0.0,
        on_return: dict[str, Callable[[Any], None]] | None = None,
    ) -> None:
        unknown = set(layers) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layer(s): {sorted(unknown)}")
        self.layers = tuple(layers)
        self.trace = trace
        self.delay_s = delay_s
        self.on_return = dict(on_return or {})
        #: (layer, entry point) per key index
        self.keys: list[tuple[str, str]] = [
            (layer, path) for layer in self.layers for path in LAYERS[layer]
        ]
        self.op = -1
        #: per-op call counts: op -> counts per key index
        self.calls: dict[int, list[int]] = {}
        self._stack: list[int] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._key = array("q")
        self._op = array("q")
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self.calls.setdefault(op, [0] * len(self.keys))

    def end_op(self) -> None:
        self.op = -1

    def _wrapper(self, k: int, fn: Callable, path: str) -> Callable:
        if self.delay_s > 0:
            delay = self.delay_s
            clock = CLOCK

            def delayed(*args: Any, **kwargs: Any) -> Any:
                stop = clock() + delay
                while clock() < stop:
                    pass
                return fn(*args, **kwargs)

            return delayed

        observe = self.on_return.get(path)
        calls = self.calls

        if not self.trace:

            def counted(*args: Any, **kwargs: Any) -> Any:
                row = calls.get(self.op)
                if row is not None:
                    row[k] += 1
                result = fn(*args, **kwargs)
                if observe is not None and row is not None:
                    observe(result)
                return result

            return counted

        clock = CLOCK
        stack, start, end = self._stack, self._start, self._end
        parent, key, op_ids = self._parent, self._key, self._op

        def traced(*args: Any, **kwargs: Any) -> Any:
            row = calls.get(self.op)
            if row is None:  # outside an op (setup, checks): not recorded
                return fn(*args, **kwargs)
            row[k] += 1
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            key.append(k)
            op_ids.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if observe is not None:
                observe(result)
            return result

        return traced

    def __enter__(self) -> "Instrument":
        try:
            for k, (_layer, path) in enumerate(self.keys):
                owner, attr, original, is_method = _resolve(path)
                wrapper = functools.update_wrapper(
                    self._wrapper(k, original, path), original
                )
                if is_method:
                    holders = [(owner, attr)]
                else:
                    holders = _holders(original)
                for holder, name in holders:
                    self._patches.append((holder, name, vars(holder)[name]))
                    setattr(holder, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def layer_calls(self, ops: list[int]) -> dict[str, int]:
        """Total calls per layer over ``ops``."""
        out = {layer: 0 for layer in self.layers}
        for op in ops:
            row = self.calls.get(op, [0] * len(self.keys))
            for k, (layer, _path) in enumerate(self.keys):
                out[layer] += row[k]
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        n = len(self._start)
        out = {layer: 0.0 for layer in self.layers}
        if not n:
            return out
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        parent = np.frombuffer(self._parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        key = np.frombuffer(self._key, dtype=np.int64)
        per_key = np.bincount(key, weights=own, minlength=len(self.keys))
        for k, (layer, _path) in enumerate(self.keys):
            out[layer] += float(per_key[k])
        return out

    def top_level_seconds(self) -> float:
        """Summed duration of spans with no parent (covered by some layer)."""
        if not len(self._start):
            return 0.0
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        return float(dur[np.frombuffer(self._parent, dtype=np.int64) < 0].sum())

    def write(self, path: Path) -> int:
        """Write every span as columns (``.npz``); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layer=np.array([layer for layer, _p in self.keys]),
            entry=np.array([p for _layer, p in self.keys]),
            start_s=np.frombuffer(self._start, dtype=np.float64),
            end_s=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            key=np.frombuffer(self._key, dtype=np.int64),
            op=np.frombuffer(self._op, dtype=np.int64),
        )
        return len(self._start)
