"""Experiment runner shared by all table/figure regenerators."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from ..frameworks import SYSTEMS, CapacityError, GNNSystem, UnsupportedModelError
from ..frameworks.base import SystemProfile, SystemResult
from ..gpusim.config import V100, GPUSpec, scaled_spec
from ..graph.datasets import Dataset, load_dataset
from ..graph.generators import make_features
from ..obs.tracer import span

__all__ = [
    "BenchConfig",
    "Cell",
    "GOLDEN_DATASETS",
    "GOLDEN_MODELS",
    "make_features",
    "get_dataset",
    "load_cell",
    "grid_cells",
    "walk_grid",
    "run_system",
    "profile_system",
    "run_comparison",
]

#: the golden grid, every system x these models x these datasets: what
#: ``repro lint`` and ``repro verify`` cover unless told otherwise
GOLDEN_MODELS = ("gcn", "gat")
GOLDEN_DATASETS = ("CR", "CS", "PD")


@dataclass(frozen=True)
class BenchConfig:
    """Knobs every experiment shares.

    ``max_edges`` bounds the synthetic stand-ins (see
    :func:`repro.graph.datasets.default_scale`); the paper's feature size for
    the main comparison is 32.
    """

    feat_dim: int = 32
    max_edges: int = 2_000_000
    seed: int = 7
    spec: GPUSpec = field(default_factory=lambda: V100)
    #: shrink the modeled device with the dataset's scale factor so ratios
    #: (and absolute modeled ms) stay comparable to full size
    scale_device: bool = True

    def spec_for(self, dataset: Dataset) -> GPUSpec:
        """The device spec to use for a (possibly scaled) dataset."""
        if self.scale_device and dataset.scale < 1.0:
            return scaled_spec(self.spec, dataset.scale)
        return self.spec


def _dataset_key(abbr: str, config: BenchConfig) -> tuple[str, int, int]:
    """Canonical, hashable cache key for one (dataset, config) load.

    Normalizes abbreviation aliases (" cs " == "CS") and coerces the
    numeric knobs through ``int()`` so numpy scalars / 0-d arrays — which
    either hash differently from equal Python ints or are unhashable —
    can neither miss the cache nor blow up ``lru_cache``.
    """
    return (
        str(abbr).strip().upper(),
        int(config.max_edges),
        int(config.seed),
    )


@lru_cache(maxsize=64)
def _cached_dataset(abbr: str, max_edges: int, seed: int) -> Dataset:
    return load_dataset(abbr, max_edges=max_edges, seed=seed)


#: content-level dedup: different (max_edges, seed) configs that happen to
#: produce byte-identical graphs share one Dataset object, so downstream
#: id()/fingerprint-keyed caches (plan cache included) see one canonical
#: instance per distinct graph.
_CANONICAL: dict[tuple[str, str], Dataset] = {}


def get_dataset(abbr: str, config: BenchConfig) -> Dataset:
    """Load (and memoize) a dataset under this config's scaling."""
    ds = _cached_dataset(*_dataset_key(abbr, config))
    key = (str(abbr).strip().upper(), ds.graph.fingerprint())
    return _CANONICAL.setdefault(key, ds)


@dataclass(frozen=True, eq=False)
class Cell:
    """One dataset resolved under a config: the inputs every (system,
    model) pair run on it shares."""

    abbr: str
    dataset: Dataset
    X: np.ndarray
    spec: GPUSpec

    def lower(self, system: GNNSystem, model: str) -> Any:
        """``system``'s execution plan for ``model`` on this cell."""
        return system.lower(model, self.dataset, self.X, self.spec)


def load_cell(abbr: str, config: BenchConfig) -> Cell:
    """Resolve a dataset, its features and its device spec, once."""
    dataset = get_dataset(abbr, config)
    X = make_features(dataset.graph.num_vertices, config.feat_dim, seed=config.seed)
    return Cell(abbr, dataset, X, config.spec_for(dataset))


def grid_cells(
    config: BenchConfig, datasets: Sequence[str] | None = None
) -> Iterator[Cell]:
    """Resolve a grid's datasets lazily (default: the golden datasets)."""
    return (load_cell(abbr, config) for abbr in datasets or GOLDEN_DATASETS)


def walk_grid(
    cells: Iterable[Cell],
    fn: Callable[[Cell, GNNSystem, str], Any],
    *,
    models: Sequence[str] | None = None,
    systems: Sequence[str] | None = None,
) -> Iterator[tuple[Cell, str, str, Any]]:
    """Apply ``fn(cell, system, model)`` over a grid, datasets outermost.

    Yields ``(cell, model, system_name, result)``.  Models default to the
    golden grid's, systems to every registered one.  A dash (unsupported
    model or capacity failure, as in the paper) yields the exception as
    the result instead of raising.
    """
    for cell in cells:
        for model in models or GOLDEN_MODELS:
            for name in systems or sorted(SYSTEMS):
                try:
                    result = fn(cell, SYSTEMS[name](), model)
                except (UnsupportedModelError, CapacityError) as exc:
                    result = exc
                yield cell, model, name, result


def run_system(
    system: GNNSystem,
    model: str,
    dataset: Dataset,
    config: BenchConfig,
    *,
    X: np.ndarray | None = None,
    opt: str = "off",
) -> SystemResult | None:
    """Run one (system, model, dataset) cell: its profile and its output.
    None where the paper has a dash (unsupported model or capacity
    failure)."""
    return _call_cell("run", system, model, dataset, config, X, opt)


def profile_system(
    system: GNNSystem,
    model: str,
    dataset: Dataset,
    config: BenchConfig,
    *,
    X: np.ndarray | None = None,
    opt: str = "off",
) -> SystemProfile | None:
    """:func:`run_system` without the output: the cell's modeled profile,
    or None where the paper has a dash.  Every table and figure reads
    only profiles."""
    return _call_cell("profile", system, model, dataset, config, X, opt)


def _call_cell(
    method: str,
    system: GNNSystem,
    model: str,
    dataset: Dataset,
    config: BenchConfig,
    X: np.ndarray | None,
    opt: str,
) -> Any:
    """``system.<method>`` (``run`` or ``profile``) on one cell, under a
    ``bench.<method>_system`` span; a dash tags the span and returns None."""
    if X is None:
        X = make_features(dataset.graph.num_vertices, config.feat_dim, seed=config.seed)
    with span(
        f"bench.{method}_system",
        system=system.name, model=model, dataset=dataset.spec.abbr,
    ) as sp:
        try:
            result = getattr(system, method)(
                model, dataset, X, config.spec_for(dataset), opt=opt
            )
        except (UnsupportedModelError, CapacityError) as exc:
            if sp is not None:
                sp.set(dash=type(exc).__name__)
            return None
        if sp is not None:
            sp.add_modeled(result.report.timing.runtime_seconds)
        return result


def run_comparison(
    model: str,
    abbr: str,
    config: BenchConfig,
    *,
    systems: dict[str, type] | None = None,
) -> dict[str, SystemResult | None]:
    """Run all systems on one (model, dataset) cell."""
    cell = load_cell(abbr, config)
    return {
        name: run_system(factory(), model, cell.dataset, config, X=cell.X)
        for name, factory in (systems or SYSTEMS).items()
    }
