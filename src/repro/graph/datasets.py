"""Registry of the paper's Table 4 datasets as synthetic equivalents.

No network access is available, so each dataset is replaced by a generated
graph that preserves the statistics the paper's claims depend on — vertex
count, edge count, average degree, and degree skew — optionally scaled down
by ``scale`` (average degree is preserved under scaling).  The full-size
statistics stay attached to the loaded dataset so that the paper's hybrid
workload heuristic (|V| > 1M or avg degree > 50) can be evaluated against
the *original* workload the scaled graph stands in for.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass

import numpy as np

from . import generators
from .csr import CSRGraph, from_edge_list

__all__ = [
    "DatasetSpec",
    "Dataset",
    "DATASETS",
    "DATASET_ORDER",
    "LARGE_FOUR",
    "FIG8_SEVEN",
    "load_dataset",
    "default_scale",
    "sample_degree_sequence",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Full-size statistics of one Table 4 dataset."""

    abbr: str
    full_name: str
    num_vertices: int
    num_edges: int
    #: degree distribution family used by the synthetic stand-in
    family: str  # "power_law" | "uniform" | "regular_ish"
    #: power-law exponent for skewed datasets
    exponent: float = 2.2
    #: maximum in-degree of the original dataset (hub cap for stand-ins);
    #: None = uncapped
    max_degree: int | None = None

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_vertices


@dataclass(frozen=True)
class Dataset:
    """A loaded (possibly scaled) dataset: synthetic graph + original spec."""

    graph: CSRGraph
    spec: DatasetSpec
    scale: float

    @property
    def abbr(self) -> str:
        return self.spec.abbr

    #: Statistics the workload heuristics should reason about — the original
    #: full-size workload, not the scaled stand-in.
    @property
    def full_num_vertices(self) -> int:
        return self.spec.num_vertices

    @property
    def full_avg_degree(self) -> float:
        return self.spec.avg_degree


# Table 4 of the paper, verbatim (K = thousand, M = million).
_SPECS = [
    DatasetSpec("CS", "Citeseer", 3_300, 9_200, "uniform"),
    DatasetSpec("CR", "Cora", 2_700, 10_500, "uniform"),
    DatasetSpec("PD", "Pubmed", 19_700, 88_600, "power_law", 2.4, 172),
    DatasetSpec("OA", "Ogbn-arxiv", 169_000, 1_100_000, "regular_ish"),
    DatasetSpec("PI", "PPI", 56_000, 1_600_000, "power_law", 2.3, 721),
    DatasetSpec("DD", "DD", 334_000, 1_600_000, "uniform"),
    DatasetSpec("OH", "Ovcar-8h", 1_800_000, 3_900_000, "uniform"),
    DatasetSpec("CL", "Collab", 372_000, 24_900_000, "power_law", 2.3, 1_600),
    DatasetSpec("ON", "Ogbn-protein", 132_000, 79_000_000, "power_law", 2.5, 7_750),
    DatasetSpec("RD", "Reddit", 232_000, 114_000_000, "power_law", 2.2, 21_657),
    DatasetSpec("OT", "Ogbn-product", 2_400_000, 123_700_000, "power_law", 2.4, 17_481),
]

DATASETS: dict[str, DatasetSpec] = {s.abbr: s for s in _SPECS}
#: Table order used throughout the paper (sorted by edge count).
DATASET_ORDER = [s.abbr for s in _SPECS]
#: The "four largest graphs" of Figures 11 and 12.
LARGE_FOUR = ["CL", "ON", "RD", "OT"]
#: The seven datasets GNNAdvisor completes on (Figure 8 / Table 5 dashes).
FIG8_SEVEN = ["CS", "CR", "PD", "OA", "PI", "DD", "OH"]


def sample_degree_sequence(
    abbr: str, *, seed: int = 7, scale: float = 1.0
) -> "np.ndarray":
    """In-degree sequence of the (optionally scaled) dataset, full fidelity.

    Degrees alone drive the vertex-parallel cost model, so experiments like
    Figure 11 can evaluate *full-size* workloads (hundreds of millions of
    edges) without materializing the edge arrays: one multinomial draw over
    the generator's vertex weights yields the exact degree distribution the
    edge-level generator would produce.
    """
    if abbr not in DATASETS:
        raise KeyError(f"unknown dataset {abbr!r}")
    spec = DATASETS[abbr]
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    n = max(64, int(round(spec.num_vertices * scale)))
    m = max(n, int(round(spec.num_edges * scale)))
    rng = np.random.default_rng(seed + zlib.crc32(abbr.encode()) % 10_000)
    if spec.family == "power_law":
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-1.0 / (spec.exponent - 1.0))
        weights /= weights.sum()
        if spec.max_degree is not None:
            cap = spec.max_degree / m
            for _ in range(4):
                over = weights > cap
                if not over.any():
                    break
                weights = np.minimum(weights, cap)
                weights /= weights.sum()
        deg = rng.multinomial(m, weights).astype(np.int64)
        return deg[rng.permutation(n)]
    if spec.family == "regular_ish":
        base = max(int(spec.avg_degree * 0.7), 1)
        extra = max(m - base * n, 0)
        deg = np.full(n, base, dtype=np.int64)
        deg += rng.multinomial(extra, np.full(n, 1.0 / n)).astype(np.int64)
        return deg
    return rng.multinomial(m, np.full(n, 1.0 / n)).astype(np.int64)


def default_scale(spec: DatasetSpec, *, max_edges: int = 2_000_000) -> float:
    """Largest power-of-two downscale keeping the graph under ``max_edges``.

    Small datasets load at full size; the giant ones (CL/ON/RD/OT) are scaled
    so the pure-Python harness stays tractable.  Returns a value in (0, 1].
    """
    scale = 1.0
    while spec.num_edges * scale > max_edges and spec.num_vertices * scale > 64:
        scale /= 2.0
    return scale


def load_dataset(
    abbr: str,
    *,
    scale: float | None = None,
    max_edges: int = 2_000_000,
    seed: int = 7,
) -> Dataset:
    """Load (generate) the synthetic stand-in for dataset ``abbr``.

    Parameters
    ----------
    abbr:
        Table 4 abbreviation, e.g. ``"RD"`` for Reddit.
    scale:
        Fraction of the original vertex count to generate.  ``None`` picks
        :func:`default_scale` based on ``max_edges``.  Average degree is
        preserved, so edge count scales by the same factor.
    seed:
        RNG seed; loading the same dataset twice yields an identical graph.
    """
    if abbr not in DATASETS:
        raise KeyError(f"unknown dataset {abbr!r}; known: {sorted(DATASETS)}")
    spec = DATASETS[abbr]
    if scale is None:
        scale = default_scale(spec, max_edges=max_edges)
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    n = max(64, int(round(spec.num_vertices * scale)))
    m = max(n, int(round(spec.num_edges * scale)))
    rng = np.random.default_rng(seed + zlib.crc32(abbr.encode()) % 10_000)
    if spec.family == "power_law":
        # The hub cap stays absolute: average degree is preserved under
        # scaling, so keeping max degree preserves the max/mean shape of the
        # distribution (what balance and occupancy effects react to).  The
        # hub's *share* of total work grows at small scale — a documented
        # artifact bounded by running the big-graph experiments at the
        # default (largest) scale.
        graph = generators.power_law(
            n, m, exponent=spec.exponent, max_degree=spec.max_degree,
            seed=rng, name=abbr,
        )
    elif spec.family == "regular_ish":
        # OA-like: narrow degree distribution — a regular part plus uniform
        # extra edges, drawn as edge arrays and built into one CSR.
        src, dst = generators.regular_edges(
            n, max(int(spec.avg_degree * 0.7), 1), seed=rng
        )
        if m > src.size:
            er_src, er_dst = generators.erdos_renyi_edges(n, m - src.size, seed=rng)
            src = np.concatenate([src, er_src])
            dst = np.concatenate([dst, er_dst])
        graph = from_edge_list(src, dst, n, name=abbr)
    else:
        graph = generators.erdos_renyi(n, m, seed=rng, name=abbr)
    return Dataset(graph=graph, spec=spec, scale=scale)
