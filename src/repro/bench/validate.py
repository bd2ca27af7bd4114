"""The paper's shape claims, each written once.

A :class:`Claim` names one statement of the paper's evaluation, the
regenerator whose records it reads (``table1`` ... ``table5``, ``fig8`` ...
``fig12``, or the §4.2/§4.3 ``design_space``) and a check over those
records that returns ``(passed, detail)``.  ``python -m repro validate``,
``tests/test_paper_claims.py`` and the experiment benchmarks under
``benchmarks/`` all judge the claims in :data:`CLAIMS`; none of them states
a bound of its own.

A bound that holds at one dataset scale only names that scale in
``Claim.max_edges``.  At any other ``BenchConfig.max_edges`` the claim is
not stated, so it is skipped, not failed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..graph.datasets import DATASET_ORDER, DATASETS, LARGE_FOUR
from .figures import fig8, fig9, fig10, fig11, fig12
from .harness import BenchConfig
from .report import TableResult, fmt_mb
from .tables import design_space, table1, table2, table3, table4, table5

__all__ = ["CLAIMS", "Claim", "ClaimResult", "judge_result", "select_claims",
           "validate_claims"]

Records = list[dict]
Verdict = tuple[bool, str]


@dataclass(frozen=True)
class Claim:
    """One shape claim: the paper's statement, the regenerator it reads
    and a check over that regenerator's records."""

    statement: str
    regenerator: Callable[[BenchConfig], TableResult]
    check: Callable[[Records], Verdict]
    #: the one ``BenchConfig.max_edges`` the bound holds at (None: every scale)
    max_edges: int | None = None

    def stated_at(self, config: BenchConfig) -> bool:
        return self.max_edges is None or self.max_edges == config.max_edges


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    detail: str


def _rising(values: Sequence[float], *, strict: bool = True) -> bool:
    return all(a < b if strict else a <= b for a, b in zip(values, values[1:]))


def _cell(records: Records, model: str, abbr: str) -> dict:
    return next(r for r in records if (r["model"], r["dataset"]) == (model, abbr))


def _table1(records: Records) -> Verdict:
    *atomic, pull = records  # push, edge-centric, GNNAdvisor; then pull
    ratios = [r["gpu_ms"] / pull["gpu_ms"] for r in atomic]
    ok = (  # paper: 1.8x / 1.6x / 5.8x
        all(1.2 < x < hi for x, hi in zip(ratios, (6.0, 6.0, 12.0), strict=True))
        and pull["atomic_bytes"] == 0 and all(r["atomic_bytes"] > 0 for r in atomic)
        and pull["sm_util"] >= max(r["sm_util"] for r in atomic)
        and pull["stall"] <= min(r["stall"] for r in atomic)
    )
    return ok, "pull " + "/".join(f"{x:.2f}x" for x in ratios) + " faster"


def _table2(records: Records) -> Verdict:
    thread, warp = records
    ratio = thread["gpu_ms"] / warp["gpu_ms"]
    spr_t, spr_w = thread["sectors_per_request"], warp["sectors_per_request"]
    ok = (  # paper: 27.3x, and 9.2 vs 2.1 sectors/request
        ratio > 4.0 and warp["runtime_ms"] < thread["runtime_ms"]
        and spr_t > 3 * spr_w and spr_w < 4.0 and thread["stall"] > warp["stall"]
    )
    return ok, f"half-warp {ratio:.1f}x faster, sectors/request {spr_t:.1f}/{spr_w:.1f}"


def _table3(records: Records) -> Verdict:
    dgl, three, one = records
    order = (one, three, dgl)
    metrics = {k: [r[k] for r in order] for k in ("runtime", "usage", "traffic")}
    metrics["overhead"] = [r["runtime"] - r["gpu"] for r in order]
    ok = [r["kernels"] for r in records] == [18, 3, 1] and all(
        _rising(v) for v in metrics.values()
    )
    return ok, "runtime " + " < ".join(f"{t:.2f}" for t in metrics["runtime"]) + " ms"


def _table4(records: Records) -> Verdict:
    paper = {r["abbr"]: DATASETS[r["abbr"]] for r in records}
    off = [
        r["abbr"] for r in records
        if r["num_edges"] > max(1.05 * r["scale"] * paper[r["abbr"]].num_edges,
                                r["num_vertices"])
        or abs(r["avg_degree"] / paper[r["abbr"]].avg_degree - 1.0) >= 0.06
    ]
    ok = [r["abbr"] for r in records] == DATASET_ORDER and not off
    return ok, f"{len(records)} stand-ins; off their cap or degree: {off}"


#: Table 5 cells where TLPGNN must beat every baseline that runs
_SAMPLED = [("gcn", "PD")]
_SAMPLED += [(m, d) for m in ("gcn", "gat") for d in ("CR", "PI", "RD")]


def _table5_wins(records: Records) -> Verdict:
    won = {(r["model"], r["dataset"]) for r in records if r["speedup"] > 1.0}
    lost = [cell for cell in _SAMPLED if cell not in won]
    ok = len(records) == 44 and len(won) >= 40 and not lost  # paper: 41 of 44
    return ok, f"TLPGNN fastest on {len(won)}/{len(records)} cells; lost: {lost}"


def _table5_dashes(records: Records) -> Verdict:
    dashed = {(r["model"], r["dataset"]) for r in records if r["GNNA."] is None}
    # no Sage or GAT in GNNAdvisor, and no capacity for the 4 largest graphs
    paper = {(m, d) for m in ("sage", "gat") for d in DATASET_ORDER}
    paper |= {(m, d) for m in ("gcn", "gin") for d in LARGE_FOUR}
    return dashed == paper, f"{len(dashed)} dashes, {len(dashed ^ paper)} off the paper"


def _fig8(records: Records) -> Verdict:
    gcn = [r["atomic_bytes"] for r in records if r["model"] == "gcn"]
    ok = len(records) == 14 and min(r["atomic_bytes"] for r in records) > 0
    ok = ok and gcn[-1] > gcn[0]
    return ok, f"GCN {fmt_mb(gcn[0])} (CS) -> {fmt_mb(gcn[-1])} (OH)"


def _fig9(records: Records) -> Verdict:
    avg = {r["system"]: r["occupancy"] for r in records if r["dataset"] == "average"}
    ours, theirs = avg["TLPGNN"], avg["FeatGraph"]  # paper: 68.2% vs 41.2%
    return ours > theirs, f"TLPGNN {ours:.1%} vs FeatGraph {theirs:.1%}"


def _fig10(records: Records) -> Verdict:
    # each stage's entry is its speedup over the previous stage
    gcn, gat = _cell(records, "gcn", "PI"), _cell(records, "gat", "PI")
    total = float(np.mean([r["total"] for r in records]))  # paper: 8.6x-12.9x
    tlp = float(np.mean([r["+TLP"] for r in records]))  # paper: 2.5x-2.8x
    ok = (
        len(records) == 44 and total > 1.8 and tlp > 1.1 and gcn["total"] > 1.5
        and gcn["+TLP"] > 1.0 and gcn["+Cache"] >= 1.0 and gat["+Fusion"] > 1.0
    )
    return ok, f"mean total {total:.2f}x, +TLP {tlp:.2f}x; GCN/PI {gcn['total']:.2f}x"


def _fig10_full_scale(records: Records) -> Verdict:
    low = min(r["total"] for r in records)
    big = [r["+Hybrid"] for r in records if r["dataset"] in LARGE_FOUR]
    hybrid = float(np.mean(big))  # paper: ~2x on the four largest graphs
    return low > 0.9 and hybrid > 1.1, f"lowest total {low:.2f}x, +Hybrid {hybrid:.2f}x"


def _fig11(records: Records) -> Verdict:
    floors = {8: 5.0, 64: 30.0, 128: 45.0}  # paper: 45.3x-67.5x at 128 blocks
    weak = [
        (r["model"], r["dataset"]) for r in records
        if r["speedups"][0] != 1.0 or not _rising(r["speedups"], strict=False)
        or any(r["speedups"][r["blocks"].index(b)] <= f for b, f in floors.items())
    ]
    top = [r["speedups"][r["blocks"].index(128)] for r in records]
    return not weak, f"{min(top):.1f}x-{max(top):.1f}x at 128 blocks; weak: {weak}"


def _at(record: dict, feat: int) -> float:
    return record["normalized"][record["feat_sizes"].index(feat)]


def _fig12(records: Records) -> Verdict:
    flat = [(r["model"], r["dataset"]) for r in records
            if r["normalized"][0] != 1.0 or not _rising(r["normalized"])]
    x128 = _at(_cell(records, "gcn", "RD"), 128)  # ~8x linear
    return not flat and 4.0 < x128 < 24.0, f"GCN/RD 128/16 = {x128:.1f}x; flat: {flat}"


def _fig12_512(records: Records) -> Verdict:
    top = [_at(r, 512) for r in records]  # 32x the work; paper 27x-41.6x
    ok = all(10.0 < x < 120.0 for x in top)
    return ok, f"512/16 = {min(top):.1f}x-{max(top):.1f}x"


def _fig12_size16(records: Records) -> Verdict:
    x32 = _at(_cell(records, "gcn", "RD"), 32)  # paper: 1.3x-1.4x
    return x32 < 2.0, f"GCN/RD 32/16 = {x32:.2f}x"


def _mapping(level: int, fastest: str) -> Callable[[Records], Verdict]:
    def check(records: Records) -> Verdict:
        t = {r["mapping"]: r["gpu_ms"] for r in records if r["level"] == level}
        ok = all(t[fastest] < v for k, v in t.items() if k != fastest)
        return ok, ", ".join(f"{k} {v:.3f} ms" for k, v in t.items())

    return check


CLAIMS: dict[str, Claim] = {
    "obs1-atomics": Claim(
        "Observation I (Table 1): atomic-free pull beats push/edge by 1.2x-6x "
        "and GNNAdvisor by 1.2x-12x, with no atomic traffic, the highest SM "
        "utilization and the least stall",
        table1, _table1),
    "obs2-coalescing": Claim(
        "Observation II (Table 2): half-warp mapping beats thread-per-vertex "
        "by >4x, with under a third of its sectors/request (<4) and less stall",
        table2, _table2),
    "obs3-fusion": Claim(
        "Observation III (Table 3): 18/3/1 launches; one kernel < three < DGL "
        "in runtime, launch overhead, memory usage and traffic",
        table3, _table3),
    "table4-datasets": Claim(
        "Table 4: 11 stand-ins within their edge cap and 6% of the paper's "
        "average degree", table4, _table4),
    "table5-wins": Claim(
        "Table 5: TLPGNN beats every baseline on the sampled cells and on at "
        "least 40 of 44", table5, _table5_wins),
    "table5-dashes": Claim(
        "Table 5 dashes: GNNAdvisor capacity/model limits reproduce",
        table5, _table5_dashes),
    "fig8-atomic-traffic": Claim(
        "Figure 8: GNNAdvisor writes atomically everywhere, more on larger "
        "graphs", fig8, _fig8),
    "fig9-occupancy": Claim(
        "Figure 9: TLPGNN's average occupancy beats FeatGraph's", fig9, _fig9),
    "fig10-ablation": Claim(
        "Figure 10: each technique helps on PI; totals average >1.8x, +TLP "
        ">1.1x", fig10, _fig10),
    "fig10-full-scale": Claim(
        "Figure 10: every cell's total stays above 0.9x; hybrid gains >1.1x "
        "on the four largest graphs", fig10, _fig10_full_scale, max_edges=2_000_000),
    "fig11-thread-scaling": Claim(
        "Figure 11: speedup rises with blocks, past 5x at 8, 30x at 64, 45x "
        "at 128", fig11, _fig11),
    "fig12-feature-scaling": Claim(
        "Figure 12: runtime grows with feature size, about linearly",
        fig12, _fig12),
    "fig12-512": Claim(
        "Figure 12: 512 dims cost 10x-120x of 16 dims", fig12, _fig12_512,
        max_edges=2_000_000),
    "fig12-size16": Claim(
        "Figure 12: 32 dims cost under twice 16 dims (idle lanes are cheap)",
        fig12, _fig12_size16, max_edges=150_000),
    "level1-warp-mapping": Claim(
        "§4.2: warp-per-vertex beats thread- and CTA-per-vertex",
        design_space, _mapping(1, "warp")),
    "level2-feature-parallel": Claim(
        "§4.3: feature parallelism beats edge parallelism",
        design_space, _mapping(2, "feature")),
}


def _judge(claim_id: str, claim: Claim, records: Records | Exception) -> ClaimResult:
    if isinstance(records, Exception):
        passed, detail = False, f"error: {records!r}"
    else:
        try:
            passed, detail = claim.check(records)
        except Exception as exc:  # report, don't crash the sweep
            passed, detail = False, f"error: {exc!r}"
    return ClaimResult(claim_id, claim.statement, bool(passed), detail)


def select_claims(
    config: BenchConfig, only: Sequence[str] | None = None
) -> tuple[dict[str, Claim], dict[str, Claim]]:
    """Split the claims (or those in ``only``) into those stated at
    ``config``'s scale and those stated at another."""
    chosen = {cid: c for cid, c in CLAIMS.items() if not only or cid in only}
    stated = {cid: c for cid, c in chosen.items() if c.stated_at(config)}
    return stated, {cid: c for cid, c in chosen.items() if cid not in stated}


def judge_result(
    regenerator: Callable[[BenchConfig], TableResult],
    result: TableResult,
    config: BenchConfig,
) -> list[ClaimResult]:
    """Verdicts of the claims on one regenerated result that are stated at
    ``config``'s scale."""
    stated, _ = select_claims(config)
    return [_judge(cid, c, result.records) for cid, c in stated.items()
            if c.regenerator is regenerator]


def validate_claims(
    config: BenchConfig | None = None,
    *,
    only: list[str] | None = None,
) -> list[ClaimResult]:
    """Judge every claim (or those in ``only``) stated at ``config``'s
    scale, regenerating each experiment they read once.  Never raises on a
    failed claim or a failed regeneration."""
    config = config or BenchConfig(max_edges=150_000)
    claims, _ = select_claims(config, only)
    records: dict[Callable, Records | Exception] = {}
    for regenerator in dict.fromkeys(c.regenerator for c in claims.values()):
        try:
            records[regenerator] = regenerator(config).records
        except Exception as exc:  # report, don't crash the sweep
            records[regenerator] = exc
    return [_judge(cid, c, records[c.regenerator]) for cid, c in claims.items()]
