"""Symbolic per-lane memory-access analysis: coalescing, divergence, bounds.

TLPGNN's headline numbers are access-pattern numbers: warp-per-vertex
execution with consecutive-lane feature reads keeps sectors-per-request
near the 4-sector ideal, while thread-per-vertex pulls and scatter/push
designs spread each warp request across the whole cache line space
(PAPER §4.2, Figure 7).  This module makes those patterns *declarative*:
every kernel states, per buffer, an :class:`AccessPattern` — an affine
expression over the ``(lane, iter)`` symbols of one scheduled unit plus
an optional indirection — and the analyzer classifies each pattern
symbolically, with no execution:

* **ACC001** (error) — an effects-declared buffer has no access pattern
  (the HAZ001 analogue for the access layer: new kernels must declare).
* **ACC002** (warning) — gather-random read: each lane addresses its own
  indirected row, so one warp request touches up to 32 distinct sectors.
* **ACC003** (warning) — strided access: a constant per-lane stride > 1
  element splits the request across ``stride``-spaced sectors (the
  thread-per-vertex ``out[v, j]`` row-pitch walk).
* **ACC004** (warning) — scattered write/atomic: the *row* target is
  indirected, so distinct units collide on destination rows (push /
  edge-centric ``atomicAdd``, DGL's COO scatter-spmm).
* **DIV001** (warning) — a degree-dependent trip count that varies per
  *lane*: intra-warp divergence (Table 2's thread-per-vertex pull).
* **DIV002** (info) — recurring tail masking: feature rounds or edge
  tiles whose last round leaves lanes idle.
* **OOB001** (error) — the symbolic index range provably exceeds the
  declared buffer shape.

:func:`cross_validate_access` pins the symbolic layer to the other two
models: the static sector class must agree with the measured
sectors-per-request of both the vectorized counter model and the exact
micro-simulator — coalesced classes must measure at or under
:data:`COALESCED_SPR_MAX`, uncoalesced classes must show excess sectors
or masked lanes (idle lanes are the other face of lane-spread: a gather
that keeps few lanes active produces few sectors *and* much divergence).

Nothing here imports :mod:`repro.plan`; :func:`access_findings`
duck-types its plan (``.ops`` with ``.name``/``.effects``/``.access``)
exactly like the sibling analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..gpusim.config import V100, GPUSpec
from ..gpusim.microsim import MicroSim
from .registry import make_finding
from .report import Finding

__all__ = [
    "COALESCED_SPR_MAX",
    "SECTOR_CLASSES",
    "Affine",
    "AccessPattern",
    "KernelAccess",
    "access_findings",
    "broadcast",
    "conv_access",
    "conv_shapes",
    "cross_validate_access",
    "gather",
    "lane_stream",
    "op_sector_class",
    "scatter",
    "sector_class",
]

#: ranked least to most scattered; an op's class is its worst pattern
SECTOR_CLASSES = ("broadcast", "coalesced", "strided", "gather")

#: measured sectors/request at or under this is "coalesced" traffic; a
#: float32 warp request needs >= 4 sectors (128 B), and broadcast index
#: loads pull the average well under it — uncoalesced patterns sit far
#: above (up to 32 sectors, one per lane)
COALESCED_SPR_MAX = 4.5

#: sectors of one dense float32 warp request (32 lanes x 4 B / 32 B)
_DENSE_WARP_SECTORS = 4

_ROLES = ("read", "write", "atomic")
_ROWS = ("unit", "lane_unit", "indirect", "flat")
_TRIPS = ("degree", "feat_rounds", "edge_tiles", "dims", "chunk")


@dataclass(frozen=True)
class Affine:
    """Element-offset expression ``const + lane*<lane> + iter*<iter>``.

    Coefficients are in *elements* of the accessed buffer; ``iter`` is
    the innermost declared loop symbol (a feature round or a dimension
    counter).  ``Affine()`` — all zero — is a warp-uniform (broadcast)
    address.
    """

    const: int = 0
    lane: int = 0
    iter: int = 0


@dataclass(frozen=True)
class AccessPattern:
    """How one kernel touches one named buffer, per scheduled unit.

    ``row`` selects the 2-D row expression:

    * ``"unit"`` — the unit's own row (warp-per-vertex ownership),
    * ``"lane_unit"`` — each *lane* owns its own row (thread-per-vertex:
      the per-lane address stride becomes the row pitch),
    * ``"indirect"`` — a row read through ``via`` (e.g. ``indices``);
      warp-uniform unless ``row_per_lane`` is set,
    * ``"flat"`` — the buffer is 1-D / streamed (index arrays, edge
      values, transient workspaces).

    ``col`` is the within-row element offset over ``(lane, iter)``;
    ``trips`` names the loop structure multiplying the access (degree
    loops, feature rounds, edge tiles) and ``trips_per`` whether those
    trip counts vary per scheduled unit or per *lane* (the divergence
    axis).  ``span`` optionally bounds the elements a flat access can
    reach (for the bounds check on 1-D buffers).
    """

    buffer: str
    role: str = "read"
    row: str = "unit"
    via: str | None = None  # index buffer backing an indirect row
    row_per_lane: bool = False  # each lane indirects its own row
    col: Affine = field(default_factory=Affine)
    lanes: int = 32  # consecutive lanes participating per request
    trips: tuple[str, ...] = ()
    trips_per: str = "unit"  # "unit" | "lane"
    span: int | None = None  # flat rows: max element index + 1
    elem_bytes: int = 4

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        if self.row not in _ROWS:
            raise ValueError(f"row must be one of {_ROWS}, got {self.row!r}")
        if self.trips_per not in ("unit", "lane"):
            raise ValueError("trips_per must be 'unit' or 'lane'")
        for t in self.trips:
            if t not in _TRIPS:
                raise ValueError(f"unknown trip kind {t!r} (expected {_TRIPS})")
        if self.row == "indirect" and self.via is None:
            raise ValueError("row='indirect' requires a via= index buffer")
        if self.lanes < 1 or self.lanes > 32:
            raise ValueError("lanes must be in 1..32")


@dataclass(frozen=True)
class KernelAccess:
    """The full declared access table of one kernel op.

    ``shapes`` maps buffer names to ``(rows, cols)`` element shapes (1-D
    buffers are ``(n, 1)``); ``unit_rows`` bounds the ``row="unit"`` /
    ``"lane_unit"`` expressions; ``value_ranges`` bounds the *values* an
    index buffer may hold (the CSR contract ``indices[e] < n``).  Buffers
    absent from ``shapes`` (transients of modeled pipelines) skip the
    bounds check — their extents are not statically declared.
    """

    patterns: tuple[AccessPattern, ...] = ()
    shapes: dict[str, tuple[int, int]] = field(default_factory=dict)
    unit_rows: int = 0
    value_ranges: dict[str, int] = field(default_factory=dict)

    def for_buffer(self, buffer: str, role: str) -> tuple[AccessPattern, ...]:
        return tuple(
            p for p in self.patterns if p.buffer == buffer and p.role == role
        )

    def summary(self) -> str:
        """One line of per-buffer sector classes (diagnostics / describe)."""
        parts = [
            f"{p.buffer}:{sector_class(p, self.shapes)}" for p in self.patterns
        ]
        return " ".join(parts) if parts else "no declared access"


# ----------------------------------------------------------------------
# pattern constructors (the grammar kernels actually write)
# ----------------------------------------------------------------------
def broadcast(
    buffer: str,
    *,
    role: str = "read",
    row: str = "flat",
    via: str | None = None,
    trips: tuple[str, ...] = (),
    span: int | None = None,
) -> AccessPattern:
    """Warp-uniform scalar access (index loads, CSR bounds, edge scalars)."""
    return AccessPattern(
        buffer, role=role, row=row, via=via, trips=tuple(trips), span=span
    )


def lane_stream(
    buffer: str,
    *,
    role: str = "read",
    row: str = "unit",
    via: str | None = None,
    lanes: int = 32,
    trips: tuple[str, ...] = (),
    span: int | None = None,
) -> AccessPattern:
    """Consecutive lanes touch consecutive elements — the coalesced ideal.

    When the loop sweeps feature rounds, the per-round column advance is
    the lane count (``col = lane + lanes*iter``, Figure 5's layout).
    """
    trips = tuple(trips)
    return AccessPattern(
        buffer,
        role=role,
        row=row,
        via=via,
        col=Affine(lane=1, iter=lanes if "feat_rounds" in trips else 0),
        lanes=lanes,
        trips=trips,
        span=span,
    )


def gather(
    buffer: str,
    *,
    role: str = "read",
    row: str = "indirect",
    via: str | None = "indices",
    trips: tuple[str, ...] = (),
    per: str = "unit",
) -> AccessPattern:
    """Each lane indirects its own row — the gather-random anti-pattern."""
    return AccessPattern(
        buffer,
        role=role,
        row=row,
        via=via if row == "indirect" else None,
        row_per_lane=True,
        trips=tuple(trips),
        trips_per=per,
    )


def scatter(
    buffer: str,
    *,
    role: str = "atomic",
    via: str = "indices",
    lanes: int = 32,
    trips: tuple[str, ...] = (),
) -> AccessPattern:
    """Lane-coalesced row write through an indirection: the request is
    contiguous, but the *row* target scatters across units (push/COO)."""
    trips = tuple(trips)
    return AccessPattern(
        buffer,
        role=role,
        row="indirect",
        via=via,
        col=Affine(lane=1, iter=lanes if "feat_rounds" in trips else 0),
        lanes=lanes,
        trips=trips,
    )


def conv_shapes(workload: Any) -> dict[str, tuple[int, int]]:
    """Element shapes of the standard convolution buffers for ``workload``."""
    g = workload.graph
    n, e, f = g.num_vertices, g.num_edges, workload.feat_dim
    shapes = {
        "feat": (n, f),
        "out": (n, f),
        "indptr": (n + 1, 1),
        "indices": (e, 1),
    }
    if workload.attention is not None:
        shapes["att"] = (n, 2)
    elif workload.edge_weights is not None:
        shapes["edge_vals"] = (e, 1)
    return shapes


def conv_access(
    workload: Any,
    *patterns: AccessPattern,
    extra_shapes: dict[str, tuple[int, int]] | None = None,
) -> KernelAccess:
    """Assemble a conv kernel's access table with the standard shapes and
    the CSR value contract (``indices`` holds vertex ids below ``n``)."""
    shapes = conv_shapes(workload)
    if extra_shapes:
        shapes.update(extra_shapes)
    return KernelAccess(
        patterns=tuple(patterns),
        shapes=shapes,
        unit_rows=workload.graph.num_vertices,
        value_ranges={"indices": workload.graph.num_vertices},
    )


# ----------------------------------------------------------------------
# symbolic classification
# ----------------------------------------------------------------------
def sector_class(
    pattern: AccessPattern, shapes: dict[str, tuple[int, int]] | None = None
) -> str:
    """The predicted sectors-per-request class of one pattern."""
    if pattern.row_per_lane:
        return "gather"
    if pattern.row == "lane_unit":
        # each lane owns a row: the effective per-lane stride is the pitch
        cols = (shapes or {}).get(pattern.buffer, (0, 32))[1]
        stride = max(cols, abs(pattern.col.lane))
        return "coalesced" if stride <= 1 else "strided"
    stride = abs(pattern.col.lane)
    if stride == 0:
        return "broadcast"
    if stride == 1:
        return "coalesced"
    return "strided"


def op_sector_class(access: KernelAccess) -> str:
    """Worst pattern class of one op (the Figure 7 axis)."""
    worst = 0
    for p in access.patterns:
        worst = max(worst, SECTOR_CLASSES.index(sector_class(p, access.shapes)))
    return SECTOR_CLASSES[worst]


def _divergent(pattern: AccessPattern) -> bool:
    """Degree-dependent trip count evaluated per lane — warp divergence."""
    return pattern.trips_per == "lane" and "degree" in pattern.trips


# ----------------------------------------------------------------------
# the analyzer: ACC / DIV / OOB findings for one plan
# ----------------------------------------------------------------------
def _col_bound(pattern: AccessPattern, cols: int) -> int:
    """Largest column index the pattern can touch within a ``cols``-wide row.

    A standard round sweep (``col = lane + lanes*iter`` over feature
    rounds) masks its tail lanes, so it covers exactly ``[const, const +
    cols)``; any other shape is bounded by the loop extents.
    """
    c = pattern.col
    if "feat_rounds" in pattern.trips and c.lane == 1 and c.iter == pattern.lanes:
        return c.const + cols - 1
    if "feat_rounds" in pattern.trips:
        rounds = -(-cols // pattern.lanes)
    elif "dims" in pattern.trips:
        rounds = cols  # per-dimension scalar loop: iter sweeps the row
    else:
        rounds = 1
    return c.const + abs(c.lane) * (pattern.lanes - 1) + abs(c.iter) * (rounds - 1)


def _bounds_findings(access: KernelAccess, op_name: str) -> list[Finding]:
    findings: list[Finding] = []
    for p in access.patterns:
        shape = access.shapes.get(p.buffer)
        if shape is None:
            continue  # undeclared extent (transient): nothing to verify
        rows, cols = shape
        if p.row == "flat":
            total = rows * cols
            if p.span is not None and p.span > total:
                findings.append(
                    make_finding(
                        "OOB001",
                        f"flat access spans {p.span} elements of "
                        f"'{p.buffer}' but the buffer holds {total}",
                        op=op_name,
                        buffer=p.buffer,
                    )
                )
            continue
        if p.row in ("unit", "lane_unit"):
            row_bound = access.unit_rows - 1
        else:  # indirect
            limit = access.value_ranges.get(p.via or "")
            row_bound = None if limit is None else limit - 1
        if row_bound is not None and row_bound >= rows:
            findings.append(
                make_finding(
                    "OOB001",
                    f"row index can reach {row_bound} but '{p.buffer}' "
                    f"has {rows} rows",
                    op=op_name,
                    buffer=p.buffer,
                )
            )
        col_bound = _col_bound(p, cols)
        if p.col.const < 0 or col_bound >= cols:
            findings.append(
                make_finding(
                    "OOB001",
                    f"column expression reaches element {col_bound} but "
                    f"'{p.buffer}' rows hold {cols}",
                    op=op_name,
                    buffer=p.buffer,
                )
            )
    return findings


def _pattern_findings(access: KernelAccess, op_name: str) -> list[Finding]:
    findings: list[Finding] = []
    div_lane: list[str] = []  # buffers with per-lane degree trips
    div_tail: list[str] = []  # buffers with recurring tail masking
    for p in access.patterns:
        cls = sector_class(p, access.shapes)
        if p.role == "read":
            if cls == "gather":
                findings.append(
                    make_finding(
                        "ACC002",
                        f"gather-random read of '{p.buffer}': each lane "
                        "indirects its own row — up to one sector per lane "
                        "per request",
                        op=op_name,
                        buffer=p.buffer,
                    )
                )
            elif cls == "strided":
                findings.append(
                    make_finding(
                        "ACC003",
                        f"strided read of '{p.buffer}': the per-lane stride "
                        "splits each warp request across spaced sectors",
                        op=op_name,
                        buffer=p.buffer,
                    )
                )
        else:  # write / atomic
            if p.row == "indirect" or (p.row == "flat" and p.row_per_lane):
                findings.append(
                    make_finding(
                        "ACC004",
                        f"scattered {p.role} to '{p.buffer}' through "
                        f"'{p.via or 'per-lane indices'}': destination rows "
                        "collide across scheduled units",
                        op=op_name,
                        buffer=p.buffer,
                    )
                )
            elif cls == "strided":
                findings.append(
                    make_finding(
                        "ACC003",
                        f"strided {p.role} to '{p.buffer}': the per-lane "
                        "stride splits each warp request across spaced "
                        "sectors",
                        op=op_name,
                        buffer=p.buffer,
                    )
                )
        if _divergent(p):
            div_lane.append(p.buffer)
        cols = access.shapes.get(p.buffer, (0, 0))[1]
        if "edge_tiles" in p.trips or (
            "feat_rounds" in p.trips and cols and cols % p.lanes
        ):
            div_tail.append(p.buffer)
    if div_lane:
        findings.append(
            make_finding(
                "DIV001",
                "degree-dependent trip count per lane over "
                f"{','.join(sorted(set(div_lane)))} — lanes of one warp "
                "idle behind the longest neighbor list",
                op=op_name,
                buffer=sorted(set(div_lane))[0],
            )
        )
    if div_tail:
        findings.append(
            make_finding(
                "DIV002",
                "tail rounds mask lanes over "
                f"{','.join(sorted(set(div_tail)))} — partial warps every "
                "final round",
                op=op_name,
                buffer=sorted(set(div_tail))[0],
            )
        )
    return findings


def access_findings(plan: Any) -> list[Finding]:
    """ACC/DIV/OOB findings of one lowered plan (duck-typed like hazards)."""
    findings: list[Finding] = []
    for op in plan.ops:
        eff = getattr(op, "effects", None)
        if eff is None:
            continue  # HAZ001 already covers the fully-undeclared op
        access = getattr(op, "access", None)
        if access is None:
            findings.append(
                make_finding(
                    "ACC001",
                    "op declares effects but no access table — coalescing, "
                    "divergence and bounds analysis are impossible",
                    op=op.name,
                )
            )
            continue
        declared = {(p.buffer, p.role) for p in access.patterns}
        for b in eff.buffers:
            if (b.buffer, b.mode) not in declared:
                findings.append(
                    make_finding(
                        "ACC001",
                        f"effect-declared {b.mode} of '{b.buffer}' has no "
                        "access pattern",
                        op=op.name,
                        buffer=b.buffer,
                    )
                )
        findings += _pattern_findings(access, op.name)
        findings += _bounds_findings(access, op.name)
    return findings


# ----------------------------------------------------------------------
# cross-validation against the counter model and the micro-simulator
# ----------------------------------------------------------------------
def _static_bucket(cls: str) -> str:
    return "coalesced" if cls in ("broadcast", "coalesced") else "uncoalesced"


def _check_bucket(
    kernel_name: str,
    bucket: str,
    spr: float,
    divergent_lanes: int,
    source: str,
    *,
    dense_spr: float = _DENSE_WARP_SECTORS,
) -> list[str]:
    """``dense_spr`` is the sectors/request the measured requests would
    need if their live lanes read consecutive elements.  Lane-spread can
    only show as sectors beyond that floor, so the uncoalesced bound
    scales with it; the counter model records no live-lane counts and is
    held to the full-warp floor."""
    if bucket == "coalesced":
        if spr > COALESCED_SPR_MAX:
            return [
                f"{kernel_name}: statically coalesced but {source} measures "
                f"{spr:.2f} sectors/request (> {COALESCED_SPR_MAX})"
            ]
        return []
    spread_min = COALESCED_SPR_MAX * dense_spr / _DENSE_WARP_SECTORS
    if spr <= spread_min and divergent_lanes == 0:
        return [
            f"{kernel_name}: statically uncoalesced but {source} measures "
            f"{spr:.2f} sectors/request with no masked lanes"
        ]
    return []


def _lane_degrees_vary(workload: Any, lanes: int) -> bool:
    """Whether a per-lane degree loop can diverge on this graph: some
    warp's lanes (consecutive destination vertices) see unequal
    in-degrees."""
    d = workload.graph.in_degrees
    warps = (d[i : i + lanes] for i in range(0, d.size, lanes))
    return any(w.min() != w.max() for w in warps)


def cross_validate_access(kernel: Any, workload: Any, spec: GPUSpec = V100) -> list[str]:
    """Pin a kernel's static sector class to its two measured models.

    Returns human-readable disagreements (empty = the declaration, the
    vectorized counter model, and the micro-simulator tell one story).
    A statically *coalesced* kernel must measure at or under
    :data:`COALESCED_SPR_MAX` sectors/request in both models; a
    statically *uncoalesced* one must show excess sectors or masked
    lanes (a gather over few live lanes produces few sectors but much
    divergence — the two observable faces of lane-spread).  The
    micro-sim's excess is measured against the dense floor of the lanes
    each request had live, since a request over four live lanes cannot
    touch more than four sectors.  A declared per-lane degree loop
    (DIV001) must also surface as measured divergence whenever some
    warp's lanes have unequal in-degrees; a uniform-degree graph cannot
    show it.  Intended for micro-sim-sized graphs.
    """
    decl = getattr(kernel, "access_patterns", None)
    access = decl(workload) if callable(decl) else None
    if access is None:
        return [f"{kernel.name}: kernel declares no access table"]
    problems: list[str] = []
    bucket = _static_bucket(op_sector_class(access))
    predicts_divergence = any(_divergent(p) for p in access.patterns)

    stats, _sched = kernel.analyze(workload, spec)
    requests = int(stats.load_requests + stats.store_requests + stats.atomic_requests)
    sectors = int(
        stats.l1_load_sectors + stats.l1_store_sectors + stats.l1_atomic_sectors
    )
    if requests:
        problems += _check_bucket(
            kernel.name,
            bucket,
            sectors / requests,
            int(stats.divergent_lanes),
            "the counter model",
        )
    measured_divergence = int(stats.divergent_lanes) > 0

    sim = MicroSim(spec=spec)
    kernel.trace(workload, sim)
    if sim.total_requests:
        problems += _check_bucket(
            kernel.name,
            bucket,
            sim.sectors_per_request,
            sim.divergent_lanes,
            "the micro-sim",
            dense_spr=sim.dense_sectors / sim.total_requests,
        )
        measured_divergence = measured_divergence or sim.divergent_lanes > 0
    if (
        predicts_divergence
        and not measured_divergence
        and _lane_degrees_vary(workload, spec.threads_per_warp)
    ):
        problems.append(
            f"{kernel.name}: declares a per-lane degree loop (DIV001) but "
            "neither model observes masked lanes"
        )
    return problems
