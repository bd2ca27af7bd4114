"""Declarative kernel effect tables: what a kernel reads, writes, and merges.

Every :class:`~repro.plan.KernelOp` carries a :class:`KernelEffects`
describing the op against *named device buffers* — the standard convolution
inputs (``indptr``, ``indices``, ``feat``, ``edge_vals``, ``att``,
``group_table``), the pipeline output (``out``), and pipeline-transient
intermediates (``tmp:*`` — buffers that exist only between two launches of
the same plan).  Each buffer access is a read, an exclusive write (every
scheduled unit owns disjoint rows — TLPGNN's warp-per-vertex contract), or
an atomic merge (read-modify-write; many units may target the same row).

The table is the *claim*; three things keep it honest:

* the hazard analysis (:mod:`repro.lint.hazards`) rejects plans whose
  claims are inconsistent (non-exclusive writes without a declared atomic
  merge, reads of never-written transients, rng reads under a content
  fingerprint),
* the resource analysis (:mod:`repro.lint.resources`) checks the declared
  launch envelope against :class:`~repro.gpusim.config.GPUSpec` limits,
* :func:`cross_validate_effects` replays the kernel through the exact
  micro-simulator and the vectorized counter model and requires the
  declared ``atomic_ops`` to match both, op for op.

This module must not import :mod:`repro.plan` (the plan IR imports *us* to
type its ``effects`` field); everything here depends only on ``gpusim``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..gpusim.config import V100, GPUSpec
from ..gpusim.microsim import MicroSim

__all__ = [
    "TRANSIENT_PREFIX",
    "BufferEffect",
    "LaunchEnvelope",
    "KernelEffects",
    "effect_table",
    "reassociating_merges",
    "conv_read_buffers",
    "is_transient",
    "cross_validate_effects",
]

#: buffers with this prefix exist only between kernels of one plan; every
#: other name is a plan input or the plan output
TRANSIENT_PREFIX = "tmp:"

_MODES = ("read", "write", "atomic")


def is_transient(buffer: str) -> bool:
    """Whether ``buffer`` is a pipeline-transient intermediate."""
    return buffer.startswith(TRANSIENT_PREFIX)


@dataclass(frozen=True)
class BufferEffect:
    """One access of one named buffer.

    ``exclusive`` applies to writes only: True claims every scheduled unit
    writes disjoint elements (warp-per-vertex ownership); False admits that
    units may collide on rows — legal *only* together with a declared
    atomic merge of the same buffer, otherwise it is an undeclared race.
    """

    buffer: str
    mode: str  # "read" | "write" | "atomic"
    dtype: str = "f32"
    exclusive: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.buffer:
            raise ValueError("buffer name must be non-empty")


@dataclass(frozen=True)
class LaunchEnvelope:
    """Worst-case per-block resource footprint of a kernel's launches.

    An *envelope*, not the exact grid: dynamic assignment may pick smaller
    blocks at run time, but never larger — the resource sanitizer validates
    the envelope against the device's structural limits.
    """

    threads_per_block: int
    regs_per_thread: int = 32
    shared_mem_per_block: int = 0

    def __post_init__(self) -> None:
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be positive")
        if self.regs_per_thread < 1:
            raise ValueError("regs_per_thread must be positive")
        if self.shared_mem_per_block < 0:
            raise ValueError("shared_mem_per_block must be non-negative")


@dataclass(frozen=True)
class KernelEffects:
    """The full declared effect table of one kernel op."""

    buffers: tuple[BufferEffect, ...] = ()
    launch: LaunchEnvelope | None = None
    #: total element-level atomic RMW operations the launch performs
    #: (must equal ``KernelStats.atomic_ops`` / the micro-sim count)
    atomic_ops: int = 0
    #: the op consumes host randomness — unsafe under a content fingerprint
    reads_rng: bool = False

    def __post_init__(self) -> None:
        if self.atomic_ops < 0:
            raise ValueError("atomic_ops must be non-negative")
        if self.atomic_ops > 0 and not self.atomics:
            raise ValueError(
                "atomic_ops declared without any atomic buffer effect"
            )

    # -- named-buffer views -------------------------------------------------
    @property
    def reads(self) -> tuple[str, ...]:
        return tuple(b.buffer for b in self.buffers if b.mode == "read")

    @property
    def writes(self) -> tuple[str, ...]:
        return tuple(b.buffer for b in self.buffers if b.mode == "write")

    @property
    def atomics(self) -> tuple[str, ...]:
        return tuple(b.buffer for b in self.buffers if b.mode == "atomic")

    def summary(self) -> str:
        """One-line rendering for ``ExecutionPlan.describe()``."""
        parts = []
        if self.reads:
            parts.append("reads " + ",".join(self.reads))
        if self.writes:
            parts.append("writes " + ",".join(self.writes))
        if self.atomics:
            parts.append(
                "atomic " + ",".join(self.atomics)
                + f" ({self.atomic_ops} ops)"
            )
        if self.reads_rng:
            parts.append("reads rng")
        return " -> ".join(parts) if parts else "no declared effects"


def effect_table(
    *,
    reads: tuple[str, ...] = (),
    writes: tuple[str, ...] = (),
    atomics: tuple[str, ...] = (),
    launch: LaunchEnvelope | None = None,
    atomic_ops: int = 0,
    reads_rng: bool = False,
) -> KernelEffects:
    """Build a well-formed effect table (writes are exclusive by design;
    racy non-exclusive writes must be constructed by hand — they are what
    the hazard detector exists to reject)."""
    buffers = [BufferEffect(b, "read") for b in reads]
    buffers += [BufferEffect(b, "write") for b in writes]
    buffers += [BufferEffect(b, "atomic", exclusive=False) for b in atomics]
    return KernelEffects(
        buffers=tuple(buffers),
        launch=launch,
        atomic_ops=atomic_ops,
        reads_rng=reads_rng,
    )


#: reductions whose atomic merge is idempotent: merge order cannot change
#: the result
_IDEMPOTENT_REDUCES = ("max",)


def reassociating_merges(
    effects: KernelEffects, reduce: str | None
) -> tuple[str, ...]:
    """The float buffers ``effects`` merges atomically, whose bits follow
    the hardware's arrival order; none under an idempotent ``reduce``.

    The one merge-discipline predicate: DET001 warns on exactly these
    buffers, and a plan's normal form is in the float-sum reassociation
    class exactly when one of its ops has one.
    """
    if reduce in _IDEMPOTENT_REDUCES:
        return ()
    return tuple(
        b.buffer for b in effects.buffers
        if b.mode == "atomic" and b.dtype.startswith("f")
    )


def conv_read_buffers(workload: Any, *, indptr: bool = True) -> tuple[str, ...]:
    """Standard input buffers a convolution kernel reads for ``workload``."""
    reads = ["indptr", "indices", "feat"] if indptr else ["indices", "feat"]
    if workload.attention is not None:
        reads.append("att")
    elif workload.edge_weights is not None:
        reads.append("edge_vals")
    return tuple(reads)


# ----------------------------------------------------------------------
# cross-validation against the counter model and the micro-simulator
# ----------------------------------------------------------------------
def cross_validate_effects(kernel: Any, workload: Any, spec: GPUSpec = V100) -> list[str]:
    """Check a ConvKernel's declared effects against its two models.

    Returns a list of human-readable mismatches (empty = the declaration is
    honest).  The declared ``atomic_ops`` must equal the vectorized counter
    model's ``KernelStats.atomic_ops`` exactly, and — where the kernel has a
    micro-sim ``trace`` — the op count the exact simulator observes.
    Intended for micro-sim-sized graphs (the trace replays warp by warp).
    """
    decl = getattr(kernel, "effects", None)
    eff = decl(workload) if callable(decl) else None
    if eff is None:
        return [f"{kernel.name}: kernel declares no effect table"]
    problems = []
    stats, _sched = kernel.analyze(workload, spec)
    if int(stats.atomic_ops) != int(eff.atomic_ops):
        problems.append(
            f"{kernel.name}: declared atomic_ops {eff.atomic_ops} != "
            f"counter-model atomic_ops {stats.atomic_ops}"
        )
    if (int(stats.atomic_ops) > 0) != bool(eff.atomics):
        problems.append(
            f"{kernel.name}: atomic buffer declaration ({eff.atomics!r}) "
            f"disagrees with counter-model atomic_ops {stats.atomic_ops}"
        )
    sim = MicroSim(spec=spec)
    kernel.trace(workload, sim)
    if int(sim.atomic_ops) != int(eff.atomic_ops):
        problems.append(
            f"{kernel.name}: declared atomic_ops {eff.atomic_ops} != "
            f"micro-sim atomic_ops {sim.atomic_ops}"
        )
    return problems
