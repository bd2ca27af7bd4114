"""The four workloads: set-up, per-op inputs, the timed op, checks, and the
modeled values each op reports.

Each op drives the program only through its public entry points, so an
optimisation inside any of them shows.  The benchmark makes every input
from the workload seed (cells, features and request lists); the program
sees only those inputs.  Modeled values are read from the program's own
reports (``ProfileReport.runtime_ms``, ``ServeReport``, ``PassRecord``,
``TuningResult``), never from ``preprocess_ms``, ``total_seconds`` or a
GNNAdvisor ``modeled_runtime_s``: those carry host wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import reference

MODELS = ("gcn", "gin", "sage", "gat")
#: the CLI's default ``--seed``, for the tuner's candidate order
CLI_SEED = 7


def op_seed(seed: int, i: int) -> int:
    """A 31-bit seed for op ``i`` (-1: set-up) of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, i + 1]).generate_state(1)[0] >> 1)


def model_sequence(seed: int, block: tuple[str, ...], i: int) -> str:
    """Model of op ``i``: blocks of ``block``, each shuffled by the seed, so
    every block has the same mix whatever the seed."""
    b, j = divmod(i, len(block))
    order = np.random.default_rng([seed, b]).permutation(len(block))
    return block[int(order[j])]


def geomean(values: list[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


@dataclass
class Counts:
    """Program-state counts of one op (the same with and without tracing)."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batches: int = 0
    requests: int = 0
    completed: int = 0
    modeled_makespan_s: float = 0.0
    tuner_measurements: int = 0

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


@dataclass
class OpInputs:
    index: int
    seed: int
    model: str = "gcn"
    X: Any = None
    requests: list = field(default_factory=list)


class Workload:
    """Base: subclasses define set-up, inputs, the op, checks and modeled
    values.  ``modeled_ops`` is the fixed set (ops 0..K-1) the modeled
    metrics are computed over."""

    name = "workload"
    modeled_ops = 6
    #: the model mix of the offline workloads, one block drawn at a time;
    #: a run always ends on a whole block, so every run has the same mix
    block: tuple[str, ...] = ("gcn",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dataset_s = 0.0
        # imported here, after the environment pins BLAS threads
        import repro.cli  # noqa: F401  (the CLI's import cost is set-up cost)
        from repro.bench import harness
        from repro.frameworks import SYSTEMS
        from repro.graph import datasets
        from repro.opt import TunedPlanStore, set_tuned_store
        from repro.plan import PlanCache, get_plan_cache, set_plan_cache

        self.harness = harness
        self.datasets = datasets
        self.SYSTEMS = SYSTEMS
        self.PlanCache = PlanCache
        self.get_plan_cache = get_plan_cache
        self.set_plan_cache = set_plan_cache
        self.TunedPlanStore = TunedPlanStore
        self.set_tuned_store = set_tuned_store

    def load(self, abbr: str, max_edges: int, seed: int) -> Any:
        t0 = time.process_time()
        ds = self.datasets.load_dataset(abbr, max_edges=max_edges, seed=seed)
        self.dataset_s += time.process_time() - t0
        return ds

    def reset_caches(self) -> None:
        self.set_plan_cache(self.PlanCache())
        self.set_tuned_store(self.TunedPlanStore())

    # -- interface -------------------------------------------------------
    def setup(self) -> None:
        """Datasets, deploys and warm-up ops (timed as ``setup_s``)."""

    def prepare(self, i: int) -> OpInputs:
        """Inputs of op ``i`` and state reset, outside the op timing."""
        raise NotImplementedError

    def op(self, inp: OpInputs) -> Any:
        """The timed work: calls into the program's public entry points."""
        raise NotImplementedError

    def check(self, inp: OpInputs, out: Any) -> list[str]:
        raise NotImplementedError

    def counts(self, out: Any) -> Counts:
        return Counts()

    def modeled(self, inp: OpInputs, out: Any) -> dict[str, Any]:
        """Modeled values of one op of the modeled set."""
        raise NotImplementedError

    def summarize(self, per_op: list[dict[str, Any]]) -> dict[str, float]:
        """``modeled_*`` metrics over the modeled set."""
        raise NotImplementedError

    def describe(self, inp: OpInputs) -> str:
        return f"op {inp.index} (seed {inp.seed})"

    # -- shared by the offline workloads --------------------------------
    def _cache_snapshot(self) -> tuple[int, int, int]:
        c = self.get_plan_cache()
        return (c.hits, c.misses, c.evictions) if c is not None else (0, 0, 0)

    @staticmethod
    def _offline_summary(per_op: list[dict[str, Any]]) -> dict[str, float]:
        """``units_ms``: TLPGNN's modeled ms per cell; ``pairs``: (baseline,
        subject) modeled ms; ``wins``: the cell met its limit."""
        units = [u for m in per_op for u in m["units_ms"]]
        pairs = [p for m in per_op for p in m["pairs"]]
        wins = [w for m in per_op for w in m["wins"]]
        return {
            "modeled_speedup": geomean([b / a for b, a in pairs]),
            "modeled_ms.geomean": geomean([a for _b, a in pairs]),
            "modeled_p50_ms": float(np.percentile(units, 50)),
            "modeled_p99_ms": float(np.percentile(units, 99)),
            "modeled_goodput_frac": sum(wins) / len(wins),
        }


# ----------------------------------------------------------------------
class CellCold(Workload):
    """One ``repro compare`` cell built from scratch per op."""

    name = "cell-cold"
    abbr, max_edges = "OA", 300_000
    #: gcn and gin, the models all four systems implement, come three times
    #: per block: GNNAdvisor's pre-processing makes them a costlier cluster,
    #: and a 3:1 mix puts the median op well inside that cluster (a 2:1 mix
    #: left it near the edge, and it moved by 9% from run to run)
    block = ("gcn", "gin", "gcn", "gin", "gcn", "gin", "sage", "gat")
    modeled_ops = 8

    def setup(self) -> None:
        self.config = self.harness.BenchConfig(
            feat_dim=32, max_edges=self.max_edges, seed=self.seed
        )
        ds = self.load(self.abbr, self.max_edges, op_seed(self.seed, -1))
        X = self.harness.make_features(ds.graph.num_vertices, 32, seed=self.seed)
        for model in ("gcn", "gat"):
            self.reset_caches()
            for factory in self.SYSTEMS.values():
                self.harness.run_system(factory(), model, ds, self.config, X=X,
                                        opt="off")

    def prepare(self, i: int) -> OpInputs:
        self.reset_caches()
        self._before = self._cache_snapshot()
        return OpInputs(i, op_seed(self.seed, i),
                        model_sequence(self.seed, self.block, i))

    def op(self, inp: OpInputs) -> Any:
        ds = self.datasets.load_dataset(self.abbr, max_edges=self.max_edges,
                                        seed=inp.seed)
        X = self.harness.make_features(ds.graph.num_vertices, 32, seed=inp.seed)
        results = {
            name: self.harness.run_system(factory(), inp.model, ds, self.config,
                                          X=X, opt="off")
            for name, factory in self.SYSTEMS.items()
        }
        return ds, X, results

    def check(self, inp: OpInputs, out: Any) -> list[str]:
        ds, X, results = out
        problems = [
            f"{name} dashed, the paper has no dash here"
            for name, r in results.items()
            if r is None and not reference.expected_dash(name, inp.model, self.abbr)
        ]
        outputs = {n: r.output for n, r in results.items() if r is not None}
        return problems + reference.check_outputs(inp.model, ds.graph, X, outputs)

    def counts(self, out: Any) -> Counts:
        h, m, e = self._cache_snapshot()
        return Counts(cache_hits=h - self._before[0],
                      cache_misses=m - self._before[1],
                      cache_evictions=e - self._before[2])

    def modeled(self, inp: OpInputs, out: Any) -> dict[str, Any]:
        _ds, _X, results = out
        tlp = results["TLPGNN"].report.runtime_ms
        best = min(r.report.runtime_ms for n, r in results.items()
                   if r is not None and n != "TLPGNN")
        return {"units_ms": [tlp], "pairs": [(best, tlp)], "wins": [tlp <= best]}

    def summarize(self, per_op: list[dict[str, Any]]) -> dict[str, float]:
        return self._offline_summary(per_op)

    def describe(self, inp: OpInputs) -> str:
        return f"compare {inp.model} on {self.abbr} (graph seed {inp.seed})"


# ----------------------------------------------------------------------
class OptTune(Workload):
    """One model cell through ``repro tune --warm`` (TLPGNN) and
    ``repro opt --level search`` (DGL, FeatGraph), from empty stores."""

    name = "opt-tune"
    abbr, max_edges = "OA", 300_000
    budget = 32
    #: GNNAdvisor is left out: its lowering is mostly graph reordering and
    #: its optimizer profit includes host wall time
    opt_systems = ("DGL", "FeatGraph")
    block = MODELS + ("gin",)
    modeled_ops = 5

    def setup(self) -> None:
        self.config = self.harness.BenchConfig(
            feat_dim=32, max_edges=self.max_edges, seed=self.seed
        )
        self.ds = self.load(self.abbr, self.max_edges, op_seed(self.seed, -1))
        self.spec = self.config.spec_for(self.ds)
        self.op(self.prepare(-1))

    def prepare(self, i: int) -> OpInputs:
        self.reset_caches()
        s = op_seed(self.seed, i)
        X = self.harness.make_features(self.ds.graph.num_vertices, 32, seed=s)
        return OpInputs(i, s, model_sequence(self.seed, self.block, max(i, 0)), X)

    def op(self, inp: OpInputs) -> Any:
        import repro.opt as ro

        tlp = self.SYSTEMS["TLPGNN"]()
        tuner = ro.AutoTuner(budget=self.budget, seed=CLI_SEED,
                             store=ro.get_tuned_store())
        tuning = tuner.tune(tlp, inp.model, self.ds, inp.X, self.spec)
        replay = tlp.run(inp.model, self.ds, inp.X, self.spec, opt="search")
        flows = {}
        for name in self.opt_systems:
            plan = self.SYSTEMS[name]().lower(inp.model, self.ds, inp.X, self.spec)
            ro.modeled_runtime_s(plan, self.spec)
            new_plan, records = ro.optimize_plan(
                plan, self.spec, level="search", dataset=self.ds, budget=self.budget
            )
            ro.modeled_runtime_s(new_plan, self.spec)
            flows[name] = (new_plan, records)
        return tuning, replay, flows

    def check(self, inp: OpInputs, out: Any) -> list[str]:
        from repro.plan import execute_plan

        tuning, replay, flows = out
        problems = []
        if tuning.iterations > self.budget:
            problems.append(f"tuner measured {tuning.iterations} > budget")
        outputs = {"TLPGNN": replay.output}
        for name, (plan, _records) in flows.items():
            outputs[name] = execute_plan(plan)
        return problems + reference.check_outputs(
            inp.model, self.ds.graph, inp.X, outputs
        )

    def counts(self, out: Any) -> Counts:
        tuning, _replay, _flows = out
        return Counts(tuner_measurements=tuning.iterations)

    @staticmethod
    def _lowered_optimized(records: list) -> tuple[float, float]:
        current = records[0].before_ms
        for r in records:
            if r.applied:
                current = r.after_ms
        return records[0].before_ms, current

    def modeled(self, inp: OpInputs, out: Any) -> dict[str, Any]:
        tuning, replay, flows = out
        pairs = [self._lowered_optimized(records) for _p, records in flows.values()]
        pairs.append((tuning.default_ms, tuning.tuned_ms))
        return {
            "units_ms": [replay.report.runtime_ms],
            "pairs": pairs,
            "wins": [tuning.tuned_ms <= tuning.fixed_ms],
        }

    def summarize(self, per_op: list[dict[str, Any]]) -> dict[str, float]:
        return self._offline_summary(per_op)

    def describe(self, inp: OpInputs) -> str:
        return f"tune+opt {inp.model} on {self.abbr} (feature seed {inp.seed})"


# ----------------------------------------------------------------------
def poisson_arrivals(rng: np.random.Generator, rate_hz: float, n: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate_hz, size=n))


def bursty_arrivals(rng: np.random.Generator, rate_hz: float, n: int,
                    burst_factor: float = 8.0, burst_len: int = 16) -> np.ndarray:
    """Bursts of ``burst_len`` at ``burst_factor`` x the rate, separated by
    idle gaps sized so the mean offered rate is ``rate_hz``."""
    in_burst = burst_factor * rate_hz
    gaps = rng.exponential(1.0 / in_burst, size=n)
    starts = np.arange(n) % burst_len == 0
    starts[0] = False
    idle_mean = burst_len * (burst_factor - 1.0) / in_burst
    gaps[starts] += rng.exponential(idle_mean, size=int(starts.sum()))
    return np.cumsum(gaps)


class ServeWorkload(Workload):
    """Shared by the two serve workloads: an open loop on the simulated
    clock, timed from each request's arrival."""

    #: latency limit of modeled_goodput_frac (simulated ms)
    limit_ms = 0.25
    streams, max_batch, window_s, queue_depth = 2, 8, 200e-6, 64

    def serve_config(self, rate_hz: float, n: int, job: str) -> Any:
        from repro.serve import ServeConfig

        return ServeConfig(
            arrival=self.arrival, rate_hz=rate_hz, num_requests=n, job=job,
            max_batch=self.max_batch, window_s=self.window_s,
            num_streams=self.streams, queue_depth=self.queue_depth,
            max_concurrent=self.spec.max_concurrent_kernels,
        )

    def serve(self, servable: Any, inp: OpInputs) -> Any:
        from repro.serve import InferenceService

        return InferenceService(servable, self.cfg).run(inp.requests)

    def check_reports(self, inp: OpInputs, reports: dict[str, Any]) -> list[str]:
        return [
            f"{name}: {why}"
            for name, rep in reports.items()
            for why in reference.check_serve(rep, len(inp.requests))
        ]

    def serve_counts(self, reports: dict[str, Any]) -> Counts:
        h, m, e = self._cache_snapshot()
        return Counts(
            cache_hits=h - self._before[0],
            cache_misses=m - self._before[1],
            cache_evictions=e - self._before[2],
            batches=sum(r.num_batches for r in reports.values()),
            requests=sum(r.arrived for r in reports.values()),
            completed=sum(r.completed for r in reports.values()),
            modeled_makespan_s=sum(r.makespan_s for r in reports.values()),
        )

    def serve_modeled(self, tlp: Any, base: Any) -> dict[str, Any]:
        return {
            "latencies_ms": tlp.accountant.latencies_ms().tolist(),
            "base_latencies_ms": base.accountant.latencies_ms().tolist(),
            "arrived": tlp.arrived,
            "mean_ms": tlp.mean_ms,
        }

    #: the latency percentile modeled_speedup compares (DGL over TLPGNN)
    speedup_percentile = 99

    def summarize(self, per_op: list[dict[str, Any]]) -> dict[str, float]:
        lat = np.array([x for m in per_op for x in m["latencies_ms"]])
        base = np.array([x for m in per_op for x in m["base_latencies_ms"]])
        arrived = sum(m["arrived"] for m in per_op)
        q = self.speedup_percentile
        return {
            "modeled_speedup": float(np.percentile(base, q) / np.percentile(lat, q)),
            "modeled_ms.geomean": geomean([m["mean_ms"] for m in per_op]),
            "modeled_p50_ms": float(np.percentile(lat, 50)),
            "modeled_p99_ms": float(np.percentile(lat, 99)),
            "modeled_goodput_frac": int((lat <= self.limit_ms).sum()) / arrived,
        }


class TargetsReplan(ServeWorkload):
    """A 64-request Poisson trace of ``targets`` jobs per op through a
    TLPGNN/gcn servable deployed in set-up."""

    name = "targets-replan"
    abbr, max_edges = "OA", 300_000
    arrival = "poisson"
    num_requests, targets = 64, 64
    modeled_ops = 32
    #: DGL queues at this rate; its p99 over the fixed traces does not
    #: repeat across seeds, its median does
    speedup_percentile = 50

    def setup(self) -> None:
        from repro.serve import ServableModel

        self.ServableModel = ServableModel
        config = self.harness.BenchConfig(feat_dim=32, max_edges=self.max_edges,
                                          seed=self.seed)
        self.ds = self.load(self.abbr, self.max_edges, op_seed(self.seed, -1))
        self.spec = config.spec_for(self.ds)
        self.servable = ServableModel(self.SYSTEMS["TLPGNN"](), "gcn", self.ds,
                                      feat_dim=32, spec=self.spec, seed=self.seed)
        # the CLI's default offered rate: half the offline service rate
        self.rate_hz = 0.5 / self.servable.offline_runtime_s
        self.cfg = self.serve_config(self.rate_hz, self.num_requests, "targets")
        self._base = None
        self.op(self.prepare(-1))

    def prepare(self, i: int) -> OpInputs:
        from repro.serve import Request

        self.set_plan_cache(self.PlanCache())
        self._before = self._cache_snapshot()
        s = op_seed(self.seed, i)
        rng = np.random.default_rng(s)
        n = self.ds.graph.num_vertices
        arrivals = poisson_arrivals(rng, self.rate_hz, self.num_requests)
        requests = [
            Request(rid=r, arrival_s=float(t), job="targets",
                    targets=tuple(np.unique(rng.integers(0, n, self.targets)).tolist()))
            for r, t in enumerate(arrivals)
        ]
        return OpInputs(i, s, "gcn", requests=requests)

    def op(self, inp: OpInputs) -> Any:
        return self.serve(self.servable, inp)

    def check(self, inp: OpInputs, out: Any) -> list[str]:
        return self.check_reports(inp, {"TLPGNN": out})

    def counts(self, out: Any) -> Counts:
        return self.serve_counts({"TLPGNN": out})

    def modeled(self, inp: OpInputs, out: Any) -> dict[str, Any]:
        # the DGL side of modeled_speedup: the identical trace, served
        # outside the op timing
        if self._base is None:
            self._base = self.ServableModel(
                self.SYSTEMS["DGL"](), "gcn", self.ds, feat_dim=32,
                spec=self.spec, seed=self.seed,
            )
        base = self.serve(self._base, inp)
        return self.serve_modeled(out, base)

    def describe(self, inp: OpInputs) -> str:
        return f"targets trace (seed {inp.seed})"


class FullRedeploy(ServeWorkload):
    """Fresh TLPGNN/gcn and DGL/gcn deploys per op, then one identical
    bursty 400-request ``full`` trace through each."""

    name = "full-redeploy"
    abbr, max_edges = "CR", 60_000
    arrival = "bursty"
    num_requests = 400
    #: offered rate as a share of DGL-sim's offline service rate
    load_factor = 0.8
    #: both systems serve every op, so the modeled set costs nothing extra;
    #: 128 traces make DGL's bursty p99 repeat within a few percent
    modeled_ops = 128

    def setup(self) -> None:
        from repro.serve import ServableModel

        self.ServableModel = ServableModel
        config = self.harness.BenchConfig(feat_dim=32, max_edges=self.max_edges,
                                          seed=self.seed)
        self.ds = self.load(self.abbr, self.max_edges, op_seed(self.seed, -1))
        self.spec = config.spec_for(self.ds)
        # warm-up: the deploys' offline profiles land in the plan cache,
        # which every op's fresh deploy then hits
        dgl, _tlp = self.deploy()
        self.rate_hz = self.load_factor / dgl.offline_runtime_s
        self.cfg = self.serve_config(self.rate_hz, self.num_requests, "full")
        self.op(self.prepare(-1))

    def deploy(self) -> tuple[Any, Any]:
        """Fresh (DGL, TLPGNN) servables; each takes its offline profile
        when it plans its first batch."""
        return tuple(
            self.ServableModel(self.SYSTEMS[name](), "gcn", self.ds, feat_dim=32,
                               spec=self.spec, seed=self.seed)
            for name in ("DGL", "TLPGNN")
        )

    def prepare(self, i: int) -> OpInputs:
        from repro.serve import Request

        self._before = self._cache_snapshot()
        s = op_seed(self.seed, i)
        arrivals = bursty_arrivals(np.random.default_rng(s), self.rate_hz,
                                   self.num_requests)
        requests = [Request(rid=r, arrival_s=float(t), job="full")
                    for r, t in enumerate(arrivals)]
        return OpInputs(i, s, "gcn", requests=requests)

    def op(self, inp: OpInputs) -> Any:
        dgl, tlp = self.deploy()
        return {"TLPGNN": self.serve(tlp, inp), "DGL": self.serve(dgl, inp)}

    def check(self, inp: OpInputs, out: Any) -> list[str]:
        return self.check_reports(inp, out)

    def counts(self, out: Any) -> Counts:
        return self.serve_counts(out)

    def modeled(self, inp: OpInputs, out: Any) -> dict[str, Any]:
        return self.serve_modeled(out["TLPGNN"], out["DGL"])

    def describe(self, inp: OpInputs) -> str:
        return f"redeploy + bursty full trace (seed {inp.seed})"


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CellCold, OptTune, TargetsReplan, FullRedeploy)
}
