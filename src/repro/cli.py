"""Command-line interface: ``python -m repro <command>``.

Commands
--------
datasets            print the Table-4 registry (spec + loaded stand-in)
run                 profile one (system, model, dataset) cell
compare             run all four systems on one cell and rank them
experiment          regenerate a paper table/figure by id (table1..fig12)
validate            check the paper's shape claims (exit 1 on failure)
report              regenerate every table & figure into one document
roofline            roofline-classify every kernel of a system's pipeline
trace               profile one cell and export a Chrome-trace timeline
                    (one track per simulated SM; Perfetto loadable)
diff                compare two archived profile runs metric-by-metric
                    under regress's policy table (exact counters,
                    float-noise bands, directional times and rates);
                    exit 1 when a metric regressed
serve               simulated online inference serving (open-loop trace,
                    dynamic batching, admission control, CUDA-like
                    streams); --compare runs the cross-system scenario;
                    --trace exports per-request span trees as a Chrome
                    trace, --tree prints the slowest requests' trees,
                    --slo-ms enables SLO burn-rate monitoring
top                 serve one workload with SLO monitoring and render the
                    terminal health dashboard (error budgets, multi-window
                    burn rates, shed/latency attribution, alert log)
metrics             Prometheus-style text exposition of serving metrics:
                    either re-expose a --metrics-out JSONL file
                    (--from-jsonl) or run a small serving workload and
                    expose its registry (histograms carry request-id
                    exemplars)
regress             perf-regression observatory: re-run the recorded
                    probes at HEAD and compare against the BENCH_*.json
                    trajectory (the same comparison as diff; exit 1 on
                    regression); --record appends a new trajectory point
plan                lower one (dataset, model) cell and print each
                    system's ExecutionPlan (kernel list, balance choice,
                    fusion structure, content fingerprint)
opt                 run the repro.opt pass pipeline on one cell and show
                    each pass's rewrite decision (legality re-linted,
                    profit scored with the shared cost model)
tune                auto-tune the compute-kernel knob space of one or
                    more cells (deterministic seeded search, budgeted);
                    persists winners in the tuned-plan store that
                    ``run --opt search`` / ``serve --opt search`` replay
lint                statically analyze lowered plans for hazards, resource
                    limits, nondeterminism sources, and memory-access
                    patterns (coalescing / divergence / bounds — no
                    execution); --json emits a stable finding array,
                    --format sarif a SARIF 2.1.0 log, --baseline
                    suppresses known findings, --explain CODE
                    documents one rule; --strict exits 1 on error-severity
                    findings (with --baseline: on any unsuppressed finding)
verify              translation validation: certify that the optimizer's
                    rewrites preserve each cell's dataflow normal form
                    (default grid: the 24 golden cells); prints per-cell
                    verdicts + certificate ids, explains any failure as
                    the minimal diverging term; --json / --format sarif
                    for machine consumption; exit 1 on any failed cell
udf                 describe a registered message-passing UDF: the spec
                    signature, what each framework derives from its terms
                    (support decision + kernel pipeline), and the fused
                    kernel's derived effect/access tables; with no model
                    argument, list every registered model
"""

from __future__ import annotations

import argparse
import sys

from .bench import ALL_EXPERIMENTS, BenchConfig, get_dataset, make_features, run_system
from .frameworks import SYSTEMS
from .gpusim import roofline
from .obs import ProfileArchive, Tracer, compare_metrics, load_run, set_tracer

__all__ = ["main", "build_parser"]


def _model_choices() -> list[str]:
    """CLI model names come from the UDF registry, not a frozen list —
    models registered before ``main()`` are immediately runnable."""
    from .mp import registered_models

    return sorted(registered_models())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="TLPGNN reproduction: profile GNN graph convolution on a "
        "modeled GPU.",
    )
    p.add_argument(
        "--max-edges",
        type=int,
        default=2_000_000,
        help="cap for synthetic dataset stand-ins (default 2M)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--feat", type=int, default=32, help="feature dimension")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the dataset registry")

    run = sub.add_parser("run", help="profile one system/model/dataset cell")
    run.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    run.add_argument("--model", choices=_model_choices(), default="gcn")
    run.add_argument("--dataset", default="CR")
    run.add_argument("--archive", default=None, metavar="DIR",
                     help="also record the profile into this archive directory")
    run.add_argument("--opt", choices=["off", "safe", "search"], default=None,
                     help="plan-IR optimizer level (see the opt command)")

    cmp_ = sub.add_parser("compare", help="run all systems on one cell")
    cmp_.add_argument("--model", choices=_model_choices(), default="gcn")
    cmp_.add_argument("--dataset", default="CR")

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument("id", choices=sorted(ALL_EXPERIMENTS))

    val = sub.add_parser("validate", help="check the paper's shape claims")
    val.add_argument("--only", nargs="*", help="claim ids to run (default all)")

    rep = sub.add_parser("report", help="regenerate every table & figure")
    rep.add_argument("--out", default=None,
                     help="write the full report to this file (default stdout)")

    roof = sub.add_parser("roofline", help="roofline-classify a pipeline")
    roof.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    roof.add_argument("--model", choices=_model_choices(), default="gcn")
    roof.add_argument("--dataset", default="CR")

    tr = sub.add_parser(
        "trace", help="profile one cell and export a Chrome-trace timeline"
    )
    tr.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    tr.add_argument("--model", choices=_model_choices(), default="gcn")
    tr.add_argument("--dataset", default="CR")
    tr.add_argument("--out", default="trace.json",
                    help="timeline output path (default trace.json)")
    tr.add_argument("--archive", default=None, metavar="DIR",
                    help="also record the profile into this archive directory")
    tr.add_argument("--max-block-events", type=int, default=20_000,
                    help="per-kernel cap on replayed block events")

    diff = sub.add_parser(
        "diff", help="compare two archived profile runs (exit 1 on regression)"
    )
    diff.add_argument("baseline", help="archived run JSON (the reference)")
    diff.add_argument("candidate", help="archived run JSON to check")

    sv = sub.add_parser(
        "serve", help="simulated online inference serving on the modeled GPU"
    )
    sv.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    sv.add_argument("--model", choices=_model_choices(), default="gcn")
    sv.add_argument("--dataset", default="CR")
    sv.add_argument("--arrival", choices=["poisson", "bursty"], default="poisson")
    sv.add_argument("--rate", type=float, default=None,
                    help="offered req/s (default: half the system's offline "
                    "service rate, i.e. 0.5/runtime)")
    sv.add_argument("--requests", type=int, default=200,
                    help="trace length (default 200)")
    sv.add_argument("--job", choices=["full", "targets"], default="full",
                    help="per-request inference job kind")
    sv.add_argument("--targets", type=int, default=16,
                    help="vertices per request for --job targets")
    sv.add_argument("--max-batch", type=int, default=8)
    sv.add_argument("--window-us", type=float, default=200.0,
                    help="batching deadline window in microseconds")
    sv.add_argument("--streams", type=int, default=2,
                    help="concurrent CUDA-like streams")
    sv.add_argument("--queue-depth", type=int, default=64,
                    help="admission bound on in-system requests")
    sv.add_argument("--slo-ms", type=float, default=None,
                    help="latency SLO in ms: enables burn-rate monitoring "
                    "on a single run; for --compare, the p99 bar "
                    "(default 2.5x DGL offline)")
    sv.add_argument("--slo-objective", type=float, default=0.99,
                    help="SLO good fraction (default 0.99 = 1%% budget)")
    sv.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="append the run's obs metrics as JSONL")
    sv.add_argument("--trace", default=None, metavar="PATH", dest="trace_out",
                    help="collect per-request span trees and write them as "
                    "a Chrome trace (one track per request + per stream)")
    sv.add_argument("--tree", type=int, default=0, metavar="N",
                    help="print the span trees of the N slowest requests")
    sv.add_argument("--compare", action="store_true",
                    help="run the TLPGNN vs DGL-sim vs GNNAdvisor serving "
                    "scenario under identical traces")
    sv.add_argument("--smoke", action="store_true",
                    help="small fast run + conservation self-check (CI)")
    sv.add_argument("--opt", choices=["off", "safe", "search"], default=None,
                    help="plan-IR optimizer level for the served pipeline "
                    "(search consults the tuned-plan store first)")
    sv.add_argument("--lint", action="store_true",
                    help="preflight: statically lint the served plan and "
                    "its cross-stream schedule; refuse to serve on "
                    "error-severity findings")
    sv.add_argument("--certified", action="store_true",
                    help="preflight: refuse to serve unless the tuned-plan "
                    "store holds a valid equivalence certificate for this "
                    "cell (EQ004 on tampered/stale/missing certificates)")
    sv.add_argument("--store", default=None, metavar="FILE",
                    help="load the tuned-plan store from this JSON path "
                    "for the serve (what --opt search replays and "
                    "--certified re-verifies)")

    top = sub.add_parser(
        "top", help="serve with SLO monitoring and render the health "
        "dashboard"
    )
    top.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    top.add_argument("--model", choices=_model_choices(),
                     default="gcn")
    top.add_argument("--dataset", default="CR")
    top.add_argument("--arrival", choices=["poisson", "bursty"],
                     default="poisson")
    top.add_argument("--rate", type=float, default=None,
                     help="offered req/s (default: --load x offline rate)")
    top.add_argument("--load", type=float, default=0.8,
                     help="offered load as a multiple of the system's "
                     "offline service rate (default 0.8)")
    top.add_argument("--requests", type=int, default=200)
    top.add_argument("--max-batch", type=int, default=8)
    top.add_argument("--streams", type=int, default=2)
    top.add_argument("--queue-depth", type=int, default=64)
    top.add_argument("--slo-ms", type=float, default=None,
                     help="latency SLO in ms (default 2.5x offline runtime)")
    top.add_argument("--slo-objective", type=float, default=0.99)

    me = sub.add_parser(
        "metrics", help="Prometheus-style text exposition of serving metrics"
    )
    me.add_argument("--expose", action="store_true", default=True,
                    help="render the Prometheus text format (the default "
                    "and only mode)")
    me.add_argument("--from-jsonl", default=None, metavar="PATH",
                    help="re-expose a --metrics-out JSONL file instead of "
                    "running a workload (last record per metric wins)")
    me.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    me.add_argument("--model", choices=_model_choices(),
                    default="gcn")
    me.add_argument("--dataset", default="CR")
    me.add_argument("--requests", type=int, default=64)

    rg = sub.add_parser(
        "regress", help="compare HEAD probes against the BENCH_*.json "
        "perf trajectory (exit 1 on regression)"
    )
    rg.add_argument("--probe", choices=["serving", "table5", "autotune", "all"],
                    default="all")
    rg.add_argument("--store-dir", default=".", metavar="DIR",
                    help="directory holding the BENCH_<probe>.json trend "
                    "stores (default: current directory)")
    rg.add_argument("--record", action="store_true",
                    help="append a trajectory point at HEAD instead of "
                    "comparing")

    pl = sub.add_parser(
        "plan", help="lower a cell and print each system's execution plan"
    )
    pl.add_argument("dataset", help="dataset abbreviation (e.g. CR)")
    pl.add_argument("model", choices=_model_choices())
    pl.add_argument("--system", choices=sorted(SYSTEMS), default=None,
                    help="limit to one system (default: all four)")
    pl.add_argument("--lint", action="store_true",
                    help="append the static lint report to each plan")

    li = sub.add_parser(
        "lint",
        help="static hazard/resource/determinism/access analysis of plans",
    )
    li.add_argument("--system", choices=sorted(SYSTEMS), default=None,
                    help="limit to one system (default: all four)")
    li.add_argument("--model", action="append", default=None,
                    choices=_model_choices(),
                    help="model(s) to lint (default: gcn and gat)")
    li.add_argument("--dataset", action="append", default=None,
                    help="dataset abbreviation(s) (default: CR CS PD)")
    li.add_argument("--strict", action="store_true",
                    help="exit 1 on error-severity findings; with "
                    "--baseline, on ANY finding the baseline does not "
                    "already record")
    li.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the findings as a stable JSON array "
                    "(plan/code/severity/op/buffer/message) instead of text")
    li.add_argument("--format", choices=["text", "json", "sarif"],
                    default=None, dest="fmt",
                    help="output format (sarif = SARIF 2.1.0 log for CI "
                    "code-scanning upload); --json is shorthand for "
                    "--format json")
    li.add_argument("--baseline", default=None, metavar="FILE",
                    help="suppress findings recorded in this baseline JSON "
                    "(keyed plan/code/op/buffer); stale suppressions are "
                    "reported")
    li.add_argument("--write-baseline", default=None, metavar="FILE",
                    help="record every finding of this run into FILE as a "
                    "baseline for --baseline")
    li.add_argument("--prune-baseline", action="store_true",
                    help="with --baseline: rewrite the file dropping "
                    "suppressions that match no current finding")
    li.add_argument("--explain", default=None, metavar="CODE",
                    help="print the registry entry for one finding code "
                    "(e.g. ACC002) and exit; unknown codes exit 2 with "
                    "the nearest registered code suggested")
    li.add_argument("--streams", type=int, default=2,
                    help="streams for the per-cell serving race self-check "
                    "(default 2; 0 disables the check)")

    vf = sub.add_parser(
        "verify",
        help="certify that the optimizer's rewrites preserve each cell's "
        "dataflow normal form (translation validation)",
    )
    vf.add_argument("--system", choices=sorted(SYSTEMS), default=None,
                    help="limit to one system (default: all four)")
    vf.add_argument("--model", action="append", default=None,
                    choices=_model_choices(),
                    help="model(s) to certify (default: gcn and gat)")
    vf.add_argument("--dataset", action="append", default=None,
                    help="dataset abbreviation(s) (default: CR CS PD)")
    vf.add_argument("--level", choices=["safe", "search"], default="search",
                    help="optimizer level to certify (default search)")
    vf.add_argument("--budget", type=int, default=16,
                    help="max candidate plans a searching pass may score")
    vf.add_argument("--json", action="store_true", dest="as_json",
                    help="emit per-cell certification rows as a JSON array")
    vf.add_argument("--format", choices=["text", "json", "sarif"],
                    default=None, dest="fmt",
                    help="output format (sarif = SARIF 2.1.0 log of the "
                    "EQ findings)")

    op = sub.add_parser(
        "opt",
        help="run the plan-IR optimizer pass pipeline on one cell and "
        "show each pass's rewrite decision",
    )
    op.add_argument("dataset", help="dataset abbreviation (e.g. CR)")
    op.add_argument("model", choices=_model_choices())
    op.add_argument("--system", choices=sorted(SYSTEMS), default=None,
                    help="limit to one system (default: all four)")
    op.add_argument("--level", choices=["safe", "search"], default="search",
                    help="optimizer level (default search)")
    op.add_argument("--budget", type=int, default=32,
                    help="max candidate plans a searching pass may score")
    op.add_argument("--json", action="store_true", dest="as_json",
                    help="emit per-system pass records as a JSON array")

    tn = sub.add_parser(
        "tune",
        help="auto-tune the compute-kernel knob space of one or more "
        "cells; persists winners in the tuned-plan store",
    )
    tn.add_argument("--dataset", action="append", default=None,
                    help="dataset abbreviation(s) (default: CR); repeatable")
    tn.add_argument("--model", choices=_model_choices(),
                    default="gcn")
    tn.add_argument("--system", choices=sorted(SYSTEMS), default="TLPGNN")
    tn.add_argument("--budget", type=int, default=32,
                    help="max distinct candidate measurements per cell")
    tn.add_argument("--store", default=None, metavar="FILE",
                    help="load/save the tuned-plan store at this JSON path")
    tn.add_argument("--warm", action="store_true",
                    help="after tuning, run each cell with opt=search so "
                    "the PlanCache holds the tuned plan")
    tn.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the tuning results as a JSON array")

    ud = sub.add_parser(
        "udf",
        help="describe a registered message-passing UDF: spec signature, "
        "derived framework lowering, derived effect/access tables",
    )
    ud.add_argument("model", nargs="?", default=None,
                    help="registered model name (default: list all)")
    ud.add_argument("--dataset", default="CR",
                    help="cell to bind the spec against (default CR)")
    ud.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the description as JSON")
    return p


def _config(args: argparse.Namespace) -> BenchConfig:
    return BenchConfig(feat_dim=args.feat, max_edges=args.max_edges, seed=args.seed)


def _cell(args, config):
    dataset = get_dataset(args.dataset, config)
    X = make_features(dataset.graph.num_vertices, config.feat_dim, seed=config.seed)
    return dataset, X


def cmd_datasets(args: argparse.Namespace, out) -> int:
    from .bench import table4

    print(table4(_config(args)).render(), file=out)
    return 0


def _archive_report(report, args, config, spec, out, *, graph=None) -> None:
    """Record a profile into ``--archive DIR`` (shared by run/trace)."""
    archive = ProfileArchive(args.archive)
    path = archive.record(
        report, seed=config.seed, feat_dim=config.feat_dim,
        max_edges=config.max_edges, spec=spec, graph=graph,
    )
    print(f"archived profile -> {path}", file=out)


def cmd_run(args: argparse.Namespace, out) -> int:
    config = _config(args)
    dataset, X = _cell(args, config)
    res = run_system(
        SYSTEMS[args.system](), args.model, dataset, config, X=X,
        opt=getattr(args, "opt", None),
    )
    if res is None:
        print(
            f"{args.system} cannot run {args.model} on {args.dataset} "
            "(unsupported model or capacity failure — a dash in the paper)",
            file=out,
        )
        return 1
    print(res.report.summary(), file=out)
    if args.archive:
        _archive_report(
            res.report, args, config, config.spec_for(dataset), out,
            graph=dataset.graph,
        )
    return 0


def cmd_compare(args: argparse.Namespace, out) -> int:
    config = _config(args)
    dataset, X = _cell(args, config)
    rows = []
    for name, factory in SYSTEMS.items():
        res = run_system(factory(), args.model, dataset, config, X=X)
        rows.append((name, res.runtime_ms if res else None))
    ok = [(n, t) for n, t in rows if t is not None]
    print(f"{args.model.upper()} on {args.dataset} "
          f"(|V|={dataset.graph.num_vertices:,}, |E|={dataset.graph.num_edges:,}):",
          file=out)
    if not ok:
        # every system dashed this cell: still render the table, exit 1
        for name, _ in rows:
            print(f"  {name:<12} {'-':>10}  (dash, as in the paper)", file=out)
        return 1
    best = min(t for _, t in ok)
    for name, t in sorted(ok, key=lambda r: r[1]):
        marker = " <- fastest" if t == best else f"  ({t / best:.2f}x)"
        print(f"  {name:<12} {t:10.4f} ms{marker}", file=out)
    for name, t in rows:
        if t is None:
            print(f"  {name:<12} {'-':>10}  (dash, as in the paper)", file=out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    from .obs.timeline import write_timeline

    config = _config(args)
    dataset, X = _cell(args, config)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        res = run_system(SYSTEMS[args.system](), args.model, dataset, config, X=X)
    finally:
        set_tracer(previous)
    if res is None:
        print(
            f"{args.system} cannot run {args.model} on {args.dataset} "
            "(dash cell — nothing to trace)",
            file=out,
        )
        return 1
    spec = config.spec_for(dataset)
    trace = write_timeline(
        args.out, res, spec, tracer=tracer,
        max_block_events_per_kernel=args.max_block_events,
    )
    meta = trace["otherData"]
    print(
        f"wrote {args.out}: {len(trace['traceEvents'])} events, "
        f"{meta['num_sms']} SM tracks, GPU time {meta['gpu_time_ms']:.3f} ms"
        + (f", {meta['dropped_events']} events dropped (cap)"
           if meta["dropped_events"] else ""),
        file=out,
    )
    if args.archive:
        _archive_report(res.report, args, config, spec, out, graph=dataset.graph)
    return 0


def cmd_diff(args: argparse.Namespace, out) -> int:
    try:
        baseline = load_run(args.baseline)
        candidate = load_run(args.candidate)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    diff = compare_metrics(baseline["metrics"], candidate["metrics"])
    diff.header += [
        f"baseline : {args.baseline} ({baseline['fingerprint']})",
        f"candidate: {args.candidate} ({candidate['fingerprint']})",
    ]
    if baseline["fingerprint"] != candidate["fingerprint"]:
        diff.header.append(
            "WARNING: config fingerprints differ — runs are not the same "
            "workload; deltas below compare apples to oranges"
        )
    print(diff.render(), file=out)
    return 0 if diff.ok else 1


def cmd_experiment(args: argparse.Namespace, out) -> int:
    config = _config(args)
    if args.id in ("table1", "table2") and args.feat == 32:
        config = BenchConfig(
            feat_dim=128, max_edges=args.max_edges, seed=args.seed
        )
    result = ALL_EXPERIMENTS[args.id](config)
    print(result.render(), file=out)
    return 0


def cmd_roofline(args: argparse.Namespace, out) -> int:
    config = _config(args)
    dataset, X = _cell(args, config)
    spec = config.spec_for(dataset)
    system = SYSTEMS[args.system]()
    res = run_system(system, args.model, dataset, config, X=X)
    if res is None:
        print("cell not supported", file=out)
        return 1
    # re-estimate per kernel so each gets its own roofline point
    print(
        f"{args.system} / {args.model} / {args.dataset} "
        f"({res.report.kernel_launches} kernel(s)):",
        file=out,
    )
    for stats in res.report.stats.kernels:
        from .gpusim.scheduler import ScheduleResult

        sched = ScheduleResult(
            makespan_cycles=float(stats.warp_cycles.sum())
            if stats.warp_cycles.size
            else 1.0,
            busy_warp_cycles=float(stats.warp_cycles.sum()),
            overhead_cycles=0.0,
            num_units=1,
            policy="report",
        )
        timing = next(
            (k for k in res.report.timing.kernels if k.name == stats.name),
            None,
        )
        if timing is None:
            from .plan import time_parts

            timing = time_parts([(stats, sched)], spec)[0]
        print("  " + roofline(stats, timing, spec).describe(), file=out)
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    config = _config(args)
    config128 = BenchConfig(
        feat_dim=128, max_edges=args.max_edges, seed=args.seed
    )
    sections = []
    for exp_id, fn in ALL_EXPERIMENTS.items():
        cfg = config128 if exp_id in ("table1", "table2") else config
        sections.append(fn(cfg).render())
    report = "\n\n".join(sections)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report + "\n")
        print(f"wrote {len(sections)} experiments to {args.out}", file=out)
    else:
        print(report, file=out)
    return 0


def cmd_validate(args: argparse.Namespace, out) -> int:
    from .bench import validate_claims

    results = validate_claims(_config(args), only=args.only)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{status}] {r.claim_id}: {r.description}", file=out)
        print(f"       {r.detail}", file=out)
    print(f"\n{len(results) - failed}/{len(results)} claims hold", file=out)
    return 1 if failed else 0


def _make_servable(args: argparse.Namespace, config, out):
    """Build the (servable, spec) pair of a serving command, or None when
    the system does not implement the model."""
    from .frameworks.base import UnsupportedModelError
    from .serve import ServableModel

    dataset = get_dataset(args.dataset, config)
    spec = config.spec_for(dataset)
    try:
        servable = ServableModel(
            SYSTEMS[args.system](), args.model, dataset,
            feat_dim=config.feat_dim, spec=spec, seed=config.seed,
            opt=getattr(args, "opt", None),
        )
    except UnsupportedModelError as exc:
        print(f"cannot serve: {exc}", file=out)
        return None
    return servable, spec


def _serve_preflight(servable, spec, streams: int, out) -> int:
    """``serve --lint``: statically verify the plan and its cross-stream
    schedule before admitting any traffic.  Non-zero = refuse to serve."""
    from .lint import lint_plan, lint_schedule, serving_schedule

    plan = servable.system.lower(
        servable.model, servable.data, servable.X, spec
    )
    report = lint_plan(plan, spec)
    sched_report = lint_schedule(
        serving_schedule(plan, num_streams=max(streams, 1), batches=2)
    )
    print(report.render(), file=out)
    print(sched_report.render(), file=out)
    if report.errors or sched_report.errors:
        print("serve preflight: REFUSED (error-severity findings)", file=out)
        return 1
    print("serve preflight: ok", file=out)
    return 0


def _certified_preflight(servable, spec, out) -> int:
    """``serve --certified``: re-verify the tuned-plan store's equivalence
    certificate for the served cell.  Non-zero = refuse to serve."""
    from .verify import check_tuned_certificate

    check = check_tuned_certificate(
        servable.system, servable.model, servable.data, servable.X, spec
    )
    print(check.render(), file=out)
    if not check.ok:
        print(
            "serve --certified: REFUSED (no valid equivalence certificate "
            "for this cell's tuned plan)",
            file=out,
        )
        return 1
    print("serve --certified: ok", file=out)
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    import json

    from .bench.serving import serving_scenario
    from .obs.metrics import MetricsRegistry, get_registry, set_registry
    from .obs.reqtrace import RequestTraceCollector, set_request_collector
    from .plan import get_plan_cache
    from .serve import ServeConfig, serve_trace

    config = _config(args)
    previous_store = None
    if args.store:
        from .opt import TunedPlanStore, set_tuned_store

        try:
            loaded_store = TunedPlanStore.load(args.store)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read store {args.store}: {exc}", file=out)
            return 2
        previous_store = set_tuned_store(loaded_store)
    # reuse an already-installed registry so repeated in-process serves
    # accumulate counters (plan_cache_hit across warm passes included);
    # "is None" rather than "or": an empty registry is falsy (len 0)
    registry = get_registry()
    if registry is None:
        registry = MetricsRegistry()
    previous = set_registry(registry)
    collector = None
    previous_collector = None
    if args.trace_out or args.tree:
        collector = RequestTraceCollector()
        previous_collector = set_request_collector(collector)
    try:
        if args.compare:
            result = serving_scenario(
                config, model=args.model, slo_ms=args.slo_ms, registry=registry
            )
            print(result.render(), file=out)
            rc = 0
        else:
            num_requests = args.requests
            max_batch, streams = args.max_batch, args.streams
            if args.smoke:
                num_requests = min(num_requests, 64)
                max_batch = min(max_batch, 4)
                streams = min(streams, 2)
            made = _make_servable(args, config, out)
            if made is None:
                return 1
            servable, spec = made
            if args.lint:
                rc = _serve_preflight(servable, spec, streams, out)
                if rc:
                    return rc
            if args.certified:
                rc = _certified_preflight(servable, spec, out)
                if rc:
                    return rc
            rate = args.rate or 0.5 / servable.offline_runtime_s
            cfg = ServeConfig(
                arrival=args.arrival, rate_hz=rate, num_requests=num_requests,
                job=args.job, targets_per_request=args.targets,
                max_batch=max_batch, window_s=args.window_us * 1e-6,
                num_streams=streams, queue_depth=args.queue_depth,
                max_concurrent=spec.max_concurrent_kernels, seed=config.seed,
                slo_ms=args.slo_ms, slo_objective=args.slo_objective,
            )
            report = serve_trace(servable, cfg)
            report.publish(registry, system=args.system, dataset=args.dataset)
            print(report.summary(), file=out)
            rc = 0
            if args.smoke:
                ok = (
                    report.arrived == report.admitted + report.shed
                    and report.admitted == report.completed
                    and report.completed > 0
                )
                print(f"serve smoke: {'OK' if ok else 'FAILED'}", file=out)
                rc = 0 if ok else 1
        if collector is not None:
            if args.tree:
                for trace in collector.slowest(args.tree):
                    print(trace.render_tree(), file=out)
            if args.trace_out:
                events = collector.to_chrome_trace()
                with open(args.trace_out, "w") as fh:
                    json.dump({"traceEvents": events}, fh)
                print(
                    f"wrote {args.trace_out}: {len(events)} events, "
                    f"{len(collector.completed)} request track(s), "
                    f"{len(collector.shed)} shed",
                    file=out,
                )
        if args.metrics_out:
            cache = get_plan_cache()
            if cache is not None:
                cache.publish(registry)
            # mirror the plan-cache counters with the tuner's activity
            # (plans_tuned / tuned_plan_hit / tuned_plan_miss)
            from .opt import get_tuned_store

            get_tuned_store().publish(registry)
            n = registry.dump_jsonl(args.metrics_out)
            print(f"wrote {n} metrics to {args.metrics_out}", file=out)
        return rc
    finally:
        if collector is not None:
            set_request_collector(previous_collector)
        set_registry(previous)
        if previous_store is not None:
            from .opt import set_tuned_store

            set_tuned_store(previous_store)


def cmd_top(args: argparse.Namespace, out) -> int:
    """Serve one workload with SLO monitoring; render the dashboard."""
    from .obs.dashboard import render_top
    from .serve import ServeConfig, serve_trace

    config = _config(args)
    made = _make_servable(args, config, out)
    if made is None:
        return 1
    servable, spec = made
    offline_s = servable.offline_runtime_s
    slo_ms = args.slo_ms if args.slo_ms is not None else 2.5 * offline_s * 1e3
    rate = args.rate or args.load / offline_s
    cfg = ServeConfig(
        arrival=args.arrival, rate_hz=rate, num_requests=args.requests,
        max_batch=args.max_batch, num_streams=args.streams,
        queue_depth=args.queue_depth,
        max_concurrent=spec.max_concurrent_kernels, seed=config.seed,
        slo_ms=slo_ms, slo_objective=args.slo_objective,
    )
    report = serve_trace(servable, cfg)
    print(render_top(report.slo, report=report), file=out)
    return 0


def cmd_metrics(args: argparse.Namespace, out) -> int:
    """Prometheus text exposition: from a JSONL dump or a fresh run."""
    from .obs.expose import records_from_jsonl, render_prometheus
    from .obs.metrics import MetricsRegistry, set_registry
    from .plan import get_plan_cache
    from .serve import ServeConfig, serve_trace

    if args.from_jsonl:
        try:
            records = records_from_jsonl(args.from_jsonl)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read {args.from_jsonl}: {exc}", file=out)
            return 2
        print(render_prometheus(records), end="", file=out)
        return 0
    config = _config(args)
    made = _make_servable(args, config, out)
    if made is None:
        return 1
    servable, spec = made
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        cfg = ServeConfig(
            rate_hz=0.5 / servable.offline_runtime_s,
            num_requests=args.requests, max_batch=4, num_streams=2,
            max_concurrent=spec.max_concurrent_kernels, seed=config.seed,
            slo_ms=2.5 * servable.offline_runtime_s * 1e3,
        )
        report = serve_trace(servable, cfg)
        report.publish(registry, system=args.system, dataset=args.dataset)
        cache = get_plan_cache()
        if cache is not None:
            cache.publish(registry)
        from .opt import get_tuned_store

        get_tuned_store().publish(registry)
    finally:
        set_registry(previous)
    print(render_prometheus(registry), end="", file=out)
    return 0


def cmd_regress(args: argparse.Namespace, out) -> int:
    """Compare HEAD probe metrics against the recorded perf trajectory."""
    from .bench.regress import PROBES, compare_point, default_store_path, record_point

    config = _config(args)
    names = sorted(PROBES) if args.probe == "all" else [args.probe]
    rc = 0
    for name in names:
        store_path = default_store_path(name, args.store_dir)
        if args.record:
            point = record_point(name, config, store_path=store_path)
            print(
                f"recorded {name} point at rev {point['rev']} "
                f"({len(point['metrics'])} metrics) -> {store_path}",
                file=out,
            )
            continue
        try:
            diff = compare_point(name, config, store_path=store_path)
        except (OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=out)
            return 2
        if diff is None:
            print(
                f"{name}: no trajectory point matches this config "
                f"fingerprint in {store_path} — record one with "
                "'repro regress --record'",
                file=out,
            )
            continue
        print(diff.render(), file=out)
        if not diff.ok:
            rc = 1
    return rc


def cmd_plan(args: argparse.Namespace, out) -> int:
    """Lower one cell per system and print the plan (no execution)."""
    from .frameworks.base import CapacityError, UnsupportedModelError

    config = _config(args)
    dataset, X = _cell(args, config)
    spec = config.spec_for(dataset)
    names = [args.system] if args.system else sorted(SYSTEMS)
    print(
        f"{args.model.upper()} on {args.dataset} "
        f"(|V|={dataset.graph.num_vertices:,}, "
        f"|E|={dataset.graph.num_edges:,}):\n",
        file=out,
    )
    lowered = 0
    for name in names:
        try:
            plan = SYSTEMS[name]().lower(args.model, dataset, X, spec)
        except (UnsupportedModelError, CapacityError) as exc:
            print(f"{name}: - ({type(exc).__name__}: {exc})\n", file=out)
            continue
        print(plan.describe(), file=out)
        if args.lint:
            from .lint import lint_plan

            print("  lint: " + lint_plan(plan, spec).render(), file=out)
        print(file=out)
        lowered += 1
    return 0 if lowered else 1


def _load_baseline(path: str) -> set[tuple[str, str, str, str]]:
    """Known-finding keys of a lint baseline file (see --write-baseline)."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    return {
        (
            entry.get("plan", ""),
            entry.get("code", ""),
            entry.get("op", ""),
            entry.get("buffer", ""),
        )
        for entry in data.get("findings", ())
    }


def cmd_lint(args: argparse.Namespace, out) -> int:
    """Statically lint the lowered plans of a grid of cells (no execution)."""
    import json

    from .frameworks.base import CapacityError, UnsupportedModelError
    from .lint import (
        finding_rows,
        lint_plan,
        race_findings,
        serving_schedule,
    )
    from .lint.report import LintReport

    if args.explain:
        from .lint import RULES, explain

        try:
            print(explain(args.explain.upper()), file=out)
        except KeyError:
            import difflib

            close = difflib.get_close_matches(
                args.explain.upper(), sorted(RULES), n=1, cutoff=0.4
            )
            hint = f" — did you mean {close[0]}?" if close else ""
            print(f"unknown finding code: {args.explain}{hint}", file=out)
            return 2
        return 0

    fmt = args.fmt or ("json" if args.as_json else "text")
    machine = fmt != "text"
    baseline_keys: set[tuple[str, str, str, str]] = set()
    baseline_entries: list[dict] = []
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline_entries = json.load(fh).get("findings", [])
            baseline_keys = _load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=out)
            return 2

    config = _config(args)
    systems = [args.system] if args.system else sorted(SYSTEMS)
    models = args.model or ["gcn", "gat"]
    datasets = args.dataset or ["CR", "CS", "PD"]
    errors = warnings_ = cells = suppressed = kept_total = 0
    kept_rows: list[dict] = []  # unsuppressed findings, grid-stable order
    all_rows: list[dict] = []  # every finding (what --write-baseline records)
    matched_keys: set[tuple[str, str, str, str]] = set()
    text: list[str] = []
    for ds_name in datasets:
        dataset = get_dataset(ds_name, config)
        X = make_features(
            dataset.graph.num_vertices, config.feat_dim, seed=config.seed
        )
        spec = config.spec_for(dataset)
        for model in models:
            for name in systems:
                try:
                    plan = SYSTEMS[name]().lower(model, dataset, X, spec)
                except (UnsupportedModelError, CapacityError) as exc:
                    text.append(
                        f"{name}/{model} on {ds_name}: - "
                        f"({type(exc).__name__})"
                    )
                    continue
                report = lint_plan(plan, spec)
                findings = list(report.findings)
                if args.streams > 0:
                    # concurrency self-check: the schedule repro serve
                    # would run (N batches of this plan, least-loaded
                    # stream assignment) must be HB race-free
                    findings += race_findings(
                        serving_schedule(
                            plan, num_streams=args.streams, batches=2
                        )
                    )
                cells += 1
                kept = []
                for f, row in zip(
                    findings, finding_rows(report.plan_label, findings)
                ):
                    all_rows.append(row)
                    key = (report.plan_label, *f.key())
                    if key in baseline_keys:
                        matched_keys.add(key)
                        suppressed += 1
                        continue
                    kept.append(f)
                    kept_rows.append(row)
                kept_total += len(kept)
                errors += sum(f.severity == "error" for f in kept)
                warnings_ += sum(f.severity == "warning" for f in kept)
                text.append(
                    LintReport(
                        plan_label=report.plan_label, findings=tuple(kept)
                    ).render()
                )
    stale_keys = baseline_keys - matched_keys
    if args.prune_baseline and args.baseline:
        live = [
            entry
            for entry in baseline_entries
            if (
                entry.get("plan", ""),
                entry.get("code", ""),
                entry.get("op", ""),
                entry.get("buffer", ""),
            )
            in matched_keys
        ]
        with open(args.baseline, "w") as fh:
            json.dump({"version": 1, "findings": live}, fh, indent=2)
            fh.write("\n")
        if not machine:
            text.append(
                f"pruned {len(baseline_entries) - len(live)} stale "
                f"suppression(s) from {args.baseline}"
            )
    if args.write_baseline:
        baseline = {
            "version": 1,
            "findings": [
                {k: row[k] for k in ("plan", "code", "op", "buffer")}
                for row in all_rows
            ],
        }
        with open(args.write_baseline, "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
        if not machine:
            text.append(
                f"wrote {len(baseline['findings'])} finding(s) to "
                f"{args.write_baseline}"
            )
    if fmt == "json":
        # machine mode: the array is the whole output (stable field set)
        print(json.dumps(kept_rows, indent=2), file=out)
    elif fmt == "sarif":
        from .lint import sarif_log

        print(json.dumps(sarif_log(kept_rows), indent=2), file=out)
    else:
        for line in text:
            print(line, file=out)
        summary = (
            f"\nlinted {cells} plan(s): {errors} error(s), "
            f"{warnings_} warning(s)"
        )
        if args.baseline:
            summary += f", {suppressed} suppressed by baseline"
            if stale_keys:
                summary += (
                    f", {len(stale_keys)} stale suppression(s)"
                    + ("" if args.prune_baseline else " (--prune-baseline)")
                )
        print(summary, file=out)
    if args.strict:
        # a baseline promotes strict mode to "no new findings at all":
        # the recorded ones are accepted, anything else fails the run
        failed = kept_total if args.baseline else errors
        return 1 if failed else 0
    return 0


def cmd_opt(args: argparse.Namespace, out) -> int:
    """Lower one cell per system, optimize it, and report each pass."""
    import json

    from .frameworks.base import CapacityError, UnsupportedModelError
    from .opt import modeled_runtime_s, optimize_plan

    config = _config(args)
    dataset, X = _cell(args, config)
    spec = config.spec_for(dataset)
    names = [args.system] if args.system else sorted(SYSTEMS)
    rows = []
    optimized = 0
    for name in names:
        try:
            plan = SYSTEMS[name]().lower(args.model, dataset, X, spec)
        except (UnsupportedModelError, CapacityError) as exc:
            if not args.as_json:
                print(f"{name}: - ({type(exc).__name__}: {exc})\n", file=out)
            continue
        before_ms = modeled_runtime_s(plan, spec) * 1e3
        new_plan, records = optimize_plan(
            plan, spec, level=args.level, dataset=dataset, budget=args.budget
        )
        after_ms = modeled_runtime_s(new_plan, spec) * 1e3
        rows.append(
            {
                "system": name,
                "model": args.model,
                "dataset": args.dataset,
                "level": args.level,
                "before_ms": before_ms,
                "after_ms": after_ms,
                "before_kernels": plan.num_kernels,
                "after_kernels": new_plan.num_kernels,
                "passes": [
                    {
                        "name": r.name,
                        "applied": r.applied,
                        "before_ms": r.before_ms,
                        "after_ms": r.after_ms,
                        "detail": r.detail,
                    }
                    for r in records
                ],
            }
        )
        if not args.as_json:
            print(
                f"{name}/{args.model} on {args.dataset}: "
                f"{plan.num_kernels} -> {new_plan.num_kernels} kernel(s), "
                f"{before_ms:.3f} -> {after_ms:.3f} ms (level {args.level})",
                file=out,
            )
            for r in records:
                print(f"  {r.render()}", file=out)
            if not any(r.applied for r in records):
                print(
                    "  no rewrites applied, plan already "
                    "optimal/certified",
                    file=out,
                )
            print(new_plan.describe(), file=out)
            print(file=out)
        optimized += 1
    if args.as_json:
        print(json.dumps(rows, indent=2), file=out)
    return 0 if optimized else 1


def cmd_verify(args: argparse.Namespace, out) -> int:
    """Certify optimizer rewrites over a grid of cells: the verdict comes
    from the symbolic dataflow normal form, not from byte diffing."""
    import json

    from .lint import finding_rows, sarif_log
    from .verify import certify_grid

    config = _config(args)
    fmt = args.fmt or ("json" if args.as_json else "text")
    cells = certify_grid(
        config,
        systems=[args.system] if args.system else None,
        models=args.model,
        datasets=args.dataset,
        level=args.level,
        budget=args.budget,
    )
    failed = [c for c in cells if not c.ok]
    if fmt == "json":
        print(json.dumps([c.as_dict() for c in cells], indent=2), file=out)
    elif fmt == "sarif":
        rows: list[dict] = []
        for c in cells:
            if c.result is None:
                continue
            label = f"{c.system}/{c.model} on {c.dataset}"
            rows.extend(finding_rows(label, c.result.decision.findings))
        print(
            json.dumps(sarif_log(rows, tool_name="repro-verify"), indent=2),
            file=out,
        )
    else:
        for c in cells:
            label = f"{c.system}/{c.model} on {c.dataset}"
            if c.status == "dash":
                print(f"{label}: - ({c.reason})", file=out)
            elif c.status == "certified":
                assert c.result is not None and c.result.certificate is not None
                print(
                    f"{label}: certified "
                    f"({c.result.decision.verdict}, "
                    f"cert {c.result.certificate.cert_id[:12]}..)",
                    file=out,
                )
            else:
                print(f"{label}: FAILED — {c.reason}", file=out)
                if c.result is not None:
                    for f in c.result.decision.findings:
                        print(f"  {f.render()}", file=out)
        certified = sum(c.status == "certified" for c in cells)
        dashes = sum(c.status == "dash" for c in cells)
        print(
            f"\ncertified {certified}/{len(cells)} cell(s), "
            f"{dashes} dash(es), {len(failed)} failure(s)",
            file=out,
        )
    return 1 if failed else 0


def cmd_tune(args: argparse.Namespace, out) -> int:
    """Auto-tune cells; exit 1 if any tuned plan lost to the paper config."""
    import json
    import os

    from .opt import AutoTuner, TunedPlanStore, get_tuned_store, set_tuned_store

    config = _config(args)
    datasets = args.dataset or ["CR"]
    store = get_tuned_store()
    previous = None
    if args.store:
        if os.path.exists(args.store):
            store = TunedPlanStore.load(args.store)
            if store.dropped and not args.as_json:
                n = store.dropped
                print(
                    f"dropped {n} stale entr{'y' if n == 1 else 'ies'} "
                    f"(tuner version mismatch) while loading {args.store}",
                    file=out,
                )
        else:
            store = TunedPlanStore()
        previous = set_tuned_store(store)
    tuner = AutoTuner(budget=args.budget, seed=config.seed, store=store)
    rows = []
    rc = 0
    try:
        for abbr in datasets:
            dataset = get_dataset(abbr, config)
            spec = config.spec_for(dataset)
            X = make_features(
                dataset.graph.num_vertices, config.feat_dim, seed=config.seed
            )
            system = SYSTEMS[args.system]()
            result = tuner.tune(system, args.model, dataset, X, spec)
            row = result.as_dict()
            row["dataset"] = abbr
            rows.append(row)
            if result.tuned_ms > result.fixed_ms:
                rc = 1
            if not args.as_json:
                knobs = ", ".join(
                    f"{k}={v}" for k, v in sorted(result.best_knobs.items())
                )
                print(
                    f"{args.system}/{args.model} on {abbr}: "
                    f"fixed {result.fixed_ms:.3f} ms -> tuned "
                    f"{result.tuned_ms:.3f} ms "
                    f"({result.speedup_vs_fixed:.3f}x, "
                    f"{result.iterations} measurement(s) within budget "
                    f"{args.budget})",
                    file=out,
                )
                print(f"  winner: {knobs}", file=out)
            if args.warm:
                system.run(args.model, dataset, X, spec, opt="search")
        if args.store:
            store.save(args.store)
            if not args.as_json:
                print(
                    f"saved {len(store)} tuned plan(s) to {args.store}",
                    file=out,
                )
    finally:
        if previous is not None:
            set_tuned_store(previous)
    if args.as_json:
        print(json.dumps(rows, indent=2), file=out)
    return rc


def cmd_udf(args: argparse.Namespace, out) -> int:
    """Describe a registered UDF: everything downstream is derived."""
    import json

    from .frameworks.base import CapacityError, UnsupportedModelError
    from .kernels.tlpgnn import TLPGNNKernel
    from .lint.access import sector_class
    from .mp import build_model, model_features, registered_models

    config = _config(args)
    dataset, X = _cell(args, config)
    if args.model is None:
        rows = [
            {
                "name": name,
                "signature": build_model(
                    name, dataset.graph, X
                ).signature(),
            }
            for name in registered_models()
        ]
        if args.as_json:
            print(json.dumps(rows, indent=2), file=out)
        else:
            for row in rows:
                print(row["signature"], file=out)
        return 0

    name = args.model.lower()
    feats = model_features(name)
    if feats is None:
        print(
            f"unknown model {args.model!r}; registered: "
            + ", ".join(registered_models()),
            file=out,
        )
        return 2
    spec = config.spec_for(dataset)
    model = build_model(name, dataset.graph, X)
    workload = model.workload()

    # what each framework derives from the terms: support + pipeline
    systems: dict[str, dict] = {}
    for sysname in sorted(SYSTEMS):
        system = SYSTEMS[sysname]()
        if not system.supports(name):
            systems[sysname] = {"supported": False, "kernels": None}
            continue
        try:
            plan = system.lower(name, dataset, X, spec)
        except (UnsupportedModelError, CapacityError) as exc:
            systems[sysname] = {
                "supported": False,
                "kernels": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
            continue
        systems[sysname] = {
            "supported": True,
            "kernels": [op.name for op in plan.ops],
        }

    # the fused kernel's derived tables (same derivation the lint checks)
    kernel = TLPGNNKernel()
    eff = kernel.effects(workload)
    acc = kernel.access_patterns(workload)
    info = {
        "name": name,
        "signature": model.signature(),
        "terms": {
            "feature": feats.feature,
            "scale": feats.scale,
            "op": feats.op,
            "softmax": feats.softmax,
            "self": feats.self_kind,
        },
        "systems": systems,
        "effects": {
            "kernel": kernel.name,
            "reads": list(eff.reads),
            "writes": list(eff.writes),
            "atomics": list(eff.atomics),
            "atomic_ops": int(eff.atomic_ops),
        },
        "access": [
            {
                "buffer": p.buffer,
                "role": p.role,
                "row": p.row,
                "trips": list(p.trips),
                "class": sector_class(p, acc.shapes),
            }
            for p in acc.patterns
        ],
    }
    if model.has_softmax:
        from .mp import softmax_stages

        info["softmax_stages"] = [
            {"key": s.key, "reads": list(s.reads), "write": s.write}
            for s in softmax_stages()
        ]
    if args.as_json:
        print(json.dumps(info, indent=2), file=out)
        return 0

    t = info["terms"]
    print(info["signature"], file=out)
    print(
        f"  terms    : send feat[{t['feature']}] scale={t['scale']} "
        f"reduce={t['op']} softmax={'yes' if t['softmax'] else 'no'} "
        f"self={t['self'] or '-'}",
        file=out,
    )
    print("  lowering (derived per framework):", file=out)
    for sysname, row in systems.items():
        if row["supported"]:
            detail = " -> ".join(row["kernels"])
            print(
                f"    {sysname:>10}: {len(row['kernels'])} kernel(s): "
                f"{detail}",
                file=out,
            )
        else:
            why = row.get("error", "declined by the spec terms")
            print(f"    {sysname:>10}: - ({why})", file=out)
    if "softmax_stages" in info:
        print("  unfused softmax staging:", file=out)
        for s in info["softmax_stages"]:
            print(
                f"    {s['key']:>10}: reads {','.join(s['reads'])} "
                f"-> {s['write']}",
                file=out,
            )
    e = info["effects"]
    line = f"reads {','.join(e['reads'])}; writes {','.join(e['writes'])}"
    if e["atomics"]:
        line += (
            f"; atomics {','.join(e['atomics'])} ({e['atomic_ops']} ops)"
        )
    print(f"  derived effects ({e['kernel']}): {line}", file=out)
    print(f"  derived access ({e['kernel']}):", file=out)
    for row in info["access"]:
        trips = f" x {','.join(row['trips'])}" if row["trips"] else ""
        print(
            f"    {row['role']:>5} {row['buffer']:<10} row={row['row']}"
            f"{trips} [{row['class']}]",
            file=out,
        )
    return 0


_COMMANDS = {
    "datasets": cmd_datasets,
    "validate": cmd_validate,
    "run": cmd_run,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
    "report": cmd_report,
    "roofline": cmd_roofline,
    "trace": cmd_trace,
    "diff": cmd_diff,
    "serve": cmd_serve,
    "top": cmd_top,
    "metrics": cmd_metrics,
    "regress": cmd_regress,
    "plan": cmd_plan,
    "lint": cmd_lint,
    "verify": cmd_verify,
    "opt": cmd_opt,
    "tune": cmd_tune,
    "udf": cmd_udf,
}


def main(argv: list[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
