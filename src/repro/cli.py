"""Command-line interface: ``python -m repro <command>``.

One table, :data:`COMMANDS`, declares every command: its handler, its
help and description, the shared option groups it takes, and its own
options.  The four shared groups are *cell* (``--system``, ``--model``,
``--dataset``), *grid* (lint and verify's repeatable lists over the
golden grid), *serving* (the trace and device options ``serve`` and
``top`` share) and *format* (``--json``; lint and verify also take
``--format``).  ``repro <command> --help`` documents each command.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any

from .bench import (
    ALL_EXPERIMENTS,
    CLAIMS,
    GOLDEN_DATASETS,
    GOLDEN_MODELS,
    BenchConfig,
    Cell,
    get_dataset,
    grid_cells,
    load_cell,
    profile_system,
    select_claims,
    validate_claims,
    walk_grid,
)
from .frameworks import SYSTEMS
from .gpusim import roofline
from .obs import ProfileArchive, Tracer, compare_metrics, load_run, set_tracer

__all__ = ["main", "build_parser"]

Option = tuple[tuple[str, ...], dict[str, Any]]


def _opt(*flags: str, **kwargs: Any) -> Option:
    return flags, kwargs


def _budget(text: str) -> int:
    """``--budget``: a count of candidate plans, so never negative."""
    budget = int(text)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {budget}")
    return budget


def _model_choices() -> list[str]:
    """CLI model names come from the UDF registry, not a frozen list —
    models registered before ``main()`` are immediately runnable."""
    from .mp import registered_models

    return sorted(registered_models())


def _cell_options(systems: list[str], models: list[str]) -> dict[str, Option]:
    """The cell and grid groups, by key, built with the parser so that the
    choices are the registries' systems and models at that moment."""
    return {
        # cell: one (system, model, dataset) cell; upper case = positional
        "system": _opt("--system", choices=systems, default="TLPGNN"),
        "model": _opt("--model", choices=models, default="gcn"),
        "dataset": _opt("--dataset", default="CR",
                        help="dataset abbreviation (default CR)"),
        "DATASET": _opt("dataset", help="dataset abbreviation (e.g. CR)"),
        "MODEL": _opt("model", choices=models),
        # grid: every system unless --system names one, and repeatable
        # lists over the golden grid
        "systems": _opt("--system", choices=systems, default=None,
                        help="limit to one system (default: all of them)"),
        "models": _opt("--model", action="append", choices=models,
                       help="model; repeatable (default: "
                       f"{' '.join(GOLDEN_MODELS)})"),
        "datasets": _opt("--dataset", action="append",
                         help="dataset abbreviation; repeatable (default: "
                         f"{' '.join(GOLDEN_DATASETS)})"),
    }


#: the cell-group keys of a one-cell command, and of a grid command
CELL = ("system", "model", "dataset")
GRID = ("systems", "models", "datasets")

#: the serving group; each dest that names a ServeConfig field sets it
SERVING = (
    _opt("--arrival", choices=["poisson", "bursty"], default="poisson"),
    _opt("--rate", dest="rate_hz", metavar="HZ", type=float, default=None,
         help="offered req/s (default: top's --load, or serve's 0.5, x "
         "the system's offline service rate)"),
    _opt("--requests", dest="num_requests", metavar="N", type=int, default=200,
         help="trace length (default 200)"),
    _opt("--max-batch", type=int, default=8),
    _opt("--streams", dest="num_streams", metavar="N", type=int, default=2,
         help="concurrent CUDA-like streams"),
    _opt("--queue-depth", type=int, default=64,
         help="admission bound on in-system requests"),
    _opt("--slo-ms", type=float, default=None,
         help="latency SLO in ms (serve: enables burn-rate monitoring, and "
         "is the --compare p99 bar, default 2.5x DGL offline; top: default "
         "2.5x the offline runtime)"),
    _opt("--slo-objective", type=float, default=0.99,
         help="SLO good fraction (default 0.99 = 1%% budget)"),
)

_ARCHIVE = _opt("--archive", default=None, metavar="DIR",
                help="also record the profile into this archive directory")
_OPT = _opt("--opt", choices=["off", "safe", "search"], default="off",
            help="plan-IR optimizer level (search replays the tuned-plan "
            "store)")
_LEVEL = _opt("--level", choices=["safe", "search"], default="search",
              help="optimizer level (default search)")


@dataclass(frozen=True)
class Command:
    """One command: its handler, its help, the shared groups it takes and
    its own options."""

    handler: Callable[[argparse.Namespace, BenchConfig, Any], int]
    help: str
    #: what ``repro <command> --help`` adds to the help line
    detail: str = ""
    #: cell-group keys, in declaration order
    cell: tuple[str, ...] = ()
    serving: bool = False
    #: machine output formats: ("json",) adds --json, a second adds --format
    formats: tuple[str, ...] = ()
    options: tuple[Option, ...] = ()


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
    cell = _cell_options(sorted(SYSTEMS), _model_choices())
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(
            name, help=cmd.help, description=f"{cmd.help} {cmd.detail}"
        )
        options = [cell[key] for key in cmd.cell]
        options += SERVING if cmd.serving else ()
        for flags, kwargs in (*options, *cmd.options):
            sp.add_argument(*flags, **kwargs)
        if cmd.formats:
            fmt = sp.add_mutually_exclusive_group()
            fmt.add_argument("--json", action="store_const", const="json",
                             dest="fmt", default="text",
                             help="emit JSON instead of text")
            if len(cmd.formats) > 1:
                # no default of its own (--json's stands), so that even
                # "--format text" counts as given next to --json
                fmt.add_argument("--format", choices=("text", *cmd.formats),
                                 dest="fmt", default=argparse.SUPPRESS,
                                 help="output format (sarif: a SARIF 2.1.0 "
                                 "log for code-scanning upload)")
    return p


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _installed(setter: Callable[[Any], Any], value: Any) -> Iterator[Any]:
    """Install ``value`` through a ``set_*`` hook for the block, then put
    back whatever it replaced."""
    previous = setter(value)
    try:
        yield value
    finally:
        setter(previous)


def _walk(
    args: argparse.Namespace, cells: Iterable[Cell], models: list[str] | None
) -> Iterator[tuple[Cell, str, str, Any]]:
    """Lower each cell on ``--system`` (or every system), dash-aware."""
    systems = [args.system] if args.system else None
    return walk_grid(cells, Cell.lower, models=models, systems=systems)


def _archive(args, config, cell: Cell, res, out) -> None:
    """Record a profile into ``--archive DIR`` when given (run, trace)."""
    if args.archive:
        path = ProfileArchive(args.archive).record(
            res.report, seed=config.seed, feat_dim=config.feat_dim,
            max_edges=config.max_edges, spec=cell.spec,
            graph=cell.dataset.graph,
        )
        print(f"archived profile -> {path}", file=out)


def _servable(args, config, out, *, opt: str = "off"):
    """The served (system, model, dataset) unit, or None (reported) when
    the system does not implement the model."""
    from .frameworks.base import UnsupportedModelError
    from .serve import ServableModel

    dataset = get_dataset(args.dataset, config)
    try:
        return ServableModel(
            SYSTEMS[args.system](), args.model, dataset,
            feat_dim=config.feat_dim, spec=config.spec_for(dataset),
            seed=config.seed, opt=opt,
        )
    except UnsupportedModelError as exc:
        print(f"cannot serve: {exc}", file=out)
        return None


def _serve_config(args, servable, *, load: float = 0.5, **fields):
    """The ServeConfig of a serving command: every option whose dest names
    a ServeConfig field (the serving group's, ``--seed``), then
    ``fields``.  The offered rate defaults to ``load`` x the offline
    service rate."""
    from .serve import ServeConfig

    values = {
        f.name: getattr(args, f.name)
        for f in dataclass_fields(ServeConfig)
        if hasattr(args, f.name)
    }
    values["rate_hz"] = (
        values.get("rate_hz") or load / servable.offline_runtime_s
    )
    values["max_concurrent"] = servable.spec.max_concurrent_kernels
    return ServeConfig(**{**values, **fields})


def _publish_caches(registry) -> None:
    """Mirror the plan-cache and tuned-store counters (plans_tuned,
    tuned_plan_hit, tuned_plan_miss) into ``registry``."""
    from .opt import get_tuned_store
    from .plan import get_plan_cache

    cache = get_plan_cache()
    if cache is not None:
        cache.publish(registry)
    get_tuned_store().publish(registry)


def _load_store(path: str, out, *, create: bool = False):
    """The tuned-plan store at ``path`` (a new one when ``create`` and the
    file does not exist), or None after reporting why it is unreadable."""
    from .opt import TunedPlanStore

    if create and not os.path.exists(path):
        return TunedPlanStore()
    try:
        return TunedPlanStore.load(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read store {path}: {exc}", file=out)
        return None


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------
def cmd_datasets(args, config, out) -> int:
    print(ALL_EXPERIMENTS["table4"](config).render(), file=out)
    return 0


def cmd_run(args, config, out) -> int:
    cell = load_cell(args.dataset, config)
    res = profile_system(
        SYSTEMS[args.system](), args.model, cell.dataset, config, X=cell.X,
        opt=args.opt,
    )
    if res is None:
        print(
            f"{args.system} cannot run {args.model} on {args.dataset} "
            "(unsupported model or capacity failure — a dash in the paper)",
            file=out,
        )
        return 1
    print(res.report.summary(), file=out)
    _archive(args, config, cell, res, out)
    return 0


def cmd_compare(args, config, out) -> int:
    cell = load_cell(args.dataset, config)
    graph = cell.dataset.graph
    rows = []
    for name, factory in SYSTEMS.items():
        res = profile_system(factory(), args.model, cell.dataset, config, X=cell.X)
        rows.append((name, res.runtime_ms if res else None))
    ok = [(n, t) for n, t in rows if t is not None]
    print(f"{args.model.upper()} on {args.dataset} "
          f"(|V|={graph.num_vertices:,}, |E|={graph.num_edges:,}):",
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


def cmd_trace(args, config, out) -> int:
    from .obs.timeline import write_timeline

    cell = load_cell(args.dataset, config)
    with _installed(set_tracer, Tracer()) as tracer:
        res = profile_system(
            SYSTEMS[args.system](), args.model, cell.dataset, config, X=cell.X
        )
    if res is None:
        print(
            f"{args.system} cannot run {args.model} on {args.dataset} "
            "(dash cell — nothing to trace)",
            file=out,
        )
        return 1
    trace = write_timeline(
        args.out, res, cell.spec, tracer=tracer,
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
    _archive(args, config, cell, res, out)
    return 0


def cmd_diff(args, config, out) -> int:
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


def cmd_experiment(args, config, out) -> int:
    print(ALL_EXPERIMENTS[args.id](config).render(), file=out)
    return 0


def cmd_roofline(args, config, out) -> int:
    cell = load_cell(args.dataset, config)
    res = profile_system(
        SYSTEMS[args.system](), args.model, cell.dataset, config, X=cell.X
    )
    if res is None:
        print("cell not supported", file=out)
        return 1
    print(
        f"{args.system} / {args.model} / {args.dataset} "
        f"({res.report.kernel_launches} kernel(s)):",
        file=out,
    )
    # the timings are built from the same parts as the stats, in order
    for stats, timing in zip(
        res.report.stats.kernels, res.report.timing.kernels, strict=True
    ):
        print("  " + roofline(stats, timing, cell.spec).describe(), file=out)
    return 0


def cmd_report(args, config, out) -> int:
    sections = [fn(config).render() for fn in ALL_EXPERIMENTS.values()]
    report = "\n\n".join(sections)
    if args.out:
        Path(args.out).write_text(report + "\n")
        print(f"wrote {len(sections)} experiments to {args.out}", file=out)
    else:
        print(report, file=out)
    return 0


def cmd_validate(args, config, out) -> int:
    results = validate_claims(config, only=args.only)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{status}] {r.claim_id}: {r.description}", file=out)
        print(f"       {r.detail}", file=out)
    _, other = select_claims(config, args.only)
    skipped = [f"{cid} (stated at {c.max_edges:,} edges)" for cid, c in other.items()]
    if skipped:
        print(f"\nskipped: {', '.join(skipped)}", file=out)
    print(f"\n{len(results) - failed}/{len(results)} claims hold", file=out)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def _serve_preflight(servable, out) -> int:
    """``serve --lint``: statically lint the served plan before admitting
    any traffic.  Non-zero = refuse to serve."""
    from .lint import lint_plan

    plan = servable.system.lower(
        servable.model, servable.data, servable.X, servable.spec
    )
    report = lint_plan(plan, servable.spec)
    print(report.render(), file=out)
    if report.errors:
        print("serve preflight: REFUSED (error-severity findings)", file=out)
        return 1
    print("serve preflight: ok", file=out)
    return 0


def _certified_preflight(servable, out) -> int:
    """``serve --certified``: re-verify the tuned-plan store's equivalence
    certificate for the served cell.  Non-zero = refuse to serve."""
    from .verify import check_tuned_certificate

    check = check_tuned_certificate(
        servable.system, servable.model, servable.data, servable.X,
        servable.spec,
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


def cmd_serve(args, config, out) -> int:
    from .bench.serving import serving_scenario
    from .obs.metrics import MetricsRegistry, get_registry, set_registry
    from .obs.reqtrace import (
        RequestTraceCollector,
        get_request_collector,
        set_request_collector,
    )
    from .opt import get_tuned_store, set_tuned_store
    from .serve import serve_trace

    store = get_tuned_store()
    if args.store:
        store = _load_store(args.store, out)
        if store is None:
            return 2
    # reuse an already-installed registry so repeated in-process serves
    # accumulate counters (plan_cache_hit across warm passes included);
    # "is None" rather than "or": an empty registry is falsy (len 0)
    registry = get_registry()
    if registry is None:
        registry = MetricsRegistry()
    collector = (
        RequestTraceCollector() if args.trace_out or args.tree
        else get_request_collector()
    )
    with _installed(set_tuned_store, store), \
            _installed(set_registry, registry), \
            _installed(set_request_collector, collector):
        if args.compare:
            result = serving_scenario(
                config, model=args.model, slo_ms=args.slo_ms, registry=registry
            )
            print(result.render(), file=out)
            rc = 0
        else:
            if args.smoke:
                args.num_requests = min(args.num_requests, 64)
                args.max_batch = min(args.max_batch, 4)
                args.num_streams = min(args.num_streams, 2)
            servable = _servable(args, config, out, opt=args.opt)
            if servable is None:
                return 1
            if args.lint and (rc := _serve_preflight(servable, out)):
                return rc
            if args.certified and (rc := _certified_preflight(servable, out)):
                return rc
            report = serve_trace(servable, _serve_config(
                args, servable, window_s=args.window_us * 1e-6
            ))
            report.publish(registry, system=args.system, dataset=args.dataset)
            print(report.summary(), file=out)
            rc = 0
            if args.smoke:
                ok = (
                    report.arrived
                    == report.admitted + report.shed + report.refused
                    and report.admitted == report.completed
                    and report.completed > 0
                )
                print(f"serve smoke: {'OK' if ok else 'FAILED'}", file=out)
                rc = 0 if ok else 1
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
            _publish_caches(registry)
            n = registry.dump_jsonl(args.metrics_out)
            print(f"wrote {n} metrics to {args.metrics_out}", file=out)
        return rc


def cmd_top(args, config, out) -> int:
    """Serve one workload with SLO monitoring; render the dashboard."""
    from .obs.dashboard import render_top
    from .serve import serve_trace

    servable = _servable(args, config, out)
    if servable is None:
        return 1
    slo_ms = args.slo_ms
    if slo_ms is None:
        slo_ms = 2.5 * servable.offline_runtime_s * 1e3
    report = serve_trace(
        servable, _serve_config(args, servable, load=args.load, slo_ms=slo_ms)
    )
    print(render_top(report.slo, report=report), file=out)
    return 0


def cmd_metrics(args, config, out) -> int:
    """Prometheus text exposition: from a JSONL dump or a fresh run."""
    from .obs.expose import records_from_jsonl, render_prometheus
    from .obs.metrics import MetricsRegistry, set_registry
    from .serve import serve_trace

    if args.from_jsonl:
        try:
            records = records_from_jsonl(args.from_jsonl)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read {args.from_jsonl}: {exc}", file=out)
            return 2
        print(render_prometheus(records), end="", file=out)
        return 0
    servable = _servable(args, config, out)
    if servable is None:
        return 1
    with _installed(set_registry, MetricsRegistry()) as registry:
        report = serve_trace(servable, _serve_config(
            args, servable, max_batch=4, num_streams=2,
            slo_ms=2.5 * servable.offline_runtime_s * 1e3,
        ))
        report.publish(registry, system=args.system, dataset=args.dataset)
        _publish_caches(registry)
    print(render_prometheus(registry), end="", file=out)
    return 0


def cmd_regress(args, config, out) -> int:
    """Compare HEAD probe metrics against the recorded perf trajectory."""
    from .bench.regress import PROBES, compare_point, default_store_path, record_point

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


# ----------------------------------------------------------------------
# plans: inspect, lint, verify, optimize, tune, describe
# ----------------------------------------------------------------------
def cmd_plan(args, config, out) -> int:
    """Lower one cell per system and print the plan (no execution)."""
    from .lint import lint_plan

    cell = load_cell(args.dataset, config)
    graph = cell.dataset.graph
    print(
        f"{args.model.upper()} on {args.dataset} "
        f"(|V|={graph.num_vertices:,}, |E|={graph.num_edges:,}):\n",
        file=out,
    )
    lowered = 0
    for _, _, name, plan in _walk(args, [cell], [args.model]):
        if isinstance(plan, Exception):
            print(f"{name}: - ({type(plan).__name__}: {plan})\n", file=out)
            continue
        print(plan.describe(), file=out)
        if args.lint:
            print("  lint: " + lint_plan(plan, cell.spec).render(), file=out)
        print(file=out)
        lowered += 1
    return 0 if lowered else 1


_BASELINE_KEY = ("plan", "code", "op", "buffer")


def _baseline_key(entry: dict) -> tuple[str, ...]:
    return tuple(entry.get(k, "") for k in _BASELINE_KEY)


def _write_baseline(path: str, findings: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"version": 1, "findings": findings}, fh, indent=2)
        fh.write("\n")


def _explain(code: str, out) -> int:
    """``lint --explain CODE``: one registry entry or retired code, or
    exit 2 with the nearest registered code suggested."""
    import difflib

    from .lint import RETIRED, RULES, explain

    known = sorted([*RULES, *RETIRED])
    if code.upper() in known:
        print(explain(code.upper()), file=out)
        return 0
    close = difflib.get_close_matches(code.upper(), known, n=1, cutoff=0.4)
    hint = f" — did you mean {close[0]}?" if close else ""
    print(f"unknown finding code: {code}{hint}", file=out)
    return 2


def cmd_lint(args, config, out) -> int:
    """Statically lint the lowered plans of a grid of cells (no execution)."""
    from .lint import finding_rows, lint_plan, sarif_log
    from .lint.report import LintReport

    if args.explain:
        return _explain(args.explain, out)
    entries: list[dict] = []
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                entries = json.load(fh).get("findings", [])
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=out)
            return 2
    baseline = {_baseline_key(entry) for entry in entries}
    cells = 0
    all_rows: list[dict] = []  # every finding (what --write-baseline records)
    kept_rows: list[dict] = []  # unsuppressed findings, grid-stable order
    text: list[str] = []
    for cell, model, name, plan in _walk(
        args, grid_cells(config, args.dataset), args.model
    ):
        if isinstance(plan, Exception):
            text.append(
                f"{name}/{model} on {cell.abbr}: - ({type(plan).__name__})"
            )
            continue
        report = lint_plan(plan, cell.spec)
        cells += 1
        rows = finding_rows(report.plan_label, report.findings)
        all_rows += rows
        kept = [
            (f, row) for f, row in zip(report.findings, rows, strict=True)
            if _baseline_key(row) not in baseline
        ]
        kept_rows += [row for _, row in kept]
        text.append(LintReport(
            plan_label=report.plan_label, findings=tuple(f for f, _ in kept)
        ).render())
    matched = {_baseline_key(row) for row in all_rows} & baseline
    if args.prune_baseline and args.baseline:
        live = [entry for entry in entries if _baseline_key(entry) in matched]
        _write_baseline(args.baseline, live)
        text.append(
            f"pruned {len(entries) - len(live)} stale "
            f"suppression(s) from {args.baseline}"
        )
    if args.write_baseline:
        written = [{k: row[k] for k in _BASELINE_KEY} for row in all_rows]
        _write_baseline(args.write_baseline, written)
        text.append(f"wrote {len(written)} finding(s) to {args.write_baseline}")
    errors = sum(row["severity"] == "error" for row in kept_rows)
    if args.fmt == "json":
        # machine mode: the array is the whole output (stable field set)
        print(json.dumps(kept_rows, indent=2), file=out)
    elif args.fmt == "sarif":
        print(json.dumps(sarif_log(kept_rows), indent=2), file=out)
    else:
        for line in text:
            print(line, file=out)
        warnings_ = sum(row["severity"] == "warning" for row in kept_rows)
        summary = (
            f"\nlinted {cells} plan(s): {errors} error(s), "
            f"{warnings_} warning(s)"
        )
        if args.baseline:
            summary += (
                f", {len(all_rows) - len(kept_rows)} suppressed by baseline"
            )
            if stale := len(baseline - matched):
                summary += f", {stale} stale suppression(s)" + (
                    "" if args.prune_baseline else " (--prune-baseline)"
                )
        print(summary, file=out)
    if args.strict:
        # a baseline promotes strict mode to "no new findings at all":
        # the recorded ones are accepted, anything else fails the run
        return 1 if (len(kept_rows) if args.baseline else errors) else 0
    return 0


def cmd_opt(args, config, out) -> int:
    """Lower one cell per system, optimize it, and report each pass."""
    from .opt import modeled_runtime_s, optimize_plan

    as_json = args.fmt == "json"
    cell = load_cell(args.dataset, config)
    rows = []
    for _, _, name, plan in _walk(args, [cell], [args.model]):
        if isinstance(plan, Exception):
            if not as_json:
                print(f"{name}: - ({type(plan).__name__}: {plan})\n", file=out)
            continue
        before_ms = modeled_runtime_s(plan, cell.spec) * 1e3
        new_plan, records = optimize_plan(
            plan, cell.spec, level=args.level, dataset=cell.dataset,
            budget=args.budget,
        )
        after_ms = modeled_runtime_s(new_plan, cell.spec) * 1e3
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
        if not as_json:
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
    if as_json:
        print(json.dumps(rows, indent=2), file=out)
    return 0 if rows else 1


def cmd_verify(args, config, out) -> int:
    """Certify optimizer rewrites over a grid of cells: the verdict comes
    from the symbolic dataflow normal form, not from byte diffing."""
    from .lint import finding_rows, sarif_log
    from .verify import certify_grid

    cells = certify_grid(
        config,
        systems=[args.system] if args.system else None,
        models=args.model,
        datasets=args.dataset,
        level=args.level,
        budget=args.budget,
    )
    failed = [c for c in cells if not c.ok]
    if args.fmt == "json":
        print(json.dumps([c.as_dict() for c in cells], indent=2), file=out)
    elif args.fmt == "sarif":
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


def cmd_tune(args, config, out) -> int:
    """Auto-tune cells; exit 1 if any tuned plan lost to the paper config."""
    from .opt import AutoTuner, get_tuned_store, set_tuned_store

    as_json = args.fmt == "json"
    store = get_tuned_store()
    if args.store:
        store = _load_store(args.store, out, create=True)
        if store is None:
            return 2
        if store.dropped and not as_json:
            n = store.dropped
            print(
                f"dropped {n} stale entr{'y' if n == 1 else 'ies'} "
                f"(tuner version mismatch) while loading {args.store}",
                file=out,
            )
    # the search's own seed, not --seed (the data's): at equal budget
    # the tuner then persists what a cold opt=search would pick
    tuner = AutoTuner(budget=args.budget, store=store)
    rows = []
    rc = 0
    with _installed(set_tuned_store, store):
        for cell in grid_cells(config, args.dataset or ["CR"]):
            system = SYSTEMS[args.system]()
            result = tuner.tune(
                system, args.model, cell.dataset, cell.X, cell.spec
            )
            rows.append({**result.as_dict(), "dataset": cell.abbr})
            if result.tuned_ms > result.fixed_ms:
                rc = 1
            if not as_json:
                knobs = ", ".join(
                    f"{k}={v}" for k, v in sorted(result.best_knobs.items())
                )
                print(
                    f"{args.system}/{args.model} on {cell.abbr}: "
                    f"fixed {result.fixed_ms:.3f} ms -> tuned "
                    f"{result.tuned_ms:.3f} ms "
                    f"({result.speedup_vs_fixed:.3f}x, "
                    f"{result.iterations} measurement(s) within budget "
                    f"{args.budget})",
                    file=out,
                )
                print(f"  winner: {knobs}", file=out)
            if args.warm:
                system.profile(args.model, cell.dataset, cell.X, cell.spec,
                               opt="search")
        if args.store:
            store.save(args.store)
            if not as_json:
                print(
                    f"saved {len(store)} tuned plan(s) to {args.store}",
                    file=out,
                )
    if as_json:
        print(json.dumps(rows, indent=2), file=out)
    return rc


def _lower_supported(cell: Cell, system, model: str):
    """The plan, or None where the spec's terms decline the model."""
    return cell.lower(system, model) if system.supports(model) else None


def cmd_udf(args, config, out) -> int:
    """Describe a registered UDF: everything downstream is derived."""
    from .kernels.tlpgnn import TLPGNNKernel
    from .lint.access import sector_class
    from .mp import build_model, model_features, registered_models

    cell = load_cell(args.dataset, config)
    graph = cell.dataset.graph
    if args.model is None:
        rows = [
            {
                "name": name,
                "signature": build_model(name, graph, cell.X).signature(),
            }
            for name in registered_models()
        ]
        if args.fmt == "json":
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
    model = build_model(name, graph, cell.X)
    workload = model.workload()

    # what each framework derives from the terms: support + pipeline
    systems: dict[str, dict] = {}
    for _, _, sysname, plan in walk_grid([cell], _lower_supported, models=[name]):
        if isinstance(plan, Exception):
            systems[sysname] = {
                "supported": False,
                "kernels": None,
                "error": f"{type(plan).__name__}: {plan}",
            }
        elif plan is None:
            systems[sysname] = {"supported": False, "kernels": None}
        else:
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
    if args.fmt == "json":
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


# ----------------------------------------------------------------------
# the command table
# ----------------------------------------------------------------------
COMMANDS: dict[str, Command] = {
    "datasets": Command(
        cmd_datasets, "print the dataset registry",
        "(Table 4: each dataset's spec and its loaded stand-in)",
    ),
    "run": Command(
        cmd_run, "profile one system/model/dataset cell", cell=CELL,
        options=(_ARCHIVE, _OPT),
    ),
    "compare": Command(
        cmd_compare, "run all systems on one cell", "and rank them",
        cell=CELL[1:],
    ),
    "experiment": Command(
        cmd_experiment, "regenerate a table/figure", "by its paper id",
        options=(_opt("id", choices=sorted(ALL_EXPERIMENTS)),),
    ),
    "validate": Command(
        cmd_validate, "check the paper's shape claims", "(exit 1 on failure)",
        options=(_opt("--only", nargs="*", choices=list(CLAIMS),
                      metavar="CLAIM", help="claim ids to run (default "
                      f"all): {', '.join(CLAIMS)}"),),
    ),
    "report": Command(
        cmd_report, "regenerate every table & figure", "into one document",
        options=(_opt("--out", default=None, help="write the full report "
                      "to this file (default stdout)"),),
    ),
    "roofline": Command(
        cmd_roofline, "roofline-classify a pipeline", "kernel by kernel",
        cell=CELL,
    ),
    "trace": Command(
        cmd_trace, "profile one cell and export a Chrome-trace timeline",
        "(one track per simulated SM; Perfetto loadable)", cell=CELL,
        options=(
            _opt("--out", default="trace.json",
                 help="timeline output path (default trace.json)"),
            _ARCHIVE,
            _opt("--max-block-events", type=int, default=20_000,
                 help="per-kernel cap on replayed block events"),
        ),
    ),
    "diff": Command(
        cmd_diff, "compare two archived profile runs (exit 1 on regression)",
        "metric by metric, under regress's policy table: exact counters, "
        "float-noise bands, directional times and rates",
        options=(
            _opt("baseline", help="archived run JSON (the reference)"),
            _opt("candidate", help="archived run JSON to check"),
        ),
    ),
    "serve": Command(
        cmd_serve, "simulated online inference serving on the modeled GPU",
        "(open-loop trace, dynamic batching, admission control, CUDA-like "
        "streams)", cell=CELL, serving=True,
        options=(
            _opt("--job", choices=["full", "targets"], default="full",
                 help="per-request inference job kind"),
            _opt("--targets", dest="targets_per_request", metavar="N",
                 type=int, default=16,
                 help="vertices per request for --job targets"),
            _opt("--window-us", type=float, default=200.0,
                 help="batching deadline window in microseconds"),
            _opt("--metrics-out", default=None, metavar="PATH",
                 help="append the run's obs metrics as JSONL"),
            _opt("--trace", default=None, metavar="PATH", dest="trace_out",
                 help="collect per-request span trees and write them as a "
                 "Chrome trace (one track per request + per stream)"),
            _opt("--tree", type=int, default=0, metavar="N",
                 help="print the span trees of the N slowest requests"),
            _opt("--compare", action="store_true",
                 help="run the TLPGNN vs DGL-sim vs GNNAdvisor serving "
                 "scenario under identical traces"),
            _opt("--smoke", action="store_true",
                 help="small fast run + conservation self-check (CI)"),
            _OPT,
            _opt("--lint", action="store_true",
                 help="preflight: statically lint the served plan; refuse "
                 "to serve on error-severity findings"),
            _opt("--certified", action="store_true",
                 help="preflight: refuse to serve unless the tuned-plan "
                 "store holds a valid equivalence certificate for this "
                 "cell (EQ004 on tampered/stale/missing certificates)"),
            _opt("--store", default=None, metavar="FILE",
                 help="load the tuned-plan store from this JSON path (what "
                 "--opt search replays and --certified re-verifies)"),
        ),
    ),
    "top": Command(
        cmd_top, "serve with SLO monitoring and render the health dashboard",
        "(error budgets, multi-window burn rates, shed/latency "
        "attribution, alert log)", cell=CELL, serving=True,
        options=(_opt("--load", type=float, default=0.8,
                      help="offered load as a multiple of the system's "
                      "offline service rate (default 0.8)"),),
    ),
    "metrics": Command(
        cmd_metrics, "Prometheus-style text exposition of serving metrics",
        "from a --metrics-out JSONL file, or from a small serving run's "
        "registry (histograms carry request-id exemplars)", cell=CELL,
        options=(
            _opt("--from-jsonl", default=None, metavar="PATH",
                 help="re-expose a --metrics-out JSONL file instead of "
                 "running a workload (last record per metric wins)"),
            _opt("--requests", dest="num_requests", metavar="N", type=int,
                 default=64),
        ),
    ),
    "regress": Command(
        cmd_regress, "compare HEAD probes against the BENCH_*.json perf "
        "trajectory (exit 1 on regression)", "(the same comparison as diff)",
        options=(
            _opt("--probe", choices=["serving", "table5", "autotune", "all"],
                 default="all"),
            _opt("--store-dir", default=".", metavar="DIR",
                 help="directory holding the BENCH_<probe>.json trend "
                 "stores (default: current directory)"),
            _opt("--record", action="store_true",
                 help="append a trajectory point at HEAD instead of "
                 "comparing"),
        ),
    ),
    "plan": Command(
        cmd_plan, "lower a cell and print each system's execution plan",
        "(kernel list, balance choice, fusion structure, content "
        "fingerprint)", cell=("DATASET", "MODEL", "systems"),
        options=(_opt("--lint", action="store_true",
                      help="append the static lint report to each plan"),),
    ),
    "lint": Command(
        cmd_lint, "static hazard/resource/determinism/access analysis of plans",
        "over a grid of cells, without executing them", cell=GRID,
        formats=("json", "sarif"),
        options=(
            _opt("--strict", action="store_true",
                 help="exit 1 on error-severity findings; with --baseline, "
                 "on ANY finding the baseline does not already record"),
            _opt("--baseline", default=None, metavar="FILE",
                 help="suppress findings recorded in this baseline JSON "
                 "(keyed plan/code/op/buffer); stale suppressions are "
                 "reported"),
            _opt("--write-baseline", default=None, metavar="FILE",
                 help="record every finding of this run into FILE as a "
                 "baseline for --baseline"),
            _opt("--prune-baseline", action="store_true",
                 help="with --baseline: rewrite the file dropping "
                 "suppressions that match no current finding"),
            _opt("--explain", default=None, metavar="CODE",
                 help="print the registry entry for one finding code (e.g. "
                 "ACC002), or why a retired code went, and exit; unknown "
                 "codes exit 2 with the nearest registered code suggested"),
        ),
    ),
    "verify": Command(
        cmd_verify, "certify that the optimizer's rewrites preserve each "
        "cell's dataflow normal form (translation validation)",
        "over a grid of cells; explains a failure as the minimal diverging "
        "term and exits 1", cell=GRID, formats=("json", "sarif"),
        options=(
            _LEVEL,
            _opt("--budget", type=_budget, default=16,
                 help="max candidate plans the kernel search scores, in "
                 "all (default 16)"),
        ),
    ),
    "opt": Command(
        cmd_opt, "run the plan-IR optimizer pass pipeline on one cell and "
        "show each pass's rewrite decision", "(legality re-linted, profit "
        "scored with the shared cost model)",
        cell=("DATASET", "MODEL", "systems"), formats=("json",),
        options=(
            _LEVEL,
            _opt("--budget", type=_budget, default=32,
                 help="max candidate plans the kernel search scores, in "
                 "all (default 32)"),
        ),
    ),
    "tune": Command(
        cmd_tune, "auto-tune the compute-kernel knob space of one or more "
        "cells; persists winners in the tuned-plan store",
        "(the kernel search of --opt search, run once per cell; run/serve "
        "--opt search replay the winners)", cell=CELL[:2], formats=("json",),
        options=(
            _opt("--dataset", action="append", default=None,
                 help="dataset abbreviation; repeatable (default: CR)"),
            _opt("--budget", type=_budget, default=32,
                 help="max candidate plans the kernel search scores per "
                 "cell; 0 records the lowered kernel (default 32)"),
            _opt("--store", default=None, metavar="FILE",
                 help="load/save the tuned-plan store at this JSON path"),
            _opt("--warm", action="store_true",
                 help="after tuning, profile each cell with opt=search so "
                 "the PlanCache holds the tuned plan's profile"),
        ),
    ),
    "udf": Command(
        cmd_udf, "describe a registered message-passing UDF: spec "
        "signature, derived framework lowering, derived effect/access tables",
        cell=("dataset",), formats=("json",),
        options=(_opt("model", nargs="?", default=None,
                      help="registered model name (default: list all)"),),
    ),
}


def main(argv: list[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    config = BenchConfig(
        feat_dim=args.feat, max_edges=args.max_edges, seed=args.seed
    )
    return COMMANDS[args.command].handler(args, config, out or sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
