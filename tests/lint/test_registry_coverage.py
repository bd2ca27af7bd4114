"""Every registered finding code is documented, producible, and
round-trips through the machine-readable output.

Parametrized over ``repro.lint.registry.RULES``: each code must

(a) appear in the README finding-code tables,
(b) be produced by at least one synthetic fixture in this file, and
(c) round-trip through the ``lint --json`` row encoding with the
    registry's severity.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.gpusim.config import V100
from repro.lint import (
    RULES,
    KernelAccess,
    ScheduledPlan,
    StreamSchedule,
    access_findings,
    determinism_findings,
    finding_rows,
    hazard_findings,
    lint_plan,
    liveness_findings,
    race_findings,
    resource_findings,
    rule_info,
    shape_findings,
)
from repro.lint.access import Affine, AccessPattern, gather, lane_stream
from repro.lint.effects import (
    BufferEffect,
    KernelEffects,
    LaunchEnvelope,
    effect_table,
)
from repro.plan import ComputeStep, ExecutionPlan, KernelOp
from repro.verify import (
    ORDER_EXACT,
    ORDER_FLOAT_SUM,
    EquivalenceCertificate,
    PlanNormalForm,
    ProducerTerm,
    decide_equivalence,
    normalize_plan,
    verify_certificate,
)

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"
ENV = LaunchEnvelope(threads_per_block=128)


def _plan(ops, workload=None, fingerprint=None):
    return ExecutionPlan(
        system="X", model="m", graph_name="g", pipeline_name="p",
        ops=ops,
        compute=ComputeStep(workload=workload),
        fingerprint=fingerprint,
    )


def _op(name, effects, access=None, shapes=None):
    if access is None and effects is not None:
        access = KernelAccess(
            patterns=tuple(
                lane_stream(b.buffer, role=b.mode, row="flat")
                for b in effects.buffers
            ),
            shapes=dict(shapes or {}),
        )
    return KernelOp(
        name=name, kind="modeled", analyze_fn=lambda s: None,
        effects=effects, access=access,
    )


class _Graph:
    def __init__(self, n, m):
        self.num_vertices = n
        self.num_edges = m


class _Workload:
    def __init__(self, n=8, m=20, f=4):
        self.graph = _Graph(n, m)
        self.feat_dim = f


# ----------------------------------------------------------------------
# one producing fixture per registered code
# ----------------------------------------------------------------------
def _haz001():
    return hazard_findings(_plan([_op("bare", None)]))


def _haz002():
    racy = KernelEffects(
        buffers=(BufferEffect("out", "write", exclusive=False),),
        launch=ENV,
    )
    return hazard_findings(_plan([_op("scatter", racy)]))


def _haz003():
    return hazard_findings(_plan([
        _op("reader", effect_table(reads=("tmp:never",), writes=("out",),
                                   launch=ENV)),
    ]))


def _haz004():
    return hazard_findings(_plan(
        [_op("drop", effect_table(writes=("out",), launch=ENV,
                                  reads_rng=True))],
        fingerprint="abc123",
    ))


def _res(env):
    return resource_findings(
        _plan([_op("k", effect_table(writes=("out",), launch=env))]), V100
    )


def _det001():
    return determinism_findings(_plan([
        _op("merge", effect_table(atomics=("out",), launch=ENV)),
    ]))


def _det002():
    return determinism_findings(_plan([
        _op("drop", effect_table(writes=("out",), launch=ENV,
                                 reads_rng=True)),
    ]))


def _acc001():
    # effects declared, no access table at all
    op = KernelOp(
        name="blind", kind="modeled", analyze_fn=lambda s: None,
        effects=effect_table(writes=("out",), launch=ENV), access=None,
    )
    return access_findings(_plan([op]))


def _acc002():
    access = KernelAccess(patterns=(
        gather("feat", via="indices"),
        lane_stream("out", role="write", row="flat"),
    ))
    op = _op("gatherer", effect_table(reads=("feat",), writes=("out",),
                                      launch=ENV), access=access)
    return access_findings(_plan([op]))


def _acc003():
    strided = AccessPattern(
        buffer="feat", role="read", row="unit",
        col=Affine(const=0, lane=4, iter=1), lanes=32,
    )
    access = KernelAccess(patterns=(
        strided, lane_stream("out", role="write", row="flat"),
    ))
    op = _op("strided", effect_table(reads=("feat",), writes=("out",),
                                     launch=ENV), access=access)
    return access_findings(_plan([op]))


def _acc004():
    scatter = AccessPattern(
        buffer="out", role="atomic", row="indirect", via="indices",
        col=Affine(const=0, lane=1, iter=0), lanes=32,
    )
    access = KernelAccess(patterns=(scatter,))
    op = _op("scatter", effect_table(atomics=("out",), launch=ENV),
             access=access)
    return access_findings(_plan([op]))


def _div001():
    access = KernelAccess(patterns=(
        gather("feat", via="indices", trips=("degree",), per="lane"),
        lane_stream("out", role="write", row="flat"),
    ))
    op = _op("degree_loop", effect_table(reads=("feat",), writes=("out",),
                                         launch=ENV), access=access)
    return access_findings(_plan([op]))


def _div002():
    tiled = AccessPattern(
        buffer="feat", role="read", row="unit",
        col=Affine(const=0, lane=1, iter=32), lanes=32,
        trips=("edge_tiles",), trips_per="unit",
    )
    access = KernelAccess(patterns=(
        tiled, lane_stream("out", role="write", row="flat"),
    ))
    op = _op("tiled", effect_table(reads=("feat",), writes=("out",),
                                   launch=ENV), access=access)
    return access_findings(_plan([op]))


def _oob001():
    access = KernelAccess(
        patterns=(
            lane_stream("out", role="write", row="flat", span=1000),
        ),
        shapes={"out": (10, 10)},  # 100 elements < span 1000
    )
    op = _op("runaway", effect_table(writes=("out",), launch=ENV),
             access=access)
    return access_findings(_plan([op]))


def _shape001():
    return shape_findings(_plan([
        _op("producer", effect_table(writes=("tmp:x",), launch=ENV),
            shapes={"tmp:x": (10, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (5, 1)}),
    ]))


def _shape002():
    ops = [
        KernelOp(
            name="wide", kind="modeled", analyze_fn=lambda s: None,
            effects=KernelEffects(
                buffers=(BufferEffect("tmp:x", "write", dtype="f32"),),
                launch=ENV,
            ),
        ),
        KernelOp(
            name="narrow", kind="modeled", analyze_fn=lambda s: None,
            effects=KernelEffects(
                buffers=(BufferEffect("tmp:x", "read", dtype="f16"),
                         BufferEffect("out", "write", dtype="f32")),
                launch=ENV,
            ),
        ),
    ]
    return shape_findings(_plan(ops))


def _shape003():
    return shape_findings(_plan([
        _op("producer", effect_table(writes=("tmp:x",), launch=ENV),
            shapes={"tmp:x": (10, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (20, 1)}),
    ]))


def _shape004():
    return shape_findings(_plan(
        [_op("conv", effect_table(reads=("feat",), writes=("out",),
                                  launch=ENV),
             shapes={"out": (8, 5)})],
        workload=_Workload(n=8, m=20, f=4),
    ))


def _live_plan():
    return _plan(
        [_op("conv", effect_table(reads=("feat",), writes=("out",),
                                  launch=ENV),
             shapes={"feat": (8, 4), "out": (8, 4)})],
        workload=_Workload(n=8, m=20, f=4),
    )


def _live001():
    return liveness_findings(_live_plan(), replace(V100, dram_bytes=100))


def _live002():
    return liveness_findings(_live_plan(), replace(V100, dram_bytes=300))


def _race_schedule(effects_a, effects_b, shared):
    def entry(name, effects, stream, label):
        return ScheduledPlan(
            _plan([_op(name, effects)]), stream=stream, label=label,
            shared=frozenset(shared),
        )

    return StreamSchedule(
        entries=(entry("a_op", effects_a, 0, "a"),
                 entry("b_op", effects_b, 1, "b")),
        num_streams=2,
    )


def _race001():
    eff = effect_table(writes=("shared_out", "out"), launch=ENV)
    return race_findings(_race_schedule(eff, eff, {"shared_out"}))


def _race002():
    return race_findings(_race_schedule(
        effect_table(reads=("stats",), writes=("out",), launch=ENV),
        effect_table(writes=("stats", "out2"), launch=ENV),
        {"stats"},
    ))


def _race003():
    eff = effect_table(atomics=("hist",), writes=("out",), launch=ENV)
    return race_findings(_race_schedule(eff, eff, {"hist"}))


class _VGraph:
    """Duck-typed graph for normalize_plan (content fingerprint only)."""

    def fingerprint(self):
        return "cafe" * 16


class _VWorkload:
    """Duck-typed ConvWorkload slice the normal form reads."""

    attention = None
    edge_weights = None
    self_coeff = None
    reduce = "sum"
    graph = _VGraph()
    X = [[0.0, 1.0], [2.0, 3.0]]


def _term(**overrides):
    base = dict(
        buffer="out", graph="g" * 64, feature="f" * 64,
        scale=("unit",), self_term=None, reduce="sum",
        output_perm=None, sources=("feat", "graph"),
        ordering=ORDER_EXACT,
    )
    base.update(overrides)
    return ProducerTerm(**base)


def _nf(term):
    return PlanNormalForm(label="X/m on g", terms=(term,))


def _eq001():
    # an op with no effect table obstructs the dataflow closure
    return normalize_plan(
        _plan([_op("bare", None)], workload=_VWorkload())
    ).findings


def _eq002():
    # same plan shape, different feature matrix -> diverging producer term
    return decide_equivalence(
        _nf(_term()), _nf(_term(feature="e" * 64))
    ).findings


def _eq003():
    # identical semantics, atomic float merge on one side only
    return decide_equivalence(
        _nf(_term()), _nf(_term(ordering=ORDER_FLOAT_SUM))
    ).findings


def _eq004():
    cert = EquivalenceCertificate(
        subject="X/m on g", reference="X/m on g",
        subject_digest="a" * 64, reference_digest="a" * 64,
        verdict="equal",
    ).as_dict()
    cert["verdict"] = "equivalent-unordered"  # hand-edit: address now lies
    return verify_certificate(cert)


FIXTURES = {
    "HAZ001": _haz001,
    "HAZ002": _haz002,
    "HAZ003": _haz003,
    "HAZ004": _haz004,
    "RES001": lambda: _res(LaunchEnvelope(threads_per_block=2048)),
    "RES002": lambda: _res(LaunchEnvelope(threads_per_block=128,
                                          regs_per_thread=300)),
    "RES003": lambda: _res(LaunchEnvelope(threads_per_block=128,
                                          shared_mem_per_block=200_000)),
    "RES004": lambda: _res(LaunchEnvelope(threads_per_block=1024,
                                          regs_per_thread=100)),
    "RES005": lambda: _res(LaunchEnvelope(threads_per_block=256,
                                          shared_mem_per_block=90_000)),
    "DET001": _det001,
    "DET002": _det002,
    "ACC001": _acc001,
    "ACC002": _acc002,
    "ACC003": _acc003,
    "ACC004": _acc004,
    "DIV001": _div001,
    "DIV002": _div002,
    "OOB001": _oob001,
    "SHAPE001": _shape001,
    "SHAPE002": _shape002,
    "SHAPE003": _shape003,
    "SHAPE004": _shape004,
    "LIVE001": _live001,
    "LIVE002": _live002,
    "RACE001": _race001,
    "RACE002": _race002,
    "RACE003": _race003,
    "EQ001": _eq001,
    "EQ002": _eq002,
    "EQ003": _eq003,
    "EQ004": _eq004,
}

CODES = sorted(RULES)


def test_every_code_has_a_fixture_and_vice_versa():
    assert set(FIXTURES) == set(RULES)


@pytest.mark.parametrize("code", CODES)
def test_code_documented_in_readme(code):
    text = README.read_text()
    assert f"`{code}`" in text, f"{code} missing from README tables"
    # the registry's doc anchor must resolve to a real README heading
    anchor = rule_info(code).anchor
    headings = {
        "".join(c for c in line.lstrip("#").strip().lower()
                if c.isalnum() or c in " -").replace(" ", "-")
        for line in text.splitlines() if line.startswith("#")
    }
    assert anchor in headings, f"anchor #{anchor} not a README heading"


@pytest.mark.parametrize("code", CODES)
def test_fixture_produces_the_code(code):
    findings = FIXTURES[code]()
    produced = {f.rule for f in findings}
    assert code in produced, f"fixture for {code} produced {produced or '{}'}"
    f = next(f for f in findings if f.rule == code)
    assert f.severity == RULES[code].severity


@pytest.mark.parametrize("code", CODES)
def test_code_round_trips_through_json_rows(code):
    findings = [f for f in FIXTURES[code]() if f.rule == code]
    rows = json.loads(json.dumps(finding_rows("fixture/plan", findings)))
    assert rows, f"no JSON rows for {code}"
    for row in rows:
        assert set(row) == {"plan", "code", "severity", "op", "buffer",
                            "message"}
        assert row["code"] == code
        assert row["severity"] == RULES[code].severity
        assert row["plan"] == "fixture/plan"


def test_lint_plan_report_is_json_serializable_end_to_end():
    plan = _plan([
        _op("producer", effect_table(writes=("tmp:x",), launch=ENV),
            shapes={"tmp:x": (10, 1)}),
        _op("consumer", effect_table(reads=("tmp:x",), writes=("out",),
                                     launch=ENV),
            shapes={"tmp:x": (20, 1)}),
    ])
    report = lint_plan(plan)
    rows = json.loads(json.dumps(
        finding_rows(report.plan_label, report.findings)
    ))
    assert any(r["code"] == "SHAPE003" for r in rows)
