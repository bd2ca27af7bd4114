"""End-to-end service: offline parity, batching amortization, obs wiring."""

import dataclasses

import numpy as np
import pytest

from repro.bench import BenchConfig, get_dataset, make_features, run_system
from repro.frameworks import SYSTEMS
from repro.frameworks.base import UnsupportedModelError
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    InferenceService,
    Request,
    ServableModel,
    ServeConfig,
    serve_trace,
)

CONFIG = BenchConfig(feat_dim=16, max_edges=60_000, seed=7)


def servable(system_name, model="gcn", abbr="CS"):
    dataset = get_dataset(abbr, CONFIG)
    return ServableModel(
        SYSTEMS[system_name](), model, dataset,
        feat_dim=CONFIG.feat_dim, spec=CONFIG.spec_for(dataset),
        seed=CONFIG.seed,
    )


class TestOfflineParity:
    """ISSUE 2 acceptance: streams=1, batch=1 ⇒ per-request latency equals
    the offline run_system runtime within 1%."""

    @pytest.mark.parametrize("system_name", ["TLPGNN", "DGL", "GNNAdvisor"])
    def test_uncontended_latency_matches_run_system(self, system_name):
        model = servable(system_name)
        # run_system reference on the identical cell (same features: the
        # adapter mirrors make_features)
        dataset = get_dataset("CS", CONFIG)
        X = make_features(
            dataset.graph.num_vertices, CONFIG.feat_dim, seed=CONFIG.seed
        )
        np.testing.assert_array_equal(model.X, X)
        reference = run_system(
            SYSTEMS[system_name](), "gcn", dataset, CONFIG, X=X
        ).report.timing.runtime_seconds
        # rate low enough that requests never overlap
        cfg = ServeConfig(
            rate_hz=0.01 / reference, num_requests=10, max_batch=1,
            window_s=0.0, num_streams=1, queue_depth=64, seed=3,
        )
        report = serve_trace(model, cfg)
        assert report.completed == 10
        latencies_s = report.accountant.latencies_ms() / 1e3
        np.testing.assert_allclose(latencies_s, reference, rtol=0.01)
        assert report.offline_runtime_ms == pytest.approx(reference * 1e3)

    def test_parity_is_exact_not_just_within_tolerance(self):
        model = servable("TLPGNN")
        reference = model.offline_runtime_s
        cfg = ServeConfig(
            rate_hz=0.01 / reference, num_requests=5, max_batch=1,
            window_s=0.0, num_streams=1, seed=3,
        )
        report = serve_trace(model, cfg)
        latencies_s = report.accountant.latencies_ms() / 1e3
        np.testing.assert_allclose(latencies_s, reference, rtol=1e-9)


class TestBatching:
    def test_batching_amortizes_launch_overhead(self):
        # DGL pays six launches + dispatch per batch; batching 4 requests
        # into one pipeline must beat 4 separate pipelines on throughput.
        model = servable("DGL")
        rate = 2.0 / model.offline_runtime_s  # overload for batch=1
        common = dict(
            rate_hz=rate, num_requests=60, num_streams=1,
            queue_depth=1_000, seed=5,
        )
        unbatched = serve_trace(
            model, ServeConfig(max_batch=1, window_s=0.0, **common)
        )
        batched = serve_trace(
            model, ServeConfig(max_batch=8, window_s=1e-3, **common)
        )
        assert batched.avg_batch > 1.5
        assert batched.throughput_rps > unbatched.throughput_rps
        assert batched.makespan_s < unbatched.makespan_s

    def test_targets_job_runs_subgraph(self):
        model = servable("TLPGNN")
        cfg = ServeConfig(
            job="targets", targets_per_request=8,
            rate_hz=0.2 / model.offline_runtime_s, num_requests=12,
            max_batch=4, window_s=1e-4, num_streams=2, seed=11,
        )
        report = serve_trace(model, cfg)
        assert report.completed == 12
        # a handful of target rows needs less device time than the full graph
        requests = cfg.trace(model.graph.num_vertices)
        plan = model.plan(requests[:4])
        full_gpu = model.offline_timing.gpu_seconds
        assert sum(k.alone_seconds for k in plan) < full_gpu

    @pytest.mark.parametrize("targets", [(-3, 5), (-1,), (2700,)])
    def test_out_of_range_target_rejected(self, targets):
        # a negative id used to index indptr from the end: (-3, 5) was
        # costed over the in-edges of vertex n-2 with the features of n-3
        model = servable("TLPGNN", abbr="CR")
        assert model.graph.num_vertices == 2700
        request = Request(rid=0, arrival_s=0.0, job="targets", targets=targets)
        with pytest.raises(ValueError, match=rf"target ids \[{targets[0]}\]"):
            model.plan([request])

    def test_out_of_range_request_refused_and_the_rest_served(self):
        # one bad request used to raise out of run() and lose the whole trace
        model = servable("TLPGNN", abbr="CR")
        cfg = ServeConfig(
            job="targets", rate_hz=0.2 / model.offline_runtime_s,
            num_requests=20, max_batch=4, window_s=1e-4, seed=11,
        )
        requests = cfg.trace(model.graph.num_vertices)
        requests[7] = dataclasses.replace(requests[7], targets=(5, 2700))
        report = InferenceService(model, cfg).run(requests)
        assert not model.can_serve(requests[7])
        assert (report.arrived, report.refused, report.shed) == (20, 1, 0)
        assert report.admitted == report.completed == 19
        served = {rec.request.rid for rec in report.accountant.records}
        assert requests[7].rid not in served and len(served) == 19
        assert "refused    : 1 request(s)" in report.summary()
        registry = MetricsRegistry()
        report.publish(registry)
        refused = next(
            rec for rec in registry.snapshot()
            if rec["name"] == "serve_requests_refused"
        )
        assert refused["value"] == 1

    def test_two_streams_help_under_load(self):
        model = servable("TLPGNN")
        rate = 3.0 / model.offline_runtime_s
        common = dict(
            rate_hz=rate, num_requests=80, max_batch=1, window_s=0.0,
            queue_depth=1_000, seed=2,
        )
        one = serve_trace(model, ServeConfig(num_streams=1, **common))
        two = serve_trace(
            model, ServeConfig(num_streams=2, max_concurrent=2, **common)
        )
        assert two.p99_ms <= one.p99_ms

    def test_unsupported_model_raises_at_construction(self):
        dataset = get_dataset("CS", CONFIG)
        with pytest.raises(UnsupportedModelError):
            ServableModel(SYSTEMS["GNNAdvisor"](), "gat", dataset)


class TestObsWiring:
    def test_report_publishes_metrics(self):
        model = servable("TLPGNN")
        cfg = ServeConfig(
            rate_hz=0.3 / model.offline_runtime_s, num_requests=20, seed=1
        )
        report = serve_trace(model, cfg)
        registry = MetricsRegistry()
        report.publish(registry, system="TLPGNN", dataset="CS")
        names = {rec["name"] for rec in registry.snapshot()}
        assert {
            "serve_requests_arrived", "serve_requests_completed",
            "serve_requests_shed", "serve_latency_p99_ms",
            "serve_throughput_rps",
        } <= names
        arrived = next(
            rec for rec in registry.snapshot()
            if rec["name"] == "serve_requests_arrived"
        )
        assert arrived["value"] == 20
        assert arrived["labels"]["system"] == "TLPGNN"

    def test_publish_without_registry_is_noop(self):
        model = servable("TLPGNN")
        cfg = ServeConfig(
            rate_hz=0.3 / model.offline_runtime_s, num_requests=5, seed=1
        )
        serve_trace(model, cfg).publish()  # no installed registry: no-op
