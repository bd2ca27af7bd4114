"""The claim table and its validator: registry, selection, one regeneration
per experiment, error containment."""

from dataclasses import replace
from pathlib import Path

from repro.bench import (
    ALL_EXPERIMENTS, CLAIMS, BenchConfig, design_space, validate_claims,
)
from repro.bench.validate import ClaimResult

CFG = BenchConfig(max_edges=60_000, seed=7)
#: the scale of the session's ``claim_verdicts`` regeneration
CLAIMS_CFG = BenchConfig(max_edges=150_000, seed=7)


class TestRegistry:
    def test_seven_claims(self):
        # the validator's first seven claims keep their ids
        assert {
            "obs1-atomics", "obs2-coalescing", "obs3-fusion", "table5-wins",
            "level1-warp-mapping", "level2-feature-parallel", "table5-dashes",
        } <= set(CLAIMS)

    def test_every_claim_on_the_scorecard(self):
        text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
        scorecard = text.split("## Summary scorecard")[1].split("\n## ")[0]
        assert [cid for cid in CLAIMS if f"`{cid}`" not in scorecard] == []

    def test_every_regenerator_has_a_claim(self):
        read = {claim.regenerator for claim in CLAIMS.values()}
        assert {*ALL_EXPERIMENTS.values(), design_space} <= read

    def test_descriptions_nonempty(self):
        for claim in CLAIMS.values():
            assert claim.statement
            assert callable(claim.regenerator) and callable(claim.check)


class TestValidation:
    def test_selected_claim_passes(self):
        results = validate_claims(CFG, only=["level1-warp-mapping"])
        assert [r.claim_id for r in results] == ["level1-warp-mapping"]
        assert results[0].passed
        assert "warp" in results[0].detail

    def test_level_claims_pass(self, claim_verdicts):
        for cid in ("level1-warp-mapping", "level2-feature-parallel"):
            assert claim_verdicts[cid].passed, claim_verdicts[cid].detail

    def test_all_claims_hold(self, claim_verdicts):
        stated = [cid for cid, c in CLAIMS.items() if c.stated_at(CLAIMS_CFG)]
        assert list(claim_verdicts) == stated
        failed = [(v.claim_id, v.detail) for v in claim_verdicts.values()
                  if not v.passed]
        assert not failed

    def test_each_experiment_regenerates_once(self, monkeypatch):
        calls = []

        def regenerate(config):
            calls.append(config)
            return design_space(config)

        levels = ["level1-warp-mapping", "level2-feature-parallel"]
        for cid in levels:
            claim = replace(CLAIMS[cid], regenerator=regenerate)
            monkeypatch.setitem(CLAIMS, cid, claim)
        assert [r.claim_id for r in validate_claims(CFG, only=levels)] == levels
        assert calls == [CFG]

    def test_unknown_only_yields_empty(self):
        assert validate_claims(CFG, only=["nope"]) == []

    def test_errors_reported_not_raised(self, monkeypatch):
        def boom(_):
            raise RuntimeError("kaput")

        # a failing check, and a failing regeneration
        broken = {"obs1-atomics": "check", "obs2-coalescing": "regenerator"}
        for cid, part in broken.items():
            monkeypatch.setitem(CLAIMS, cid, replace(CLAIMS[cid], **{part: boom}))
        results = validate_claims(CFG, only=list(broken))
        assert [("kaput" in r.detail, r.passed) for r in results] == [(True, False)] * 2

    def test_result_shape(self):
        r = ClaimResult("x", "d", True, "ok")
        assert r.claim_id == "x" and r.passed
