"""The claim validator: registry, selection, error containment."""

from repro.bench import BenchConfig, CLAIMS, validate_claims
from repro.bench.validate import ClaimResult

CFG = BenchConfig(max_edges=60_000, seed=7)
#: the scale of tests/test_paper_claims.py; at 60k edges the 113-vertex RD
#: stand-in is too small for obs3-fusion and table5-wins
CLAIMS_CFG = BenchConfig(max_edges=150_000, seed=7)


class TestRegistry:
    def test_seven_claims(self):
        assert len(CLAIMS) == 7
        assert "obs1-atomics" in CLAIMS
        assert "table5-dashes" in CLAIMS

    def test_descriptions_nonempty(self):
        for desc, fn in CLAIMS.values():
            assert desc and callable(fn)


class TestValidation:
    def test_selected_claim_passes(self):
        results = validate_claims(CFG, only=["table5-dashes"])
        assert len(results) == 1
        assert results[0].passed
        assert "GNNAdvisor" in results[0].detail

    def test_level_claims_pass(self):
        results = validate_claims(
            CFG, only=["level1-warp-mapping", "level2-feature-parallel"]
        )
        assert all(r.passed for r in results)

    def test_all_claims_hold(self):
        results = validate_claims(CLAIMS_CFG)
        assert [r.claim_id for r in results] == list(CLAIMS)
        failed = [(r.claim_id, r.detail) for r in results if not r.passed]
        assert not failed

    def test_unknown_only_yields_empty(self):
        assert validate_claims(CFG, only=["nope"]) == []

    def test_errors_reported_not_raised(self, monkeypatch):
        import repro.bench.validate as v

        def boom(config):
            raise RuntimeError("kaput")

        monkeypatch.setitem(v.CLAIMS, "obs1-atomics", ("desc", boom))
        results = validate_claims(CFG, only=["obs1-atomics"])
        assert len(results) == 1
        assert not results[0].passed
        assert "kaput" in results[0].detail

    def test_result_shape(self):
        r = ClaimResult("x", "d", True, "ok")
        assert r.claim_id == "x" and r.passed
