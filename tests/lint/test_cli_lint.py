"""CLI coverage: ``repro lint`` (incl. --strict exit codes, --json,
--baseline, --write-baseline, --explain) and ``repro plan --lint``."""

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.frameworks.tlpgnn_engine import TLPGNNEngine
from repro.lint.effects import BufferEffect, KernelEffects, LaunchEnvelope

REPO_BASELINE = Path(__file__).parent.parent.parent / "lint-baseline.json"

ARGS = ["--max-edges", "60000"]

_BAD = KernelEffects(
    buffers=(BufferEffect("out", "write", exclusive=False),),
    launch=LaunchEnvelope(threads_per_block=128),
)


class _BrokenSystem(TLPGNNEngine):
    name = "Broken"

    def _lower(self, *args, **kwargs):
        plan = super()._lower(*args, **kwargs)
        plan.ops = [replace(op, effects=_BAD) for op in plan.ops]
        return plan


def _run(argv):
    out = io.StringIO()
    rc = cli.main([*ARGS, *argv], out=out)
    return rc, out.getvalue()


def test_lint_clean_cell_exits_zero():
    rc, text = _run(["lint", "--system", "TLPGNN",
                     "--model", "gcn", "--dataset", "CR", "--strict"])
    assert rc == 0
    assert "TLPGNN/gcn on CR: clean" in text
    assert "0 error(s)" in text


def test_lint_default_grid_reports_baseline_warnings():
    rc, text = _run(["lint", "--dataset", "CR"])
    assert rc == 0  # warnings never fail the run, even under --strict
    assert "DET001" in text
    assert "spmm_coo_atomic" in text


def test_lint_strict_exits_one_on_misdeclared_kernel(monkeypatch):
    monkeypatch.setitem(cli.SYSTEMS, "Broken", _BrokenSystem)
    rc, text = _run(["lint", "--system", "Broken",
                     "--model", "gcn", "--dataset", "CR", "--strict"])
    assert rc == 1
    assert "HAZ002" in text


def test_lint_without_strict_reports_but_exits_zero(monkeypatch):
    monkeypatch.setitem(cli.SYSTEMS, "Broken", _BrokenSystem)
    rc, text = _run(["lint", "--system", "Broken",
                     "--model", "gcn", "--dataset", "CR"])
    assert rc == 0
    assert "HAZ002" in text


def test_lint_marks_unsupported_cells_as_dashes():
    rc, text = _run(["lint", "--system", "GNNAdvisor",
                     "--model", "gat", "--dataset", "CR", "--strict"])
    assert rc == 0
    assert "GNNAdvisor/gat on CR: - (UnsupportedModelError)" in text


def test_plan_lint_flag_appends_report():
    rc, text = _run(["plan", "CR", "gcn", "--system", "TLPGNN", "--lint"])
    assert rc == 0
    assert "lint: TLPGNN/gcn on CR: clean" in text
    # effect summaries ride along in describe() (GCN streams its norm
    # weights as edge_vals)
    assert "reads indptr,indices,feat,edge_vals -> writes out" in text


def test_plan_without_lint_flag_omits_report():
    rc, text = _run(["plan", "CR", "gcn", "--system", "TLPGNN"])
    assert rc == 0
    assert "lint:" not in text


@pytest.mark.parametrize("argv", [["lint", "--system", "Nope"]])
def test_lint_rejects_unknown_system(argv):
    with pytest.raises(SystemExit):
        _run(argv)


# ----------------------------------------------------------------------
# --json
# ----------------------------------------------------------------------
def test_lint_json_emits_stable_array():
    rc, text = _run(["lint", "--json", "--system", "DGL",
                     "--model", "gat", "--dataset", "CR"])
    assert rc == 0
    rows = json.loads(text)  # the output is the array, nothing else
    assert rows
    assert all(
        set(r) == {"plan", "code", "severity", "op", "buffer", "message"}
        for r in rows
    )
    assert any(
        r["code"] == "ACC004" and r["op"] == "spmm_coo_atomic" for r in rows
    )


def test_lint_json_clean_cell_is_empty_array():
    rc, text = _run(["lint", "--json", "--system", "TLPGNN",
                     "--model", "gcn", "--dataset", "CR"])
    assert rc == 0
    assert json.loads(text) == []


# ----------------------------------------------------------------------
# --baseline / --write-baseline
# ----------------------------------------------------------------------
def test_lint_baseline_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    rc, _ = _run(["lint", "--system", "DGL", "--model", "gat",
                  "--dataset", "CR", "--write-baseline", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["version"] == 1 and data["findings"]
    assert set(data["findings"][0]) == {"plan", "code", "op", "buffer"}
    # a freshly written baseline suppresses every finding, even in strict
    rc, text = _run(["lint", "--system", "DGL", "--model", "gat",
                     "--dataset", "CR", "--strict", "--baseline", str(path)])
    assert rc == 0
    assert "suppressed by baseline" in text
    assert "0 error(s), 0 warning(s)" in text


def test_lint_strict_with_baseline_fails_on_unbaselined_findings(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"version": 1, "findings": []}\n')
    # relative to the empty baseline every warning is *new*: strict fails
    rc, text = _run(["lint", "--system", "DGL", "--model", "gat",
                     "--dataset", "CR", "--strict", "--baseline", str(path)])
    assert rc == 1
    assert "ACC004" in text


def test_lint_missing_baseline_file_is_a_usage_error(tmp_path):
    rc, _ = _run(["lint", "--baseline", str(tmp_path / "nope.json"),
                  "--system", "TLPGNN", "--model", "gcn", "--dataset", "CR"])
    assert rc == 2


def test_repo_baseline_covers_the_default_grid():
    """The committed lint-baseline.json suppresses the whole grid (the CI
    contract: strict + baseline over every cell yields an empty array)."""
    rc, text = _run(["lint", "--strict", "--json",
                     "--baseline", str(REPO_BASELINE)])
    assert rc == 0
    assert json.loads(text) == []


# ----------------------------------------------------------------------
# --explain
# ----------------------------------------------------------------------
def test_lint_explain_known_code():
    rc, text = _run(["lint", "--explain", "acc002"])  # case-insensitive
    assert rc == 0
    assert text.startswith("ACC002 [warning]")
    assert "README.md#access-patterns-accdivoob" in text


def test_lint_explain_unknown_code():
    rc, text = _run(["lint", "--explain", "XYZ999"])
    assert rc == 2
    assert "unknown finding code" in text


def test_lint_explain_typo_suggests_nearest_code():
    rc, text = _run(["lint", "--explain", "SHAPE01"])
    assert rc == 2
    assert "did you mean SHAPE001?" in text


# ----------------------------------------------------------------------
# stale suppressions / --prune-baseline
# ----------------------------------------------------------------------
def _stale_entry():
    return {"plan": "TLPGNN/gcn on CR", "code": "DET001",
            "op": "ghost_kernel", "buffer": "tmp:ghost"}


def test_lint_reports_stale_suppressions(tmp_path):
    path = tmp_path / "baseline.json"
    rc, _ = _run(["lint", "--system", "DGL", "--model", "gat",
                  "--dataset", "CR", "--write-baseline", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    data["findings"].append(_stale_entry())
    path.write_text(json.dumps(data))
    rc, text = _run(["lint", "--system", "DGL", "--model", "gat",
                     "--dataset", "CR", "--baseline", str(path)])
    assert rc == 0
    assert "1 stale suppression(s)" in text
    assert "--prune-baseline" in text


def test_lint_prune_baseline_drops_stale_entries(tmp_path):
    path = tmp_path / "baseline.json"
    rc, _ = _run(["lint", "--system", "DGL", "--model", "gat",
                  "--dataset", "CR", "--write-baseline", str(path)])
    assert rc == 0
    before = json.loads(path.read_text())
    data = {"version": 1,
            "findings": [*before["findings"], _stale_entry()]}
    path.write_text(json.dumps(data))
    rc, text = _run(["lint", "--system", "DGL", "--model", "gat",
                     "--dataset", "CR", "--baseline", str(path),
                     "--prune-baseline"])
    assert rc == 0
    assert "pruned 1 stale suppression(s)" in text
    after = json.loads(path.read_text())
    assert after == before  # back to exactly the live entries


def test_repo_baseline_has_no_stale_suppressions():
    rc, text = _run(["lint", "--baseline", str(REPO_BASELINE)])
    assert rc == 0
    assert "stale suppression" not in text


# ----------------------------------------------------------------------
# serve --lint preflight
# ----------------------------------------------------------------------
def test_serve_lint_preflight_accepts_tlpgnn():
    rc, text = _run(["serve", "--dataset", "CR", "--model", "gcn",
                     "--lint", "--requests", "4"])
    assert rc == 0
    assert "serve preflight: ok" in text
