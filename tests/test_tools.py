"""Smoke tests of the scripts under tools/, run in-process."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_yes_probe_quick_prints_its_keys(capsys):
    probe = _load("yes_probe")
    assert probe.main(["--quick", "--rows"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"runs", "max_nodes", "nodes", "unknown", "rows_sha256", "wall_s", "field_s", "rows"}
    assert out["runs"] == len(out["rows"]) == 2 * len(probe.SEEDS) * len(probe.TAGS)
    assert out["max_nodes"] == probe.QUICK_MAX_NODES
    assert out["nodes"]["total"] == out["nodes"]["LCE"] + out["nodes"]["SPCE"] == sum(r[-1] for r in out["rows"])
    assert out["unknown"] == sum(r[5] == "UNKNOWN" for r in out["rows"])
    assert len(out["rows_sha256"]) == 64
    assert set(out["field_s"]) == {"GF(2^2)", "GF(2^4)"}
    # the deterministic keys repeat; wall time lives only in *_s keys
    again, _ = probe.probe(quick=True)
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in out.items() if not k.endswith("_s") and k != "rows"
    }


def test_answers_quick_prints_its_keys(capsys):
    answers = _load("answers")
    assert answers.main(["--quick", "--rows"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"search"}
    search = out["search"]
    assert set(search) == {"count", "max_nodes", "nodes", "unknown", "answers_sha256", "wall_s", "rows"}
    rows = search["rows"]
    assert search["count"] == len(rows) > 0
    assert search["max_nodes"] == answers.MAX_NODES
    # each group is there, the raw and short-rank ones in both modes
    assert set(search["nodes"]) == {
        "gadget.backtracking", "raw.exhaustive", "raw.backtracking",
        "short_rank.exhaustive", "short_rank.backtracking", "total",
    }
    assert search["nodes"]["total"] == sum(v for k, v in search["nodes"].items() if k != "total")
    assert search["nodes"]["total"] == sum(r[-3] for r in rows)
    assert search["unknown"] == sum(r[-4] == "UNKNOWN" for r in rows)
    assert {r[-4] for r in rows} == {"YES", "NO"}
    assert all((r[-1] is None) == (r[-4] != "YES") for r in rows)
    assert len(search["answers_sha256"]) == 64
    # the deterministic keys repeat; wall time lives only in *_s keys
    again, _ = answers.search(quick=True)
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in search.items() if not k.endswith("_s") and k != "rows"
    }
