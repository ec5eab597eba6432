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


def test_answers_quick_prints_its_keys(capsys):
    answers = _load("answers")
    assert answers.main(["--stratum", "search", "--quick", "--rows"]) == 0
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


def test_answers_yes_probe_quick_prints_its_keys(capsys):
    answers = _load("answers")
    assert answers.main(["--stratum", "yes-probe", "--quick", "--rows"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"yes-probe"}
    probe = out["yes-probe"]
    assert set(probe) == {"count", "max_nodes", "nodes", "unknown", "answers_sha256", "wall_s", "field_s", "rows"}
    rows = probe["rows"]
    assert probe["count"] == len(rows) == 2 * len(answers.YES_SEEDS) * len(answers.YES_TAGS)
    assert probe["max_nodes"] == answers.YES_QUICK_MAX_NODES
    assert probe["nodes"]["total"] == probe["nodes"]["LCE"] + probe["nodes"]["SPCE"] == sum(r[-1] for r in rows)
    assert probe["unknown"] == sum(r[5] == "UNKNOWN" for r in rows)
    assert len(probe["answers_sha256"]) == 64
    assert set(probe["field_s"]) == {"GF(2^2)", "GF(2^4)"}
    # the deterministic keys repeat; wall time lives only in *_s keys
    again, _ = answers.yes_probe(quick=True)
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in probe.items() if not k.endswith("_s") and k != "rows"
    }
