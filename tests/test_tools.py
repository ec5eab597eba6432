"""Smoke tests of the scripts under tools/, run in-process."""

import importlib.util
import json
from pathlib import Path

from test_reduction import _long

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


def test_answers_roundtrip_quick_prints_its_keys(capsys):
    answers = _load("answers")
    assert answers.main(["--stratum", "roundtrip", "--quick", "--rows"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"roundtrip"}
    rt = out["roundtrip"]
    assert set(rt) == {"count", "rejected", "answers_sha256", "wall_s", "rows"}
    rows = rt["rows"]
    per_field = 2 + len(answers.ROUND_BUILT) + len(answers.ROUND_REJECTS)
    assert rt["count"] == len(rows) == len(answers.ROUND_FIELDS) * per_field
    # every field rejects once for each reason
    assert rt["rejected"] == dict.fromkeys(("ZeroColumnCountMismatch", "RankMismatch", "ProfileMismatch"),
                                           len(answers.ROUND_FIELDS))
    # a rejected pair has its cert and reduced pair, a YES pair adds the
    # normalized, lifted and returned witnesses
    kinds = {row[0] for row in rows}
    assert kinds == {"yes", "built", "reject"}
    for row in rows:
        texts = [x for x in row if isinstance(x, str) and x.startswith("%CEQ")]
        assert len(texts) == (2 if row[0] == "reject" else 5), row[:8]
    assert len(rt["answers_sha256"]) == 64
    again, _ = answers.roundtrip(quick=True)
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in rt.items() if not k.endswith("_s") and k != "rows"
    }


def test_roundtrip_corpus_answers_are_pinned():
    # the full `roundtrip` stratum, well under a second: every cert,
    # reduced pair and transported witness goes into the hash, so a
    # change to preprocessing, the gadget or the witness maps that moves
    # any byte of them fails here
    summary, _ = _load("answers").roundtrip()
    assert summary["count"] == 192
    assert summary["rejected"] == {"ZeroColumnCountMismatch": 16, "RankMismatch": 16, "ProfileMismatch": 16}
    assert summary["answers_sha256"] == "c2d851dfdac189bb7b03264a5dce193a286ced01c8f170b72a711df0cf5fb4ae"


def test_search_corpus_answers_are_pinned():
    # the full `search` stratum: every status, node count and witness of
    # its decides goes into the hash, so a search change that moves any
    # of them fails here
    summary, _ = _load("answers").search()
    assert summary["count"] == 2880
    assert summary["nodes"]["total"] == 232_136
    assert summary["unknown"] == 0
    assert summary["answers_sha256"] == "ca09e9af8890ad76d225d46c2eb99065903c73694a16691a949eede48e37b0bf"


@_long
def test_yes_probe_corpus_answers_are_pinned():
    # the full `yes-probe` stratum, about 7 s; its two UNKNOWNs are the
    # (2, 6, 12) pairs at seed 7, which stay past the node budget
    summary, _ = _load("answers").yes_probe()
    assert summary["count"] == 80
    assert summary["nodes"]["total"] == 1_116_472
    assert summary["unknown"] == 2
    assert summary["answers_sha256"] == "2f2a5c522401de8527de342985a079c8b08bc705e2bdacc8bf6d5d651525a531"
