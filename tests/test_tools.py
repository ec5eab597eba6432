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


def test_answers_fields_quick_prints_its_keys(capsys):
    answers = _load("answers")
    assert answers.main(["--stratum", "fields", "--quick", "--rows"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"fields"}
    fields = out["fields"]
    assert set(fields) == {"count", "answers_sha256", "wall_s", "build_s", "rows"}
    rows = fields["rows"]
    assert fields["count"] == len(rows) == len(answers.FIELD_QUICK)
    assert set(fields["build_s"]) == {"GF(2)", "GF(131)", "GF(2^2)", "GF(2^3)", "GF(3^2)", "GF(5^2)"}
    # [p, e, modulus, generator, three hashes]: GF(4) is F_2[x]/(x^2 + x + 1),
    # generated by x
    assert rows[2][:4] == [2, 2, [1, 1, 1], 2]
    assert all(len(row) == 7 and all(len(h) == 64 for h in row[4:]) for row in rows)
    assert fields["answers_sha256"] == "a8384ba6a9bcc7af73bb7c5970465eea527ea1db609f27e2b397a44a5ac7c741"
    again, _ = answers.fields(quick=True)
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in fields.items() if not k.endswith("_s") and k != "rows"
    }


def test_answers_cli_quick_prints_its_keys(capsys):
    answers = _load("answers")
    assert answers.main(["--stratum", "cli", "--quick", "--rows"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"cli"}
    cli = out["cli"]
    assert set(cli) == {"count", "exit_codes", "files", "answers_sha256", "wall_s", "rows"}
    rows = cli["rows"]
    # nine commands per walkthrough, then the rejected reduction, its lift
    # and its extract; each walkthrough leaves eight files, the stats CSV
    # and the rejected run five more
    assert cli["count"] == 9 * answers.CLI_QUICK + 3
    assert cli["files"] == 8 * answers.CLI_QUICK + 5 == len(rows) - cli["count"]
    assert cli["exit_codes"] == {"0": 8 * answers.CLI_QUICK + 1, "1": answers.CLI_QUICK + 2}
    assert cli["answers_sha256"] == "83f817cdfe737aab33e11bff06c0bd4636ad6e0512f0a2ad1c25a3288fe17efe"
    again, _ = answers.cli(quick=True)
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in cli.items() if not k.endswith("_s") and k != "rows"
    }


def test_cli_corpus_answers_are_pinned():
    # the full `cli` stratum, about 0.1 s: every exit code, message and
    # written byte of the README walkthrough over four fields
    summary, _ = _load("answers").cli()
    assert summary["count"] == 39
    assert summary["exit_codes"] == {"0": 33, "1": 6}
    assert summary["answers_sha256"] == "82a56f98e22813a8090a61e9246874a7d91ada22dc9fdb3491f1e934d81b67a6"


@_long
def test_fields_corpus_answers_are_pinned():
    # the full `fields` stratum, about 3 s: the modulus, the generator and
    # every product by it, inverse and negative of 93 extension fields and
    # 8 prime fields
    summary, _ = _load("answers").fields()
    assert summary["count"] == 101
    assert summary["answers_sha256"] == "aef94c07deb369b5f0908e0a820e6e49e4a4e3336937795ab34029cb40ba7908"


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
