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
