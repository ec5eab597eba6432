"""Schema self-check of the benchmark; makes no timing assertions.

    python3 perfbench/selfcheck.py

Validates BENCHMARK.json, then runs every workload in --quick mode with
tracing off and on, and checks that each run exits 0 and that its last
line is the result object with exactly the metrics BENCHMARK.json names,
in their units. Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg: str):
    print(f"selfcheck: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec: dict):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            fail(f"bad workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"bad per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"bad metric entry {m}")
        names.append(m["name"])
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")


def check_run(spec: dict, workload: str, trace: int):
    cmd = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    for key in ("python", "nproc", "cpu", "commit", "seed", "counts"):
        if key not in meta:
            fail(f"{where}: meta lacks {key}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{where}: correct is {result['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"{where}: {key} is not a whole number")
    if result["attempted"] < 1:
        fail(f"{where}: nothing attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"{where}: missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        value = m["value"]
        if set(m) != {"value", "unit"} or m["unit"] != wanted[name]:
            fail(f"{where}: {name} is {m}, expected unit {wanted[name]}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} value {value!r} is not a finite number")
    print(f"selfcheck: {where}: ok ({len(got)} metrics)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
