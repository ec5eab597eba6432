"""Per-layer metrics: the field kernel probe and the aggregates of a
traced pass.

Every name is `<module>.<function>.<stat>`. Function aggregates count
spans of the traced pass over the ops, except `oracle.generate.*`, which
counts the traced set-up where the corpus is generated. A layer a
workload does not use reads 0 there.

Clocks: span figures (`self_s`, `cli.interp_start_ms`, `cli.import_ms`)
are wall time. The field probe is CPU time. `cli.cmd_p50_ms.*` and
`trace.overhead_frac` use the scaled CPU time of the end-to-end metrics.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

from tracing import Profile

# one field per family, split at the q = 256 flat-table cap
FAMILIES = {
    "p_small": (7, 1),
    "p_large": (65521, 1),
    "2e_small": (2, 8),
    "2e_large": (2, 16),
    "pe_small": (3, 5),
    "pe_large": (3, 6),
}
PROBE_OPS = 20_000
PROBE_REPEATS = 5
WARM_REPEATS = 3

MAT_FUNCS = ("ctor", "mul", "apply_mono", "rref", "rref_with_transform", "inv")
REDUCTION_FUNCS = ("reduce_instance", "build_gadget", "lift_witness", "extract_witness")
MODES = ("exhaustive", "backtracking")
SUBCOMMANDS = ("gen", "reduce", "lift", "verify", "solve", "extract")


def _ns_per_op(fn, *columns) -> float:
    best = []
    for _ in range(PROBE_REPEATS):
        t0 = time.process_time_ns()
        deque(map(fn, *columns), maxlen=0)
        best.append((time.process_time_ns() - t0) / len(columns[0]))
    return statistics.median(best)


def field_probe(ceq, quick: bool = False) -> dict:
    """ns per add/mul/inv on a fixed seeded operand sequence, and the
    seconds `warm()` takes on a fresh field, for each family."""
    Field = ceq.Field
    out = {}
    ops = PROBE_OPS // 10 if quick else PROBE_OPS
    for fam, (p, e) in FAMILIES.items():
        warm = []
        for _ in range(1 if quick else WARM_REPEATS):
            fld = Field(p, e)
            t0 = time.process_time()
            fld.warm()
            warm.append(time.process_time() - t0)
        rng = random.Random(f"field-probe:{p}^{e}")
        xs = [rng.randrange(fld.q) for _ in range(ops)]
        ys = [rng.randrange(fld.q) for _ in range(ops)]
        units = [rng.randrange(1, fld.q) for _ in range(ops)]
        out[f"field.add_ns.{fam}"] = (_ns_per_op(fld.add, xs, ys), "ns")
        out[f"field.mul_ns.{fam}"] = (_ns_per_op(fld.mul, xs, ys), "ns")
        out[f"field.inv_ns.{fam}"] = (_ns_per_op(fld.inv, units), "ns")
        out[f"field.warm_s.{fam}"] = (statistics.median(warm), "s")
    return out


def per_layer(spans, plain, traced, probe) -> dict:
    """All per-layer metrics for one traced run.

    plain and traced are the untraced and the traced pass over the same
    ops; their times are scaled by each pass's speed factor.
    """
    ops = Profile(spans, "op")
    setup = Profile(spans, "setup")
    m = dict(probe)

    for f in MAT_FUNCS:
        m[f"matrix.{f}.calls"] = (ops.count(f"matrix.{f}"), "count")
        m[f"matrix.{f}.self_s"] = (ops.self_s(f"matrix.{f}"), "s")
    hits = [h for f in ("rref", "rref_with_transform") for h in ops.notes.get(f"matrix.{f}", [])]
    m["matrix.rref.cache_hit_frac"] = (sum(hits) / len(hits) if hits else 0.0, "frac")
    m["matrix.inv.in_decide_s"] = (ops.under("matrix.inv", "oracle.decide"), "s")

    rejects = ops.notes.get("core.preprocess", [])
    m["core.preprocess.calls"] = (ops.count("core.preprocess"), "count")
    m["core.preprocess.self_s"] = (ops.self_s("core.preprocess"), "s")
    m["core.preprocess.reject_frac"] = (sum(rejects) / len(rejects) if rejects else 0.0, "frac")
    m["core.verify_witness.calls"] = (ops.count("core.verify_witness"), "count")
    m["core.verify_witness.self_s"] = (ops.self_s("core.verify_witness"), "s")
    maps = ("core.map_witness_to_normalized", "core.map_witness_to_original")
    m["core.map_witness.calls"] = (ops.count(*maps), "count")
    m["core.map_witness.self_s"] = (ops.self_s(*maps), "s")

    for f in REDUCTION_FUNCS:
        m[f"reduction.{f}.calls"] = (ops.count(f"reduction.{f}"), "count")
        m[f"reduction.{f}.self_s"] = (ops.self_s(f"reduction.{f}"), "s")
    sizes = [s for s in ops.notes.get("reduction.reduce_instance", []) if s is not None]
    n_in = sum(a for a, _ in sizes)
    m["reduction.blowup_cols"] = (sum(b for _, b in sizes) / n_in if n_in else 0.0, "ratio")

    decides = [s for s in ops.spans if s[2] == "oracle.decide" and s[7] is not None]
    for mode in MODES:
        mine = [s for s in decides if s[7][0] == mode]
        m[f"oracle.decide.calls.{mode}"] = (len(mine), "count")
        m[f"oracle.decide.self_s.{mode}"] = (ops.self_s_of(mine), "s")
        m[f"oracle.nodes.{mode}"] = (sum(s[7][2] for s in mine), "count")
    busy = sum(s[4] - s[3] for s in decides) / 1e9
    nodes = sum(s[7][2] for s in decides)
    m["oracle.nodes_per_s"] = (nodes / busy if busy else 0.0, "1/s")
    m["oracle.no_reached_search"] = (
        sum(1 for s in decides if s[7][0] == "backtracking" and s[7][1] == "NO" and s[7][2] > 0),
        "count",
    )
    m["oracle.generate.calls"] = (setup.count("oracle.generate"), "count")
    m["oracle.generate.self_s"] = (setup.self_s("oracle.generate"), "s")

    parses = ("fileio.parse_instance", "fileio.parse_witness", "fileio.parse_cert")
    serials = ("fileio.serialize_instance", "fileio.serialize_witness", "fileio.serialize_cert")
    m["fileio.parse.calls"] = (ops.count(*parses), "count")
    m["fileio.parse.self_s"] = (ops.self_s(*parses), "s")
    m["fileio.serialize.calls"] = (ops.count(*serials), "count")
    m["fileio.serialize.self_s"] = (ops.self_s(*serials), "s")
    m["fileio.bytes_read"] = (sum(b for p in parses for b in ops.notes.get(p, [])), "B")
    m["fileio.bytes_written"] = (sum(ops.notes.get("fileio.write_text", [])), "B")

    for name in ("interp_start", "import"):
        durations = [(s[4] - s[3]) / 1e6 for s in ops.spans if s[2] == f"cli.{name}"]
        m[f"cli.{name}_ms"] = (statistics.median(durations) if durations else 0.0, "ms")
    for cmd in SUBCOMMANDS:
        times = [s.seconds * plain.factor * 1000 for s in plain.samples if s.kind == cmd]
        m[f"cli.cmd_p50_ms.{cmd}"] = (statistics.median(times) if times else 0.0, "ms")

    plain_s = sum(s.seconds for s in plain.samples) * plain.factor
    traced_s = sum(s.seconds for s in traced.samples) * traced.factor
    m["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")
    return m
