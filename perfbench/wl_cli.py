"""`cli`: the README walkthrough, one `python -m ceq` process per op.

For each small seeded PCE instance (k = 2, n = 3..5, prime and extension
fields) the ops are gen, reduce, lift, verify, solve --stats, extract and
verify, run one after another in a temporary directory inside the
checkout. Interpreter start, `import ceq.cli`, the file formats and the
command layer dominate; the library layers do little. Every output file
must be byte-identical to what the same calls produce in-process, and
every command must exit with 0.

In a traced run each command runs under cli_child.py instead, which
records interpreter start, the import and the spans of the command.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from harness import SRC, Calibration, Op, cpu_clock, require

# (field flag, n, reduction target); k = 2 throughout
SPECS = (("3", 4, "lce"), ("2^2", 5, "spce"), ("5", 3, "lce"), ("3^2", 5, "spce"), ("7", 4, "spce"))
MAX_NODES = 200_000
TIMEOUT_S = 120
CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _reference_process() -> float:
    """CPU seconds of a bare interpreter start and exit."""
    c0 = cpu_clock()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=TIMEOUT_S)
    return cpu_clock() - c0


# ops here are mostly process start-up, which an in-process loop does not
# track, so they are scaled by a reference process instead
CALIBRATION = Calibration(_reference_process, reference_s=0.05, every_s=1.0)


def _field(ceq, flag):
    p, _, e = flag.partition("^")
    return ceq.field(int(p), int(e or 1))


def _expected(ceq, fld, n, target, seed):
    """The files each command must write, computed in-process."""
    fileio = importlib.import_module("ceq.fileio")
    got = ceq.generate(ceq.GenSpec(fld, 2, n, ceq.Tag.PCE, ceq.Planted.YES, seed))
    inst_txt = fileio.serialize_instance(got.instance)
    inst, _ = fileio.parse_instance(inst_txt)
    reduced, cert = ceq.reduce_instance(inst, ceq.Tag[target.upper()])
    lifted = ceq.lift_witness(cert, ceq.map_witness_to_normalized(cert.journal, got.witness))
    res = ceq.decide(reduced, ceq.Budget(max_nodes=MAX_NODES, mode=ceq.Mode.BACKTRACKING))
    require(res.status is ceq.Status.YES, "in-process solve of a planted YES did not answer YES")
    norm = cert.journal.normalized
    back = ceq.map_witness_to_original(cert.journal, ceq.extract_witness(cert, norm.G, norm.H, res.witness))
    return {
        "inst": inst_txt,
        "inst.wit": fileio.serialize_witness(fld, got.witness),
        "red": fileio.serialize_instance(reduced, cert.reject_reason),
        "cert": fileio.serialize_cert(cert),
        "lift.wit": fileio.serialize_witness(fld, lifted),
        "solve.wit": fileio.serialize_witness(fld, res.witness),
        "ext.wit": fileio.serialize_witness(fld, back),
    }


def setup(ceq, ctx):
    rng = random.Random(f"cli:{ctx.seed}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ops = []
    specs = SPECS[:2] if ctx.quick else SPECS
    for idx, (flag, n, target) in enumerate(specs):
        seed = rng.getrandbits(32)
        want = _expected(ceq, _field(ceq, flag), n, target, seed)
        f = {key: f"i{idx}.{key}" for key in want}
        f["stats"] = f"i{idx}.stats.csv"
        steps = (
            ("gen", ["--k", "2", "--n", str(n), "--field", flag, "--tag", "PCE", "--planted", "yes",
                     "--seed", str(seed), "--out", f["inst"], "--witness-out", f["inst.wit"]],
             ("inst", "inst.wit")),
            ("reduce", ["--in", f["inst"], "--target", target, "--out", f["red"], "--cert-out", f["cert"]],
             ("red", "cert")),
            ("lift", ["--cert", f["cert"], "--instance", f["inst"], "--witness", f["inst.wit"],
                      "--out", f["lift.wit"]],
             ("lift.wit",)),
            ("verify", ["--instance", f["red"], "--witness", f["lift.wit"]], ()),
            ("solve", ["--in", f["red"], "--mode", "backtracking", "--max-nodes", str(MAX_NODES),
                       "--witness-out", f["solve.wit"], "--stats", f["stats"]],
             ("solve.wit",)),
            ("extract", ["--cert", f["cert"], "--instance", f["inst"], "--witness", f["solve.wit"],
                         "--out", f["ext.wit"]],
             ("ext.wit",)),
            ("verify", ["--instance", f["inst"], "--witness", f["ext.wit"]], ()),
        )
        for cmd, args, outputs in steps:
            expect = {f[key]: want[key].encode("utf-8") for key in outputs}
            stale = list(f.values()) if cmd == "gen" else []
            ops.append(_command_op(ctx, env, cmd, args, expect, stale, f["stats"]))
    return ops


def _command_op(ctx, env, cmd, args, expect, stale, stats):
    work = ctx.workdir
    spans_file = work / "spans.json"

    def prepare():
        # a gen op starts its instance afresh, so no later op can pass on
        # a file left by an earlier pass
        for name in stale:
            (work / name).unlink(missing_ok=True)
        spans_file.unlink(missing_ok=True)

    def run(_):
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "ceq", cmd, *args]
        else:
            argv = [sys.executable, str(CHILD), str(spans_file), str(time.monotonic_ns()), cmd, *args]
        try:
            return subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None

    def check(_, proc):
        if ctx.tracer is not None and spans_file.exists():
            ctx.tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")))
        if proc is None or proc.returncode != 0:
            return False
        for name, data in expect.items():
            require((work / name).read_bytes() == data, f"{cmd} wrote {name} unlike the in-process result")
        if cmd == "verify":
            require(proc.stdout.startswith(b"verify: OK"), "verify exited 0 without reporting OK")
        if cmd == "solve":
            last = (work / stats).read_text(encoding="utf-8").splitlines()[-1].split(",")
            require(last[7] == "YES", f"solve --stats recorded {last[7]} for a planted YES")
        return True

    return Op(cmd, prepare, run, check)
