"""Shared machinery: locating and importing ceq, the closed op loop,
latency statistics and process facts."""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class WrongAnswer(Exception):
    """The program returned a wrong answer; the run is aborted."""


def require(cond: bool, what: str):
    if not cond:
        raise WrongAnswer(what)


def import_ceq():
    """Import ceq from the checkout's src/, dropping any copy already
    loaded so that every set-up pays the import again."""
    if not (SRC / "ceq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ceq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ceq" or n.startswith("ceq.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ceq = importlib.import_module("ceq")
    if Path(ceq.__file__).resolve().parent != (SRC / "ceq").resolve():
        raise ImportError(f"imported ceq from {ceq.__file__}, not from {SRC}")
    return ceq


@dataclass
class Context:
    """What a workload's set-up and ops may use besides ceq itself."""

    seed: int
    quick: bool
    workdir: Path
    tracer: Any = None


def make_workdir(workload: str) -> Path:
    """A temporary directory inside the checkout, removed by the caller."""
    path = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class Op:
    """One unit of user work.

    prepare() builds fresh inputs outside the op timer; run(inputs) is
    the timed call; check(inputs, result) raises WrongAnswer on a wrong
    answer and returns False when the op failed (e.g. ran out of budget).
    """

    kind: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children.

    Every op runs on one thread, or in one child process that it waits
    for, so on an idle machine this is its wall time. On a shared machine
    it leaves out the time the op sat descheduled behind other tenants,
    which is what makes wall time there vary by a factor of two.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop that calls nothing in ceq."""
    t0 = time.process_time()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.process_time() - t0


@dataclass(frozen=True)
class Calibration:
    """A fixed reference job run between ops, and the CPU seconds it takes
    on the reference machine (a quiet 2.0 GHz Xeon, CPython 3.11).

    On a shared host the speed a process gets changes by up to a factor
    of two for tens of seconds at a time (a neighbour on the same
    physical core, for one). The reference job slows down with it, so
    reference_s over its median time in a pass scales that pass's CPU
    times to the reference machine. every_s is how many CPU seconds of
    ops may pass between two runs of the job.
    """

    run: Callable[[], float] = _reference_loop
    reference_s: float = 0.008
    every_s: float = 0.25

    def factor(self, times) -> float:
        return self.reference_s / statistics.median(times)


LOOP = Calibration()


@dataclass
class Sample:
    kind: str
    seconds: float
    wall: float
    ok: bool


@dataclass
class Pass:
    samples: list
    factor: float


def run_pass(ops, cal: Calibration = LOOP, tracer=None) -> Pass:
    """Run every op once, in order, as a closed loop with one caller,
    running the calibration job between ops."""
    out = []
    cals = [cal.run()]
    since = 0.0
    wall = time.perf_counter
    for i, op in enumerate(ops):
        inputs = op.prepare()
        if tracer is not None:
            tracer.begin("op." + op.kind, i)
        w0, c0 = wall(), cpu_clock()
        result = op.run(inputs)
        c1, w1 = cpu_clock(), wall()
        if tracer is not None:
            tracer.end()
        ok = op.check(inputs, result)
        out.append(Sample(op.kind, c1 - c0, w1 - w0, ok))
        since += c1 - c0
        if since >= cal.every_s:
            cals.append(cal.run())
            since = 0.0
    cals.append(cal.run())
    return Pass(out, cal.factor(cals))


def run_timed(ops, seconds: float, cal: Calibration = LOOP):
    """Whole passes over ops until `seconds` of wall time have gone by.

    Stopping only at pass boundaries keeps the mix of ops, and so every
    count, identical between runs at one seed.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ops, cal))
        if time.perf_counter() - t0 >= seconds:
            return passes


def percentile(values, pct: int) -> float:
    """The pct-th percentile, inclusive method (pct in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def meta(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }
