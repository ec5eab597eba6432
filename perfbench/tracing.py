"""Span tracing of ceq from outside the package.

`Tracer.install` replaces every public function of the traced ceq modules
at every module attribute that binds it (``ceq.reduction.preprocess`` is
the same function object as ``ceq.core.preprocess``, so both are
wrapped), and wraps the heavy `Mat` methods on the class. Nothing in
``src/`` is edited; `uninstall` puts the original objects back.

A span is ``(id, parent_id, name, t0_ns, t1_ns, op_id, scope, note)``.
Spans are kept in memory while the benchmark runs and written out when
it ends. A span's self time is its duration minus the durations of its
direct children; calls are strictly nested because everything runs on
one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types

TRACED_MODULES = ("field", "matrix", "core", "reduction", "oracle", "fileio", "cli")
MAT_METHODS = ("__init__", "mul", "apply_mono", "rref", "rref_with_transform", "inv")
# Mat memoizes its eliminations in these slots; a call that finds one set
# is a cache hit
MAT_CACHE_SLOTS = {"rref": "_rref", "rref_with_transform": "_rref_t"}


def _notes():
    """Per-function hooks that attach a small fact to a span:
    (args, kwargs, result) -> value."""
    core = sys.modules["ceq.core"]

    def decide(a, kw, res):
        budget = a[1] if len(a) > 1 else kw.get("budget")
        mode = budget.mode.value if budget is not None else "exhaustive"
        return (mode, res.status.value, res.nodes)

    def preprocess(a, kw, res):
        return isinstance(res, core.Rejection)

    def reduce_instance(a, kw, res):
        reduced, cert = res
        return None if cert.rejected or cert.degenerate else (a[0].n, reduced.n)

    def parsed_bytes(a, kw, res):
        return len(a[0].encode("utf-8"))

    def written_bytes(a, kw, res):
        return len(a[1].encode("utf-8"))

    return {
        "oracle.decide": decide,
        "core.preprocess": preprocess,
        "reduction.reduce_instance": reduce_instance,
        "fileio.parse_instance": parsed_bytes,
        "fileio.parse_witness": parsed_bytes,
        "fileio.parse_cert": parsed_bytes,
        "fileio.write_text": written_bytes,
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.on = False
        self.scope = "op"
        self.op_id = 0
        self._next = 1
        self._stack = [0]
        self._saved = []
        self._root = None
        self.last_root = 0

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, note=None, pre=None):
        tr = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            sid = tr._next
            tr._next = sid + 1
            stack = tr._stack
            parent = stack[-1]
            stack.append(sid)
            info = pre(args) if pre is not None else None
            done = False
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                done = True
                return res
            finally:
                t1 = clock()
                stack.pop()
                if done and note is not None:
                    info = note(args, kwargs, res)
                tr.spans.append((sid, parent, name, t0, t1, tr.op_id, tr.scope, info))

        return traced

    def begin(self, name: str, op_id: int):
        """Open a root span for one op (or one set-up) and start recording."""
        self.op_id = op_id
        self._root = (self._next, name, time.perf_counter_ns())
        self._next += 1
        self._stack = [self._root[0]]
        self.on = True

    def end(self):
        t1 = time.perf_counter_ns()
        self.on = False
        sid, name, t0 = self._root
        self.spans.append((sid, 0, name, t0, t1, self.op_id, self.scope, None))
        self._stack = [0]
        self.last_root = sid

    def record(self, name: str, t0_ns: int, t1_ns: int):
        """Add a top-level span measured by other means."""
        self.spans.append((self._next, 0, name, t0_ns, t1_ns, self.op_id, self.scope, None))
        self._next += 1

    def adopt(self, child_spans):
        """Merge spans recorded by another process under the last root span."""
        remap = {0: self.last_root}
        for s in child_spans:
            remap[s[0]] = self._next
            self._next += 1
        for sid, par, name, t0, t1, _op, _scope, info in child_spans:
            self.spans.append((remap[sid], remap[par], name, t0, t1, self.op_id, self.scope, info))

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap public functions and Mat methods of the imported ceq."""
        mods = {
            name: sys.modules[f"ceq.{name}"]
            for name in TRACED_MODULES
            if f"ceq.{name}" in sys.modules
        }
        notes = _notes()
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, notes.get(name))
        bound = [sys.modules["ceq"], *mods.values()]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        mat = sys.modules["ceq.matrix"].Mat
        for meth in MAT_METHODS:
            fn = mat.__dict__[meth]
            label = "ctor" if meth == "__init__" else meth
            slot = MAT_CACHE_SLOTS.get(meth)
            pre = functools.partial(_cache_hit, slot) if slot else None
            self._saved.append((mat, meth, fn))
            setattr(mat, meth, self._wrap(fn, f"matrix.{label}", pre=pre))
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    ["id", "parent", "name", "t0_ns", "t1_ns", "op", "scope", "note"]
                )
                + "\n"
            )
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _cache_hit(slot, args):
    return getattr(args[0], slot) is not None


class Profile:
    """Per-function aggregates over a set of spans."""

    def __init__(self, spans, scope: str):
        self.spans = [s for s in spans if s[6] == scope]
        child = {}
        for s in self.spans:
            child[s[1]] = child.get(s[1], 0) + (s[4] - s[3])
        self.calls = {}
        self.self_ns = {}
        self.own_ns = {}
        self.notes = {}
        for s in self.spans:
            name = s[2]
            own = (s[4] - s[3]) - child.get(s[0], 0)
            self.own_ns[s[0]] = own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if s[7] is not None:
                self.notes.setdefault(name, []).append(s[7])

    def count(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def self_s(self, *names) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def self_s_of(self, spans) -> float:
        return sum(self.own_ns[s[0]] for s in spans) / 1e9

    def under(self, name: str, ancestor: str) -> float:
        """Seconds spent in spans called `name` (children included) that
        run beneath a span called `ancestor`."""
        by_id = {s[0]: s for s in self.spans}
        total = 0
        for s in self.spans:
            if s[2] != name:
                continue
            p = by_id.get(s[1])
            while p is not None and p[2] != ancestor:
                p = by_id.get(p[1])
            if p is not None:
                total += s[4] - s[3]
        return total / 1e9
