import ast
import subprocess
import sys
from pathlib import Path

import pytest

import ceq

from helpers import src_env

SOURCES = sorted(Path(ceq.__file__).parent.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"field.py", "matrix.py", "oracle.py", "reduction.py"}


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may live in one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_UNDER_O = """
import sys
from pathlib import Path
from ceq import fileio
from ceq.core import Tag, Witness, map_witness_to_normalized, verify_witness
from ceq.errors import FormatError, StructureViolation, WitnessInvalid
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm
from ceq.oracle import GenSpec, Planted, generate
from ceq.reduction import extract_witness, lift_witness, reduce_instance


def fail(what):
    raise SystemExit("under -O: " + what)


if sys.flags.optimize != 1:
    fail("assertions are on")
work = Path(sys.argv[1])
# the README walkthrough's pair: gen, reduce to LCE, lift, verify
fld = field(2)
got = generate(GenSpec(fld, 2, 3, Tag.PCE, Planted.YES, 1))
reduced, cert = reduce_instance(got.instance, Tag.LCE)
lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, got.witness))
fileio.write_text(work / "lifted.wit", fileio.serialize_witness(fld, lifted))
_, lifted = fileio.read_witness(work / "lifted.wit")
if not verify_witness(reduced, lifted):
    fail("the lifted witness does not verify")
norm = cert.journal.normalized
rows = [list(r) for r in lifted.S.rows]
rows[0][0] ^= 1
sigma = list(lifted.M.perm.sigma)
sigma[0], sigma[-1] = sigma[-1], sigma[0]
tampered = (
    Witness(Mat(fld, rows), lifted.M),
    Witness(lifted.S, Mono(fld, Perm(sigma), (1,) * len(sigma))),
)
for w in tampered:
    if verify_witness(reduced, w):
        fail("a tampered witness verifies")
    try:
        extract_witness(cert, norm.G, norm.H, w)
    except (StructureViolation, WitnessInvalid):
        pass
    else:
        fail("a tampered witness was extracted")
text = fileio.serialize_witness(fld, lifted)
perm = next(line for line in text.splitlines() if line.startswith("perm "))
for bad in (text.replace(perm, "perm" + " 1" * lifted.M.n), text.replace("S 3 3", "S 3 3 3")):
    (work / "bad.wit").write_text(bad)
    try:
        fileio.read_witness(work / "bad.wit")
    except FormatError:
        pass
    else:
        fail("a malformed witness file was read")
print("ok")
"""


def test_checks_hold_under_python_O(tmp_path):
    # python -O strips assert statements: verification, extraction's
    # structure checks and the parser must still reject bad input
    env = src_env()
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "ok", "")


def test_boundary_modules_use_the_validating_constructor():
    # fileio and cli read untrusted rows and actions; Mat._of and
    # Record._of (as Perm._of, Mono._of, ...) skip every check
    boundary = [p for p in SOURCES if p.name in ("fileio.py", "cli.py")]
    assert len(boundary) == 2
    found = [
        f"{path.name}:{node.lineno}"
        for path in boundary
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_of"
    ]
    assert found == []


def test_only_the_record_module_sets_record_fields():
    # a Record subclass validates and then calls Record.__init__, and
    # Record._of calls it too, so record.py holds the one field setter
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert found and all(f.startswith("record.py:") for f in found)


def _names_outside(owner, names):
    """"module:line name" for every attribute access, and every string
    constant such as a getattr argument, that names one of names in a
    package module other than owner."""
    others = [p for p in SOURCES if p.name != owner]
    assert len(others) == len(SOURCES) - 1
    found = []
    for path in others:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_the_field_module_reads_field_tables():
    # the table layout is private to field.py, and the constructor builds
    # every table; other modules go through the bound element and row
    # kernels and never ask for tables to be built
    private = {
        "_exp", "_log", "_zech", "_add_flat", "_sub_flat", "_mul_flat", "_neg_list", "_inv_list",
        "_mul_bytes", "_add_rows", "_mul_rows", "warm", "flat_ops",
    }
    assert _names_outside("field.py", private) == []


def test_only_the_core_module_reads_a_fields_scalars():
    # a tag's allowed diagonal entries are defined once, by core.scalars;
    # every other module asks it instead of reading the field's signs or
    # units itself
    assert _names_outside("core.py", {"signs", "units"}) == []


def test_every_public_field_slot_is_read_outside_the_field_module():
    # a kernel or value the constructor binds but no other module reads
    # is dead weight that every field pays for
    from ceq.field import Field

    public = {name for name in Field.__slots__ if not name.startswith("_")}
    assert public >= {"add", "mul", "neg", "inv", "axpy", "scale", "matmul", "p", "e", "q"}
    read = {
        node.attr
        for path in SOURCES
        if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(public - read) == []


def test_backtracker_state_is_read_outside_init():
    # an attribute that a search class's __init__ stores but nothing else
    # reads is a local kept alive for the whole search
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    classes = [node for node in trees["oracle.py"].body
               if isinstance(node, ast.ClassDef) and node.name in ("_Ticker", "_Echelon", "_Backtracker")]
    assert len(classes) == 3
    found = []
    for cls in classes:
        init = next(f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
        inside = {id(node) for node in ast.walk(init)}
        stored = {
            node.attr
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        assert stored
        read = {node.attr for node in loads if id(node) not in inside}
        found += [f"{cls.name}.{name}" for name in sorted(stored - read)]
    assert found == []


def test_only_the_matrix_module_touches_the_mat_memo():
    # other modules reach the memo through Mat.memo and the view methods
    assert _names_outside("matrix.py", {"_memo", "_rref", "_rref_t"}) == []


def test_only_the_matrix_module_records_a_column_view():
    # Mat.distinct_cols finds a view and Mat._expand records the view a
    # matrix is built from; no other module writes the memo key, so the
    # gadget's layout and the normalized matrices are spelled once
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "matrix.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value == "distinct_cols"
    ]
    assert found == []


def test_no_unused_imports_in_package():
    # a name imported but never read is a leftover of deleted code;
    # __init__.py imports to re-export
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_no_unreferenced_private_names():
    # a module-level _name that nothing in the package reads is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    assert found == []


# the benchmark's harness reads these from outside the package
READ_BY_THE_BENCHMARK = {"warm", "_rref", "_rref_t"}


def test_every_definition_is_read_or_exported():
    # a function, method or class that nothing in the package reads and
    # ceq.__all__ does not list is dead code; dunders are read implicitly
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    } - set(ceq.__all__)
    dead = sorted(unread - READ_BY_THE_BENCHMARK)
    assert dead == [], f"defined but never read: {', '.join(dead)}"
    # a name the package comes to read leaves the list
    assert READ_BY_THE_BENCHMARK <= unread


def test_no_private_imports_across_modules():
    # a module's _names are its own; one that another module needs is
    # part of its interface and drops the underscore
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert found == []


def _recursive_calls(path):
    """"module:line Owner.name" for every call in the module at path of the
    function it lies in: by the function's bare name, unless that name is
    rebound inside it, or as self.<its name>."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {id(f): f"{cls.name}." for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inside = list(ast.walk(fn))[1:]
        rebound = any(
            isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == fn.name
            or isinstance(node, ast.arg) and node.arg == fn.name
            or isinstance(node, defs) and node.name == fn.name
            or isinstance(node, ast.alias) and (node.asname or node.name) == fn.name
            for node in inside
        )
        for node in inside:
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name and not rebound) or (
                isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"
            ):
                found.append(f"{path.name}:{node.lineno} {owner.get(id(fn), '')}{fn.name}")
    return found


def test_no_function_calls_itself():
    # a search that recurses once per step ends a deep but valid input in
    # a RecursionError; each loop keeps its state on an explicit stack
    assert [f for path in SOURCES for f in _recursive_calls(path)] == []


def test_the_recursion_guard_sees_both_spellings(tmp_path):
    # `Mat.scale` reads a local `scale`, which is not a call of itself
    path = tmp_path / "m.py"
    path.write_text(
        "def walk(t):\n    return walk(t - 1)\n"
        "def shadowed(x):\n    shadowed = len\n    return shadowed(x)\n"
        "class C:\n"
        "    def visit(self, t):\n        return self.visit(t)\n"
        "    def scale(self, a):\n        scale = abs\n        return scale(a)\n"
    )
    assert _recursive_calls(path) == ["m.py:2 walk", "m.py:8 C.visit"]


# both cost every CLI command several ms of import time; see record.py
SLOW_IMPORTS = {"dataclasses", "inspect"}


def _absolute_imports_of(top_level):
    """"module:line name" for every absolute import in the package, at any
    depth, of a module whose top-level package is in top_level."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in top_level]
    return found


def test_no_slow_stdlib_imports_in_package():
    assert _absolute_imports_of(SLOW_IMPORTS) == []


def test_no_process_pools_in_package():
    # decide runs one serial search; no module starts worker processes
    assert _absolute_imports_of({"concurrent", "multiprocessing"}) == []


def test_cli_import_loads_no_slow_stdlib_modules():
    # compared with a bare interpreter in the same environment, whose
    # site hooks may load modules of their own
    env = src_env()

    def modules(code):
        proc = subprocess.run([sys.executable, "-c", code + "import sys; print(' '.join(sys.modules))"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        return set(proc.stdout.split())

    bare = modules("")
    loaded = modules("import ceq.cli; ")
    assert "ceq.cli" in loaded
    assert (loaded - bare) & SLOW_IMPORTS == set()


def test_readme_pipeline_work_counts(monkeypatch):
    # the README walkthrough's pair, and a pair with repeated columns,
    # carried through reduce, lift and extract in-process; the counts are
    # deterministic, so a change that brings back an inverse, a product or
    # a per-witness row reduction shows here, while one that saves an
    # elimination or a product still passes. The two eliminations are
    # preprocessing's RREFs of G and H, each over the d distinct non-zero
    # columns and the k columns of the transform, not over all n; every
    # rank after them is recorded, so verification reduces no S
    from ceq import matrix
    from ceq.core import Instance, Tag, Witness, map_witness_to_normalized, map_witness_to_original, verify_witness
    from ceq.field import field
    from ceq.matrix import Mat, Mono
    from ceq.oracle import GenSpec, Planted, generate
    from ceq.reduction import extract_witness, lift_witness, reduce_instance

    calls = {"_eliminate": 0, "mul": 0, "inv": 0}
    widths = []

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "_eliminate":
                rows = args[1]
                widths.append(len(rows[0]) if rows else 0)
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(matrix, "_eliminate")
    counting(Mat, "mul")
    counting(Mat, "inv")
    specs = (
        GenSpec(field(2), 2, 3, Tag.PCE, Planted.YES, 1),
        GenSpec(field(7), 3, 9, Tag.PCE, Planted.YES, 1, (3, 2, 2, 1, 1)),
    )
    for spec in specs:
        fld = spec.field
        got = generate(spec)
        inst = Instance(fld, Mat(fld, got.instance.G.rows), Mat(fld, got.instance.H.rows), Tag.PCE)
        w = Witness(Mat(fld, got.witness.S.rows), Mono(fld, got.witness.M.perm, got.witness.M.diag))
        d = len({c for c in inst.G.cols() if any(c)})
        calls.update(dict.fromkeys(calls, 0))
        widths.clear()
        reduced, cert = reduce_instance(inst, Tag.LCE)
        assert cert.journal.rank == inst.k
        assert len(widths) == 2 and max(widths) <= d + inst.k
        w_norm = map_witness_to_normalized(cert.journal, w)
        assert calls["inv"] == 0
        lifted = lift_witness(cert, w_norm)
        assert verify_witness(reduced, lifted)
        norm = cert.journal.normalized
        back = map_witness_to_original(cert.journal, extract_witness(cert, norm.G, norm.H, lifted))
        assert back == w
        assert calls["inv"] == 0
        assert calls["_eliminate"] <= 2
        assert calls["mul"] <= 8
    # the second pair repeats columns, so the full width would show
    assert d < inst.n


def test_row_basis_transform_work_counts(monkeypatch):
    # at full rank row_basis_transform solves a^T * S^T = b^T in one
    # elimination, with no product and no inverse; a fresh b pays its RREF
    # with the transform for the rank first
    from ceq import matrix
    from ceq.field import field
    from ceq.matrix import Mat, row_basis_transform

    fld = field(7)
    a = Mat(fld, [[1, 2, 0, 3], [0, 1, 4, 5], [2, 0, 1, 6]])
    s = Mat(fld, [[2, 1, 0], [0, 3, 1], [1, 0, 2]])
    b = s.mul(a)
    calls = {"_eliminate": 0, "inv": 0}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(matrix, "_eliminate")
    counting(Mat, "inv")
    assert row_basis_transform(a, b) == s
    assert calls == {"_eliminate": 2, "inv": 0}
    # a b that already holds its RREF costs one elimination
    a2, b2 = Mat(fld, a.rows), Mat(fld, b.rows)
    b2.rref()
    calls.update(_eliminate=0)
    assert row_basis_transform(a2, b2) == s
    assert calls == {"_eliminate": 1, "inv": 0}
    # short rank costs what U_b^-1 * U_a always cost: both transforms and
    # the inverse of U_b, and no plain RREF of b besides
    short = Mat(fld, a.rows[:2] + (a.rows[0],))
    calls.update(_eliminate=0)
    t = row_basis_transform(short, s.mul(short))
    assert t.mul(short) == s.mul(short)
    assert calls == {"_eliminate": 3, "inv": 1}
    # a square pair with b invertible: one elimination of [a^T | b^T],
    # no inverse and no product when b's rank is recorded; a fresh b
    # pays its RREF for the rank first
    sq = Mat(fld, [[1, 2, 0], [0, 1, 4], [2, 0, 1]])
    sq_b = s.mul(sq)
    calls.update(_eliminate=0, inv=0, mul=0)
    counting(Mat, "mul")
    for recorded, eliminations in ((True, 1), (False, 2)):
        a3, b3 = Mat(fld, sq.rows), Mat(fld, sq_b.rows)
        if recorded:
            b3.memo("rank", lambda: 3)
        calls.update(_eliminate=0)
        assert row_basis_transform(a3, b3) == s
        assert calls == {"_eliminate": eliminations, "inv": 0, "mul": 0}
    # a non-square full-rank pair whose b has only its rank recorded:
    # one elimination of [a^T | b^T], no product and no inverse
    a4, b4 = Mat(fld, a.rows), Mat(fld, b.rows)
    b4.memo("rank", lambda: 3)
    calls.update(_eliminate=0)
    assert row_basis_transform(a4, b4) == s
    assert calls == {"_eliminate": 1, "inv": 0, "mul": 0}


def test_hard_no_generation_work_counts(monkeypatch):
    # the first six hard-NO PCE pairs of each field of tools/answers.py's
    # gadget group: `generate` certifies a NO draw exhaustively only when
    # the class counts do not refute it, and most draws that preprocessing
    # rejects are refuted so. 46 exhaustive decides here; certifying every
    # draw took 133
    from ceq import oracle
    from test_tools import _load

    answers = _load("answers")
    real_decide = oracle.decide
    calls = {"generate": 0, "exhaustive": 0}

    def decide(inst, budget=oracle.Budget()):
        calls["exhaustive"] += budget.mode is oracle.Mode.EXHAUSTIVE
        return real_decide(inst, budget)

    def generate(spec):
        calls["generate"] += 1
        return real_generate(spec)

    # ceq.generate reads oracle.generate at every access
    real_generate = oracle.generate
    monkeypatch.setattr(oracle, "decide", decide)
    monkeypatch.setattr(oracle, "generate", generate)
    for p, e in answers.GADGET_FIELDS:
        fld = ceq.field(p, e)
        for s in range(6):
            k, n, profile = answers._gadget_shape(fld.q, s)
            answers._hard_no(fld, k, n, profile, 1000 * p + 100 * e + s)
    # preprocessing rejects most NO draws: over twice as many as the 36 pairs
    assert calls["generate"] > 2 * 36
    assert calls["exhaustive"] <= 50


def _fresh(code, *args, cwd=None):
    """stdout of code run in a fresh interpreter that imports ceq from
    this checkout and writes no bytecode."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=src_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# a lazily registered module keeps its _LazyModule type until it executes;
# type() reads no attribute, so it does not execute the module
_EXECUTED = (
    "[n for n in ('oracle', 'reduction') if type(sys.modules['ceq.' + n]) is types.ModuleType]"
)

_RUN_COMMAND = f"""
import runpy, sys, types
try:
    runpy.run_module("ceq", run_name="__main__")
except SystemExit as exc:
    print(exc.code, *{_EXECUTED})
"""


def test_each_command_executes_only_the_modules_it_needs(tmp_path):
    imported = _fresh(f"import sys, types; import ceq.cli; print(*{_EXECUTED}, 'ceq.rng' in sys.modules)")
    assert imported.split() == ["False"]
    steps = [
        ("gen --k 2 --n 4 --field 3 --tag PCE --planted yes --seed 5 --out i --witness-out i.wit", "oracle"),
        ("reduce --in i --target lce --out r --cert-out c", "reduction"),
        ("lift --cert c --instance i --witness i.wit --out r.wit", "reduction"),
        ("verify --instance r --witness r.wit", ""),
        ("solve --in r --mode backtracking --witness-out s.wit", "oracle"),
        ("extract --cert c --instance i --witness s.wit --out e.wit", "reduction"),
        ("verify --instance i --witness e.wit", ""),
    ]
    for argv, executed in steps:
        out = _fresh(_RUN_COMMAND, *argv.split(), cwd=tmp_path)
        assert out.splitlines()[-1].split() == ["0", *executed.split()], argv


def test_public_surface_is_the_defining_modules():
    import importlib

    for name in ceq.__all__:
        obj = getattr(ceq, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(ceq.__all__) <= set(dir(ceq))
    star = {}
    exec("from ceq import *", star)
    assert all(star[name] is getattr(ceq, name) for name in ceq.__all__)
    # lazily resolved names are looked up at every access, never cached
    assert {"decide", "reduce_instance"}.isdisjoint(vars(ceq))
    with pytest.raises(AttributeError, match=r"^module 'ceq' has no attribute 'no_such_name'$"):
        ceq.no_such_name


_PICKLE_OUT = """
import pickle, sys
from ceq import Budget, GenSpec, Mode, Planted, Tag, decide, field, generate, reduce_instance
spec = GenSpec(field(3), 2, 4, Tag.PCE, Planted.YES, 7)
inst = generate(spec).instance
values = [Budget(max_nodes=500, mode=Mode.BACKTRACKING), decide(inst, Budget(max_nodes=500)), spec,
          reduce_instance(inst, Tag.LCE)[1]]
with open(sys.argv[1], "wb") as fh:
    pickle.dump(values, fh)
print(repr(values))
"""

_PICKLE_IN = """
import pickle, sys, types
import pytest

import ceq
before = [n for n in ('oracle', 'reduction') if type(sys.modules['ceq.' + n]) is types.ModuleType]
with open(sys.argv[1], "rb") as fh:
    values = pickle.load(fh)
print(before, [type(v).__module__ for v in values])
print(repr(values))
"""


def test_values_pickled_in_one_interpreter_unpickle_in_another(tmp_path):
    path = tmp_path / "values.pickle"
    written = _fresh(_PICKLE_OUT, path)
    modules, read = _fresh(_PICKLE_IN, path).split("\n", 1)
    assert modules == "[] ['ceq.oracle', 'ceq.oracle', 'ceq.oracle', 'ceq.reduction']"
    assert read == written


_WALK = """
import sys, types
import pytest

import ceq
functions = set()
for name, mod in list(sys.modules.items()):
    if name.startswith("ceq."):
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and not attr.startswith("_") and obj.__module__ == name:
                functions.add(name + "." + attr)
print(*sorted(functions))
"""


def test_module_walkers_find_the_lazy_modules_functions():
    # tracers install by walking vars() of every ceq.* module; a lazily
    # registered module must execute at that touch and show its functions
    found = set(_fresh(_WALK).split())
    assert {"ceq.oracle.decide", "ceq.oracle.generate"} <= found
    assert {
        f"ceq.reduction.{name}"
        for name in ("reduce_instance", "build_gadget", "lift_witness", "extract_witness", "reduction_cert")
    } <= found
