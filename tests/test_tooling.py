import ast
import os
import subprocess
import sys
from pathlib import Path

import ceq

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


def test_boundary_modules_use_the_validating_constructor():
    # fileio and cli read untrusted rows; Mat._of skips every entry check
    boundary = [p for p in SOURCES if p.name in ("fileio.py", "cli.py")]
    assert len(boundary) == 2
    found = [
        f"{path.name}:{node.lineno}"
        for path in boundary
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_of"
    ]
    assert found == []


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
        "_mul_bytes", "warm", "flat_ops",
    }
    assert _names_outside("field.py", private) == []


def test_only_the_matrix_module_touches_the_mat_memo():
    # other modules reach the memo through Mat.memo and the view methods
    assert _names_outside("matrix.py", {"_memo", "_rref", "_rref_t"}) == []


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(ceq.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))

    def modules(code):
        proc = subprocess.run([sys.executable, "-c", code + "import sys; print(' '.join(sys.modules))"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        return set(proc.stdout.split())

    bare = modules("")
    loaded = modules("import ceq.cli; ")
    assert "ceq.cli" in loaded
    assert (loaded - bare) & SLOW_IMPORTS == set()


def test_readme_pipeline_work_counts(monkeypatch):
    # the README walkthrough's pair, carried through reduce, lift and
    # extract in-process; the counts are deterministic, so a change that
    # brings back an inverse, a product or a per-witness row reduction
    # shows here, while one that saves an elimination or a product still
    # passes. The two eliminations are preprocessing's RREFs of G and H;
    # every rank after them is recorded, so verification reduces no S
    from ceq import matrix
    from ceq.core import Instance, Tag, Witness, map_witness_to_normalized, map_witness_to_original, verify_witness
    from ceq.field import field
    from ceq.matrix import Mat, Mono
    from ceq.oracle import GenSpec, Planted, generate
    from ceq.reduction import extract_witness, lift_witness, reduce_instance

    fld = field(2)
    got = generate(GenSpec(fld, 2, 3, Tag.PCE, Planted.YES, 1))
    inst = Instance(fld, Mat(fld, got.instance.G.rows), Mat(fld, got.instance.H.rows), Tag.PCE)
    w = Witness(Mat(fld, got.witness.S.rows), Mono(fld, got.witness.M.perm, got.witness.M.diag))
    calls = {"_eliminate": 0, "mul": 0, "inv": 0}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(matrix, "_eliminate")
    counting(Mat, "mul")
    counting(Mat, "inv")
    reduced, cert = reduce_instance(inst, Tag.LCE)
    assert cert.journal.rank == inst.k
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


def test_row_basis_transform_work_counts(monkeypatch):
    # at full rank row_basis_transform reads U_b^-1 off b's pivot columns:
    # a's RREF with the transform, b's plain RREF, one product, no inverse
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
