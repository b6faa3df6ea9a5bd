"""The import graph of the package, read with `ast`: the oracle stays
independent of the compiler and the solver, and the model below both.
Also the package's public names, so that dropping one is a deliberate edit,
an import that nothing in its file uses, a definition that nothing reads,
a set's representation read outside `intset`, one walk over a wide set's
intervals, and a weightedSum that reaches the compiler and the oracle as
its predicate."""

import ast
import pathlib

import xcsolve
from xcsolve.intset import IntegerSet

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "xcsolve"
PERFBENCH = TESTS.parent / "perfbench"


def package_imports(path: pathlib.Path) -> set:
    """The modules of the package that the file at `path` imports."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["xcsolve" if node.level else "", node.module]))
            if module == "xcsolve":  # `from . import expr` names modules
                dotted += ["xcsolve." + alias.name for alias in node.names]
            else:
                dotted.append(module)
    return {name.split(".")[1] for name in dotted if name.startswith("xcsolve.")}


GRAPH = {path.stem: package_imports(path) for path in SRC.glob("*.py")}


def test_graph_sees_the_imports_of_the_driver():
    assert {"compiler", "model", "search", "verify"} <= GRAPH["cli"]


def test_oracle_imports_only_the_model_layer():
    assert GRAPH["verify"] <= {"expr", "model", "errors", "intset"}


def test_oracle_shares_no_evaluation_code_with_the_solver():
    # the oracle imports `expr` for `evaluate`; the closures the solver
    # lowers predicates to stay out of it
    assert not names_read(SRC / "verify.py") & {"lower", "_LOWERED"}


def test_model_imports_neither_compiler_nor_oracle():
    assert not GRAPH["model"] & {"compiler", "verify"}


def test_solver_does_not_import_the_oracle():
    assert "verify" not in GRAPH["propagators"]
    assert "verify" not in GRAPH["search"]


def test_public_api_is_pinned():
    assert sorted(xcsolve.__all__) == [
        "BranchStrategy", "CompileError", "Engine", "EvalError", "FormatError",
        "InstanceModel", "IntegerSet", "Problem", "PropagatorSpec",
        "ResolutionError", "ResolvedInstance", "SearchStats", "StructuralError",
        "UnsupportedExtensionError", "XcspError", "XmlError", "compile_instance",
        "parse_instance", "parse_integer_set", "parse_tuples",
        "resolve_references", "verify_solution",
    ]
    assert all(hasattr(xcsolve, name) for name in xcsolve.__all__)


def unused_imports(path: pathlib.Path) -> list:
    """The names that the file at `path` imports and never reads; a name
    listed in its `__all__` counts as read."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = ["%s: %s" % (path.relative_to(TESTS.parent), name)
              for path in files for name in unused_imports(path)]
    assert unused == []


def definitions(path: pathlib.Path) -> list:
    """`(name, line)` for each function, method and class that the file at
    `path` defines, and each name it assigns at module level, dunders
    aside."""
    tree = ast.parse(path.read_text())
    found = [(node.name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node.lineno) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def names_read(path: pathlib.Path) -> set:
    """The names and attributes that the file at `path` reads; a name
    listed in its `__all__` counts as read."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return read


def test_no_unread_definitions():
    # by name alone: a method counts as read when any `.name` is read
    read = set().union(*(names_read(path) for folder in (SRC, TESTS, PERFBENCH)
                         for path in folder.glob("*.py")))
    unread = ["%s:%d: %s" % (path.name, line, name)
              for path in sorted(SRC.glob("*.py"))
              for name, line in definitions(path) if name not in read]
    assert unread == []


def test_only_intset_reads_the_set_representation():
    # `ranges` builds intervals from a mask, and the mask fields are one
    # form's alone: elsewhere a set is read through its operations
    fields = {"ranges", *IntegerSet.__slots__}
    readers = ["%s:%d: .%s" % (path.name, node.lineno, node.attr)
               for path in sorted(SRC.glob("*.py")) if path.name != "intset.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in fields]
    assert readers == []


def reading_functions(path: pathlib.Path, name: str) -> list:
    """The functions of the file at `path`, as `Class.function`, that read
    `name`, once for each read; `<module>` for a read outside them."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = (where + "." if where else "") + node.name
        if name in (getattr(node, "id", None), getattr(node, "attr", None)) \
                and isinstance(node.ctx, ast.Load):
            found.append(where or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "")
    return found


def test_one_walk_over_interval_tuples():
    # where two wide sets meet is found in `_overlaps` alone: the window a
    # mask reads, `intersects`, `intersect` and `difference` all call it
    assert reading_functions(SRC / "intset.py", "bisect_left") == ["_overlaps"]


def branch(path: pathlib.Path, opening: str) -> list:
    """Every node of the statements that follow the `assert`, or of the
    body of the `if`, whose test reads `opening` in the file at `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        for stmts in (getattr(node, "body", None), getattr(node, "orelse", None)):
            for k, stmt in enumerate(stmts if isinstance(stmts, list) else []):
                if isinstance(stmt, (ast.Assert, ast.If)) \
                        and ast.unparse(stmt.test) == opening:
                    code = stmts[k + 1:] if isinstance(stmt, ast.Assert) else stmt.body
                    return [n for s in code for n in ast.walk(s)]
    raise AssertionError("%s: no branch on %s" % (path.name, opening))


def callees(nodes: list) -> set:
    return {ast.unparse(n.func) for n in nodes if isinstance(n, ast.Call)}


def test_a_weighted_sum_is_lowered_and_checked_as_its_predicate():
    # `model.GLOBALS` builds the predicate a weightedSum stands for; the
    # compiler and the oracle each take it down their predicate path, with
    # no loop, no `add`/`mul` and no nesting limit of their own for it
    for name in ("compiler.py", "verify.py"):
        path = SRC / name
        weighted = branch(path, "name == 'weightedsum'")
        assert not [n for n in weighted if isinstance(
            n, (ast.For, ast.While, ast.comprehension))]
        assert not [n for n in weighted if isinstance(n, ast.Constant)
                    and n.value in ("add", "mul")]
        assert callees(weighted) & callees(branch(path, "isinstance(ref, PredicateRef)"))
        assert not names_read(path) & {"MAX_DEPTH", "OPERATIONS"}


def wipeout_sites() -> tuple:
    """Where the package raises `Wipeout` and where it catches it, each as a
    list of `module.Class.function` names."""
    raised, caught = [], []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where += "." + node.name
        if isinstance(node, ast.Raise) and "Wipeout" in ast.unparse(node):
            raised.append(where)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "Wipeout" in ast.unparse(node.type):
            caught.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return raised, caught


def test_one_failure_signal_in_the_propagation_core():
    # an emptied domain raises in the store's update alone and is caught in
    # the one `prune` alone; no propagator reads `store.failed`
    assert wipeout_sites() == (["store.DomainStore.update"],
                               ["propagators.Propagator.prune"])
    tree = ast.parse((SRC / "propagators.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "failed"]
    assert [cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(getattr(fn, "name", None) == "prune" for fn in cls.body)] == ["Propagator"]
