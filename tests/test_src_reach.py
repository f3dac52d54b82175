"""Every top-level function and class of `src/autorbit`, and every method but
the dunders, is reached from the package itself: its name is read in code (an
`ast.Name` or `ast.Attribute`, not a docstring or an import) somewhere in
`src/autorbit` outside its own definition.  A routine that only the tests
call belongs in `tests/`, as an oracle.  The functions the benchmark's span
tracer wraps (`TARGETS` in `perfbench/spans.py`) are exempt: the benchmark
reaches them.  The tracer's source is read, never imported."""

import ast
from pathlib import Path

import autorbit
from test_bench_targets import _targets

SRC = Path(autorbit.__file__).resolve().parent


def _definitions(tree):
    """(name, node) of each top-level function and class, and of each method
    of a top-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def unreached():
    """The qualified names of the definitions that nothing in src/ reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = {}  # name -> [(module, line)] of each place code reads it
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((module, node.lineno))
    exempt = {attr.split(".")[-1] for _, attr, *_ in _targets()}
    missing = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.split(".")[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if name not in exempt and all(where == module and line in own
                                          for where, line in reads.get(name, [])):
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_definition_in_src_is_reached_from_src():
    assert unreached() == []
