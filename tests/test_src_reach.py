"""Every top-level function and class of `src/autorbit`, and every method but
the dunders, is reached from the package itself: its name is read in code (not
a docstring or an import) somewhere in `src/autorbit` outside its own
definition, a top-level one as an `ast.Name` or an `ast.Attribute`, a method
only as an `ast.Attribute` (`x.name`): a local variable of the same name does
not reach it.  A routine that only the tests call belongs in `tests/`, as an
oracle.  The functions the benchmark's span tracer wraps (`TARGETS` in
`perfbench/spans.py`) are exempt: the benchmark reaches them.  The tracer's
source is read, never imported."""

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


def unreached(trees):
    """The qualified names of the definitions in `trees` (module name -> parsed
    source) that nothing in them reads."""
    reads = {}  # (name, read as an attribute) -> [(module, line)] of each place code reads it
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                key = (node.id, False) if isinstance(node, ast.Name) else (node.attr, True)
                reads.setdefault(key, []).append((module, node.lineno))
    exempt = {attr.split(".")[-1] for _, attr, *_ in _targets()}
    missing = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.split(".")[-1]
            own = range(node.lineno, node.end_lineno + 1)
            kinds = (True,) if "." in qualname else (True, False)  # a method: attributes only
            found = [read for kind in kinds for read in reads.get((name, kind), [])]
            if name not in exempt and all(where == module and line in own
                                          for where, line in found):
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_definition_in_src_is_reached_from_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert unreached(trees) == []


SHADOWED = """
class Crate:
    def weight(self):
        return 1

def heavier():
    weight = 2  # a local, not the method
    return weight

def lighter():
    return 0

print(Crate, heavier(), shelf.lighter())
"""


def test_a_method_is_reached_only_as_an_attribute():
    # a method named only by a local is unreached; a top-level function read as
    # an attribute (here `shelf.lighter`) is reached
    assert unreached({"shelf": ast.parse(SHADOWED)}) == ["shelf.Crate.weight"]
    assert unreached({"shelf": ast.parse(SHADOWED + "print(Crate().weight())\n")}) == []
