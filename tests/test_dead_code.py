"""Every function, class and method of the package is used somewhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Poly.from_roots builds test polynomials from their roots; the library
# itself always has coefficients or poles
TEST_ONLY = {("poly.py", "from_roots")}


def _names(tree):
    """(identifier, line) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno


def test_every_definition_is_named_outside_itself():
    # a name scan, not a call graph: a definition counts as used when its
    # name appears in the package outside its own body, in bench/*.py or in
    # README.md; dunder methods are called by the language
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in (ROOT / "bench").glob("*.py"):
        outside.update(name for name, _ in _names(ast.parse(path.read_text())))
    uses = []
    definitions = []
    for path in sorted((ROOT / "src" / "holodom").glob("*.py")):
        tree = ast.parse(path.read_text())
        uses += [(name, path.name, line) for name, line in _names(tree)]
        definitions += [
            (node.name, path.name, node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    unused = []
    for name, module, first, last in definitions:
        if (name.startswith("__") and name.endswith("__")) or name in outside:
            continue
        if any(used == name and (where != module or not first <= line <= last)
               for used, where, line in uses):
            continue
        if (module, name) not in TEST_ONLY:
            unused.append("%s:%d %s" % (module, first, name))
    assert not unused
