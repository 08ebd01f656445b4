"""Every top-level function, class and method in the package and the scripts is used there.

A definition that nothing in `src/csmafade/` or `scripts/` refers to by name
is reached, if at all, only from the tests: it is a reference implementation
and belongs in `tests/oracles.py`.  References are counted by bare name (a
variable, an attribute or an imported name), so a use of any same-named
object counts; references inside the definition itself do not, and neither
do the names a package's `__init__.py` imports: a re-export makes a name
reachable, not used.  Dunder methods are called by Python itself and are
not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "csmafade").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Counter:
    """How often each bare name is referred to inside node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
    return names


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level definition and each method of a top-level
    class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS):
                    yield f"{node.name}.{member.name}", member


def unreferenced(paths, root: Path = ROOT) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    everywhere = sum(
        (_names(tree) for path, tree in trees.items() if path.name != "__init__.py"), Counter()
    )
    unused = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _names(node)[name] == 0:
                unused.append(f"{path.relative_to(root)}: {qualname}")
    return unused


def test_sources_are_found():
    assert ROOT / "src" / "csmafade" / "channel.py" in SOURCES
    assert any(path.parent.name == "scripts" for path in SOURCES)


def test_every_definition_is_referenced_outside_the_tests():
    assert unreferenced(SOURCES) == []


def test_a_definition_only_tests_call_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
        "    def unused_method(self):\n        return Box()\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from module import Box\n")
    assert unreferenced([module, caller], tmp_path) == [
        "module.py: recursive", "module.py: Box.unused_method"
    ]


def test_a_re_export_is_not_a_use(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .module import exported, used\n")
    (package / "module.py").write_text(
        "def exported():\n    return 1\n\n\n"
        "def used():\n    return 2\n\n\n"
        "VALUE = used()\n"
    )
    paths = [package / "__init__.py", package / "module.py"]
    assert unreferenced(paths, tmp_path) == ["pkg/module.py: exported"]
