"""Every public function and class of the package is used by the program.

A public module-level function or class of ``src/switchgame`` must be
referenced from ``src/``, ``scripts/`` or ``perfbench/`` outside its own
body.  A reference is a name, an attribute, an import alias, or a string
constant that is an identifier (``perfbench/spans.py`` names the attributes
it rebinds as strings).  A name that only tests call belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "switchgame"


def _trees():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py")]
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def _references(node):
    """The names that ``node`` and its subtree refer to, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


def test_every_public_definition_is_used_outside_the_tests():
    trees = _trees()
    everywhere = Counter(name for tree in trees.values() for name in _references(tree))
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py")) for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and everywhere[node.name] == list(_references(node)).count(node.name)]
    assert unused == []
