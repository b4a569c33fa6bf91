"""Every import in ``src/repro`` is used.

No linter runs over the package, so this scan keeps unused imports
from coming back.  A name counts as used when it appears in code, in
an annotation (string annotations included) or in ``__all__``;
``__init__.py`` files are exempt, since their imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _annotation_names(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {sub.value for sub in ast.walk(node.value)
                     if isinstance(sub, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_each_kind_of_use():
    source = (
        "from typing import Dict, List, Optional, Set\n"
        "import os.path\n"
        "from .x import exported, unused_name\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> Dict:\n"
        "    v: 'List' = os.path.sep\n")
    assert unused_imports(source) == [(1, "Set"), (3, "unused_name")]


def test_package_has_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(PACKAGE))] = names
    assert found == {}
