"""Every name a module in ``src/repro`` imports is used by that module.

The repository runs no linter, so this AST scan stands in for one rule of
it: an import that nothing references is dead code.  Package
``__init__.py`` files (which import to re-export) and names a module lists
in ``__all__`` are exempt.  String annotations (``"Future[Result]"``) count
as references.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module (``__future__`` aside)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation uses, looking inside string annotations too."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                names |= _annotation_names(annotation)
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(path: Path, root: Path = SOURCE_ROOT) -> list[str]:
    """``"file:line name"`` for each import of ``path`` nothing references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree) | _exported_names(tree)
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def test_scan_flags_only_unreferenced_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from queue import Queue as Inbox\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[Inbox]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(module, root=tmp_path) == [
        "module.py:2 math",
        "module.py:4 Sequence",
    ]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(
        path for path in SOURCE_ROOT.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)
