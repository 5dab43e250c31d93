"""Every example, script and benchmark module imports cleanly.

The entry points only do their work under ``__main__`` (the benchmarks under
pytest), so importing one runs nothing but its imports and definitions —
enough to catch a public name it uses that the library no longer has.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
ENTRY_POINTS = (
    sorted((ROOT / "examples").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted(BENCHMARKS.glob("*.py"))
)


def _execute(path: Path, name: str, monkeypatch) -> None:
    """Run ``path`` as module ``name``, registered in ``sys.modules`` meanwhile."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)


def test_entry_points_found():
    assert len(ENTRY_POINTS) >= 29


@pytest.mark.parametrize("path", ENTRY_POINTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_entry_point_imports(path, monkeypatch):
    if path.parent == BENCHMARKS:
        # Benchmarks import their helpers with ``from common import ...``
        # (some also edit sys.path themselves), and common.py's dataclasses
        # look their module up in sys.modules.  Both are restored afterwards.
        monkeypatch.setattr(sys, "path", [str(BENCHMARKS), *sys.path])
        _execute(BENCHMARKS / "common.py", "common", monkeypatch)
    _execute(path, f"entry_point_{path.stem}", monkeypatch)
