"""Every example and script imports cleanly.

The entry points only do their work under ``__main__``, so importing one
runs nothing but its imports and definitions — enough to catch a public
name it uses that the library no longer has.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = sorted((ROOT / "examples").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_entry_points_found():
    assert len(ENTRY_POINTS) >= 13


@pytest.mark.parametrize("path", ENTRY_POINTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_entry_point_imports(path):
    spec = importlib.util.spec_from_file_location(f"entry_point_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
