"""Every exported name exists, so a deleted name cannot stay exported."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["finslerflow", "finslerflow.berwald_moor", "finslerflow.puiseux"]
)
def test_exported_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
