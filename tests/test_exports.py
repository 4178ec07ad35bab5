"""The package's exported names: every name in an ``__all__`` resolves, and
the lazily resolved names are exactly exported ones of their modules."""

from __future__ import annotations

import importlib
import sys

import pytest

import qmkit
import qmkit.saqm


@pytest.mark.parametrize("module", [qmkit, qmkit.saqm], ids=["qmkit", "saqm"])
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        getattr(module, name)


def test_every_lazy_name_is_exported_by_the_package_and_its_module():
    for name, module in qmkit._LAZY.items():
        assert name in qmkit.__all__, name
        assert name in importlib.import_module(module, "qmkit").__all__, name


def test_schwarzian_is_the_function_not_its_submodule():
    assert qmkit.schwarzian is sys.modules["qmkit.schwarzian"].schwarzian
