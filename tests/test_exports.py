"""The package's exported names: every name in an ``__all__`` resolves and
is listed once, every error class is exported, and the lazily resolved
names are exactly exported ones of their modules."""

from __future__ import annotations

import importlib
import sys

import pytest

import qmkit
import qmkit.errors
import qmkit.saqm


@pytest.mark.parametrize("module", [qmkit, qmkit.saqm], ids=["qmkit", "saqm"])
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        getattr(module, name)


@pytest.mark.parametrize("module", [qmkit, qmkit.saqm], ids=["qmkit", "saqm"])
def test_no_exported_name_is_listed_twice(module):
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_error_class_is_exported():
    errors = {name for name, value in vars(qmkit.errors).items()
              if isinstance(value, type) and issubclass(value, qmkit.QmkitError)}
    assert errors <= set(qmkit.__all__)


def test_every_lazy_name_is_exported_by_the_package_and_its_module():
    for name, module in qmkit._LAZY.items():
        assert name in qmkit.__all__, name
        assert name in importlib.import_module(module, "qmkit").__all__, name


def test_schwarzian_is_the_function_not_its_submodule():
    assert qmkit.schwarzian is sys.modules["qmkit.schwarzian"].schwarzian
