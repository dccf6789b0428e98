"""The examples in the docstrings of every raag module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import raag

MODULES = ["raag"] + sorted(m.name for m in pkgutil.iter_modules(raag.__path__, "raag."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_linalg_examples_are_found():
    assert doctest.testmod(importlib.import_module("raag.linalg")).attempted >= 7


def test_growth_examples_are_found():
    assert doctest.testmod(importlib.import_module("raag.growth")).attempted >= 3
