"""Tests for the package namespace."""

import pytest

import uvartest
from uvartest import core, randgen, simlab


@pytest.mark.parametrize("module", [core, randgen, simlab], ids=lambda m: m.__name__)
def test_public_names_resolve_to_the_module_objects(module):
    for name in module.__all__:
        assert name in uvartest.__all__
        assert getattr(uvartest, name) is getattr(module, name)


def test_all_lists_each_name_once():
    assert len(uvartest.__all__) == len(set(uvartest.__all__))
    assert isinstance(uvartest.__version__, str)
