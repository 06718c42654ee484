"""The library's public face: the usage examples embedded in its docstrings
run, and every name it exports exists."""

import doctest

import pytest

import synto
import synto.chart
import synto.fgl
import synto.graded
import synto.summand


@pytest.mark.parametrize("module", [
    synto.graded,
    synto.fgl,
    synto.summand,
    synto.chart,
], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0


@pytest.mark.parametrize("module", [synto, synto.summand],
                         ids=lambda m: m.__name__)
def test_exported_names_exist(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
