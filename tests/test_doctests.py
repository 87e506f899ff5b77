"""Execute the runnable examples embedded in module docstrings."""

import doctest

import pytest

import repro.nn
import repro.spice.netlist

MODULES = [
    repro.nn,
    repro.spice.netlist,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tests = doctest.testmod(module, verbose=False,
                                      optionflags=doctest.ELLIPSIS)[0], None
    assert failures == 0
