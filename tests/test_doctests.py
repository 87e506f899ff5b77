"""Execute the runnable examples embedded in module docstrings."""

import doctest

import pytest

import repro.spice.montecarlo
import repro.spice.parser
import repro.spice.sweep
import repro.spice.units

MODULES = [
    repro.spice.units,
    repro.spice.parser,
    repro.spice.sweep,
    repro.spice.montecarlo,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tests = doctest.testmod(module, verbose=False,
                                      optionflags=doctest.ELLIPSIS)[0], None
    assert failures == 0
