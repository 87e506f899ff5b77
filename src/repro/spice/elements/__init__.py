"""Circuit elements: values, terminals, operating-point reports and noise
sources (their MNA stamps live in :mod:`repro.spice.compiled`)."""

from repro.spice.elements.base import Element, NoiseSource
from repro.spice.elements.mosfet import Mosfet
from repro.spice.elements.passives import Capacitor, Resistor
from repro.spice.elements.sources import CurrentSource, VoltageSource

__all__ = [
    "Element",
    "NoiseSource",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
]
