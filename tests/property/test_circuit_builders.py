"""Property tests: circuit builders accept the entire design space."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.erc import run_erc
from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA
from repro.circuits.ldo import build_ldo
from repro.circuits.ota import build_ota
from repro.circuits.tia import build_tia

OTA = TwoStageOTA()
TIA = ThreeStageTIA()
LDO = LDORegulator()

unit_vectors = st.integers(0, 2**31 - 1)


def params_for(task, seed):
    rng = np.random.default_rng(seed)
    return task.space.denormalize(task.space.sample(rng, 1)[0])


@given(unit_vectors)
@settings(max_examples=30, deadline=None)
def test_ota_builder_total(seed):
    """Any in-range sizing builds a structurally sound OTA netlist."""
    ckt = build_ota(params_for(OTA, seed))
    assert run_erc(ckt) == []
    assert ckt.n_nodes == 8
    assert len(ckt.elements) == 14


@given(unit_vectors)
@settings(max_examples=30, deadline=None)
def test_tia_builder_total(seed):
    ckt = build_tia(params_for(TIA, seed))
    assert run_erc(ckt) == []
    # three NMOS drivers + three PMOS loads + bias pair present
    for name in ("M1", "M2", "M3", "MP1", "MP2", "MP3", "MPB", "MNB"):
        assert name in ckt


@given(unit_vectors)
@settings(max_examples=30, deadline=None)
def test_ldo_builder_total(seed):
    ckt = build_ldo(params_for(LDO, seed))
    assert run_erc(ckt) == []
    assert "MP" in ckt and "Vref" in ckt


@given(unit_vectors)
@settings(max_examples=20, deadline=None)
def test_multipliers_respected(seed):
    params = params_for(OTA, seed)
    ckt = build_ota(params)
    assert ckt["M5"].m == int(params["N1"])
    assert ckt["M6"].m == int(params["N2"])
    assert ckt["M7"].m == int(params["N3"])


@given(unit_vectors)
@settings(max_examples=20, deadline=None)
def test_geometry_in_si_units(seed):
    params = params_for(OTA, seed)
    ckt = build_ota(params)
    m1 = ckt["M1a"]
    assert m1.w == params["W1"] * 1e-6
    assert m1.l == params["L1"] * 1e-6
