"""Tests for ``Circuit.to_spice``: one deck line per element whose numeric
tokens read back (``float()``) exactly as the element values, plus a
``.model`` card for every non-builtin MOSFET model."""

from dataclasses import fields

import pytest

from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA
from repro.spice import NMOS_180, Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.models import MosfetModel
from repro.spice.waveforms import DCWave, Pulse
from tests.circuits.test_ldo import GOOD as LDO_GOOD
from tests.circuits.test_ota import GOOD as OTA_GOOD
from tests.circuits.test_tia import GOOD as TIA_GOOD

BUILTIN_MODELS = {"nmos180", "pmos180"}


def element_lines(deck: str) -> list[str]:
    return [line for line in deck.splitlines()
            if not line.startswith((".title", ".model", ".end"))]


def model_cards(deck: str) -> dict[str, str]:
    return {line.split()[1]: line for line in deck.splitlines()
            if line.startswith(".model")}


def numbers(tokens: list[str]) -> list[float]:
    """The numeric tokens, in order (``W=1e-06`` -> 1e-06, ``PULSE(0`` ->
    0)."""
    out = []
    for tok in " ".join(tokens).replace("(", " ").replace(")", " ").split():
        try:
            out.append(float(tok.split("=")[-1]))
        except ValueError:
            pass
    return out


def expected_numbers(elem) -> list[float]:
    if isinstance(elem, Resistor):
        return [elem.resistance]
    if isinstance(elem, Capacitor):
        return [elem.capacitance]
    if isinstance(elem, VoltageSource | CurrentSource):
        wave = elem.waveform
        if isinstance(wave, Pulse):
            values = [wave.v1, wave.v2, wave.td, wave.tr, wave.tf, wave.pw,
                      wave.per]
        else:
            values = [wave.dc_value()]
        return values + ([elem.ac] if elem.ac else [])
    assert isinstance(elem, Mosfet)
    return [elem.w, elem.l, elem.m]


def assert_card_states_model(card: str, model: MosfetModel) -> None:
    """The card gives every model parameter, reading back equal."""
    params = {key: float(value) for key, value in
              (tok.split("=") for tok in card.split()[3:])}
    assert params == {f.name: getattr(model, f.name) for f in fields(model)
                      if f.name not in ("name", "polarity")}


def assert_deck_matches(ckt: Circuit) -> str:
    """Every element has its line, in order; every value reads back equal;
    every non-builtin model has a card.  Returns the deck."""
    deck = ckt.to_spice()
    lines = element_lines(deck)
    assert len(lines) == len(ckt.elements)
    cards = model_cards(deck)
    for elem, line in zip(ckt.elements, lines):
        tokens = line.split()
        n_nodes = len(elem.node_names)
        assert tokens[0] == elem.name
        assert tuple(tokens[1:1 + n_nodes]) == elem.node_names
        rest = tokens[1 + n_nodes:]
        if isinstance(elem, Mosfet):
            assert rest[0] == elem.model.name
            assert (elem.model.name in BUILTIN_MODELS
                    or elem.model.name in cards)
            rest = rest[1:]
        assert numbers(rest) == expected_numbers(elem), line
    return deck


class TestRoundTrip:
    def test_title_preserved(self):
        ckt = Circuit("my amplifier deck")
        ckt.add_resistor("R1", "a", "0", 1e3)
        ckt.add_vsource("V1", "a", "0", 1.0)
        deck = ckt.to_spice()
        assert deck.splitlines()[0] == ".title my amplifier deck"
        assert deck.splitlines()[-1] == ".end"

    def test_passives_and_sources(self):
        ckt = Circuit("rc")
        ckt.add_vsource("V1", "in", "0", 2.5, ac=1.0)
        ckt.add_resistor("R1", "in", "mid", 2.2e3)
        ckt.add_resistor("R2", "mid", "out", 1 / 3)
        ckt.add_capacitor("C1", "out", "0", 4.7e-12)
        ckt.add_isource("I1", "0", "out", 1e-3)
        deck = assert_deck_matches(ckt)
        assert "V1 in 0 DC 2.5 AC 1" in deck
        assert "R2 mid out 0.33333333333333331" in deck

    def test_waveforms_preserved(self):
        ckt = Circuit("waves")
        ckt.add_vsource("Vp", "a", "0",
                        Pulse(0.1, 1.2, td=1e-9, tr=2e-9, tf=3e-9,
                              pw=4e-9, per=20e-9))
        ckt.add_isource("Ip", "0", "b", Pulse(0.0, 1e-3), ac=0.5)
        ckt.add_vsource("Vd", "c", "0", DCWave(0.9))
        for node in "abc":
            ckt.add_resistor(f"R{node}", node, "0", 1e3)
        deck = assert_deck_matches(ckt)
        assert "Vp a 0 PULSE(0.10000000000000001 1.2 " in deck
        assert "Vd c 0 DC 0.90000000000000002" in deck

    def test_builtin_mosfet_models(self):
        ckt = Circuit("mos")
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_resistor("RL", "vdd", "d", 10e3)
        ckt.add_mosfet("M1", "d", "d", "0", "0", NMOS_180, 10e-6, 1e-6, m=3)
        deck = assert_deck_matches(ckt)
        assert model_cards(deck) == {}
        assert "M1 d d 0 0 nmos180 " in deck and deck.endswith("M=3\n.end")

    def test_custom_mosfet_model_card_emitted(self):
        model = MosfetModel(name="myn", polarity=1, vto=0.6, kp=2e-4)
        ckt = Circuit("custom")
        ckt.add_vsource("Vd", "d", "0", 1.8)
        ckt.add_mosfet("M1", "d", "d", "0", "0", model, 5e-6, 0.5e-6)
        card = model_cards(assert_deck_matches(ckt))["myn"]
        assert card.startswith(".model myn nmos ")
        assert_card_states_model(card, model)

    def test_temperature_model_card_states_temp(self):
        task = TwoStageOTA(temp_c=125)
        cards = model_cards(task.build_netlist(OTA_GOOD).to_spice())
        assert set(cards) == {task.nmos.name, task.pmos.name}
        for model in (task.nmos, task.pmos):
            assert_card_states_model(cards[model.name], model)
        assert task.nmos.temp != NMOS_180.temp

    def test_ota_task_circuit_roundtrips(self):
        """The OTA's step bench, pulse source included, at 17 digits."""
        from repro.circuits.ota import build_ota

        assert_deck_matches(build_ota(OTA_GOOD, closed_loop=True,
                                      step_input=True))


PAPER_TASKS = {"ota": (TwoStageOTA, OTA_GOOD), "tia": (ThreeStageTIA, TIA_GOOD),
               "ldo": (LDORegulator, LDO_GOOD)}


@pytest.mark.parametrize("corner", ["tt", "ff"])
@pytest.mark.parametrize("name", sorted(PAPER_TASKS))
def test_paper_circuit_deck(name, corner):
    task_cls, good = PAPER_TASKS[name]
    task = task_cls(corner=corner)
    deck = assert_deck_matches(task.build_netlist(good))
    cards = model_cards(deck)
    if corner == "tt":
        assert cards == {}
    else:
        assert set(cards) == {task.nmos.name, task.pmos.name}
        assert cards[task.nmos.name].startswith(".model nmos180_f nmos ")
        for model in (task.nmos, task.pmos):
            assert_card_states_model(cards[model.name], model)
