"""Time-domain waveforms for independent sources.

Each waveform is a callable ``value(t)``; ``t=None`` means "DC operating
point", for which sources report their DC/initial value.
"""

from __future__ import annotations

import math


class Waveform:
    """Base waveform; subclasses implement :meth:`value`."""

    def value(self, t: float | None) -> float:
        raise NotImplementedError

    def dc_value(self) -> float:
        return self.value(None)

    def __call__(self, t: float | None) -> float:
        return self.value(t)


class DCWave(Waveform):
    """Constant value at all times."""

    def __init__(self, value: float) -> None:
        self._value = float(value)

    def value(self, t: float | None) -> float:
        del t
        return self._value

    def __repr__(self) -> str:
        return f"DCWave({self._value})"


class Pulse(Waveform):
    """SPICE PULSE(v1 v2 td tr tf pw per) waveform.

    ``v1`` initial value, ``v2`` pulsed value, ``td`` delay, ``tr``/``tf``
    rise/fall times, ``pw`` pulse width, ``per`` period (0 = single pulse).
    """

    def __init__(
        self,
        v1: float,
        v2: float,
        td: float = 0.0,
        tr: float = 1e-9,
        tf: float = 1e-9,
        pw: float = 1e-3,
        per: float = 0.0,
    ) -> None:
        if tr < 0 or tf < 0 or pw < 0 or td < 0 or per < 0:
            raise ValueError("pulse timing parameters must be non-negative")
        self.v1, self.v2 = float(v1), float(v2)
        self.td, self.tr, self.tf, self.pw, self.per = (
            float(td),
            max(float(tr), 1e-15),
            max(float(tf), 1e-15),
            float(pw),
            float(per),
        )

    def value(self, t: float | None) -> float:
        if t is None:
            return self.v1
        tl = t - self.td
        if tl < 0:
            return self.v1
        if self.per > 0:
            tl = math.fmod(tl, self.per)
        if tl < self.tr:
            return self.v1 + (self.v2 - self.v1) * tl / self.tr
        tl -= self.tr
        if tl < self.pw:
            return self.v2
        tl -= self.pw
        if tl < self.tf:
            return self.v2 + (self.v1 - self.v2) * tl / self.tf
        return self.v1


def as_waveform(value: "float | Waveform") -> Waveform:
    """Coerce a plain number to :class:`DCWave`."""
    if isinstance(value, Waveform):
        return value
    return DCWave(float(value))
