"""Observer callback API for the optimizer stack.

Any object implementing a *subset* of :class:`ObserverProtocol`'s methods
can be attached to :class:`~repro.core.ma_opt.MAOptimizer` or any
``baselines/`` optimizer; missing methods are simply skipped.  Callbacks
run synchronously on the optimizer's thread — keep them cheap, and note
that an exception raised by an observer aborts the run (observers are
trusted code, not sandboxed plugins).
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable


@runtime_checkable
class ObserverProtocol(Protocol):
    """Callbacks fired by the optimizers.

    ``optimizer`` is the emitting optimizer instance; baselines treat each
    simulation as a round of size one.
    """

    def on_round_start(self, optimizer: Any, round_index: int,
                       kind: str) -> None: ...

    def on_evaluation(self, optimizer: Any, record: Any) -> None: ...

    def on_round_end(self, optimizer: Any, round_index: int,
                     info: dict) -> None: ...

    def on_run_end(self, optimizer: Any, result: Any) -> None: ...

    def on_checkpoint(self, optimizer: Any, path: Any) -> None: ...

    def on_heartbeat(self, source: str, info: dict) -> None: ...


class BaseObserver:
    """No-op implementation; subclass and override what you need."""

    def on_round_start(self, optimizer: Any, round_index: int,
                       kind: str) -> None:
        pass

    def on_evaluation(self, optimizer: Any, record: Any) -> None:
        pass

    def on_round_end(self, optimizer: Any, round_index: int,
                     info: dict) -> None:
        pass

    def on_run_end(self, optimizer: Any, result: Any) -> None:
        pass

    def on_checkpoint(self, optimizer: Any, path: Any) -> None:
        pass

    def on_heartbeat(self, source: str, info: dict) -> None:
        # Fired from the pool's heartbeat thread, not the optimizer
        # thread — overrides must be thread-safe.
        pass


class ObserverList:
    """Immutable fan-out dispatcher over a set of observers."""

    __slots__ = ("_observers",)

    def __init__(self, observers: Iterable[Any] = ()) -> None:
        self._observers = tuple(observers)

    def __bool__(self) -> bool:
        return bool(self._observers)

    def __len__(self) -> int:
        return len(self._observers)

    def __iter__(self):
        return iter(self._observers)

    def extended(self, extra: Iterable[Any]) -> "ObserverList":
        """A new list with ``extra`` observers appended."""
        extra = tuple(extra)
        if not extra:
            return self
        return ObserverList(self._observers + extra)

    def emit(self, method: str, *args: Any) -> None:
        """Call ``method(*args)`` on every observer that defines it."""
        for obs in self._observers:
            fn = getattr(obs, method, None)
            if fn is not None:
                fn(*args)
