"""Outside-in tracer: spans recorded by wrapping public entry points.

The benchmark never edits the program under test.  For a traced run it
replaces each entry point named in :mod:`perfbench.layers` with a
wrapper *at every place the name is looked up* (a function imported
into three modules is patched in all three), records one span per call,
and restores every original afterwards.

A span holds its name, wall start and end, simulated start and end, its
parent and the id of the request that caused it.  Spans stay in memory
until the run ends.  A layer's self time is a span's duration minus the
durations of its direct children (:func:`self_times`).

Generators and coroutines are timed step by step: a span is on the
stack only while its frame runs, so the wall time another request spends
between two steps of a suspended coroutine is never charged to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

WRAPPED_MARK = "__perfbench_wrapped__"


@dataclass
class SpanRecord:
    """One call of one wrapped entry point."""

    name: str
    wall_start: float
    sim_start: float
    parent: Optional[int]
    request: Optional[int]
    phase: str
    wall_s: float = 0.0          # active wall time (sum of steps)
    wall_end: float = 0.0
    sim_end: float = 0.0
    tags: Dict[str, float] = field(default_factory=dict)

    @property
    def sim_s(self) -> float:
        return self.sim_end - self.sim_start

    def as_dict(self, index: int) -> Dict[str, Any]:
        return {
            "id": index, "name": self.name, "parent": self.parent,
            "request": self.request, "phase": self.phase,
            "wall_start": self.wall_start, "wall_end": self.wall_end,
            "wall_s": self.wall_s, "sim_start": self.sim_start,
            "sim_end": self.sim_end, "tags": self.tags,
        }


def self_times(spans: List[SpanRecord]) -> List[Tuple[float, float]]:
    """(wall, sim) self time of every span: duration minus direct children."""
    child_wall = [0.0] * len(spans)
    child_sim = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_wall[span.parent] += span.wall_s
            child_sim[span.parent] += span.sim_s
    return [
        (span.wall_s - child_wall[i], span.sim_s - child_sim[i])
        for i, span in enumerate(spans)
    ]


class OutsideInTracer:
    """Records spans around patched callables; single-threaded by design."""

    def __init__(self, sim_now: Callable[[], float] = lambda: 0.0) -> None:
        self.sim_now = sim_now
        self.spans: List[SpanRecord] = []
        self.fired: Dict[str, int] = {}
        # (wrapper name, phase) -> calls, for count-only wrappers.
        self.phase_calls: Dict[Tuple[str, str], int] = {}
        self.phase = "setup"
        self._stack: List[int] = []
        self._next_request = 0
        # (owner, attribute, original value as stored on the owner)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, name: str, new_request: bool) -> int:
        """Open a span; a root span of a request entry point starts a request."""
        parent = self._stack[-1] if self._stack else None
        request: Optional[int] = None
        if parent is not None:
            request = self.spans[parent].request
        elif new_request:
            self._next_request += 1
            request = self._next_request
        self.spans.append(SpanRecord(
            name=name, wall_start=time.perf_counter(), sim_start=self.sim_now(),
            parent=parent, request=request, phase=self.phase,
        ))
        self.fired[name] = self.fired.get(name, 0) + 1
        return len(self.spans) - 1

    def _timer(self, index: int) -> "StepTimer":
        return StepTimer(
            enter=lambda: self._stack.append(index), leave=self._stack.pop
        )

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.wall_end = time.perf_counter()
        span.sim_end = self.sim_now()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
        new_request: bool = False,
    ) -> Callable:
        """A wrapper recording one span ``name`` per call of ``fn``."""
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer._open(name, new_request)
                timer = tracer._timer(index)
                try:
                    return await timer.awaitable(fn(*args, **kwargs))
                finally:
                    tracer.spans[index].wall_s = timer.wall
                    tracer._close(index)
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer._open(name, new_request)
                timer = tracer._timer(index)
                try:
                    return (yield from timer.iterate(fn(*args, **kwargs)))
                finally:
                    tracer.spans[index].wall_s = timer.wall
                    tracer._close(index)
        else:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer._open(name, new_request)
                tracer._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.spans[index].wall_s = time.perf_counter() - start
                    tracer._stack.pop()
                    tracer._close(index)
                if observe is not None:
                    tracer.spans[index].tags.update(observe(args, result))
                return result
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def count_calls(self, name: str, fn: Callable) -> Callable:
        """A wrapper that only counts calls (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.fired[name] = tracer.fired.get(name, 0) + 1
            key = (name, tracer.phase)
            tracer.phase_calls[key] = tracer.phase_calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


class StepTimer:
    """Drives a generator or awaitable one step at a time, timing each.

    ``wall`` accumulates the time spent inside steps; ``enter``/``leave``
    run around every step (the tracer pushes and pops its span there).
    """

    def __init__(
        self,
        enter: Callable[[], None] = lambda: None,
        leave: Callable[[], None] = lambda: None,
    ) -> None:
        self.wall = 0.0
        self.enter = enter
        self.leave = leave

    def _step(self, advance: Callable[[], Any]) -> Any:
        self.enter()
        start = time.perf_counter()
        try:
            return advance()
        finally:
            self.wall += time.perf_counter() - start
            self.leave()

    def iterate(self, gen: Any) -> Iterator[Any]:
        """Re-yield ``gen``'s items, forwarding send/throw/close."""
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                try:
                    if error is not None:
                        pending, error = error, None
                        item = self._step(lambda: gen.throw(pending))
                    else:
                        item = self._step(lambda: gen.send(value))
                except StopIteration as stop:
                    return stop.value
                try:
                    value = yield item
                except GeneratorExit:
                    raise
                except BaseException as exc:  # forwarded into gen
                    error = exc
        finally:
            self._step(gen.close)

    def awaitable(self, coro: Any) -> "_StepAwaitable":
        return _StepAwaitable(self, coro)


class _StepAwaitable:
    def __init__(self, timer: StepTimer, coro: Any) -> None:
        self.timer = timer
        self.coro = coro

    def __await__(self) -> Iterator[Any]:
        return self.timer.iterate(self.coro.__await__())


def repro_modules() -> List[types.ModuleType]:
    """Every imported module of the program under test."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def leftover_wrappers() -> List[str]:
    """Names of wrapped objects still reachable from the program's modules."""
    found: List[str] = []
    for module in repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{value.__name__}.{name}")
    return found
