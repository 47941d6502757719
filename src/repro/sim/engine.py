"""Core discrete-event engine: environment, events, processes.

The engine is deliberately small and deterministic:

* Time is a ``float`` number of simulated seconds.
* Events scheduled at the same time are processed in FIFO order of scheduling
  (a monotonically increasing sequence number breaks ties), which makes runs
  reproducible regardless of hash randomisation.
* Processes are plain Python generators that ``yield`` events; the engine
  resumes them with the event's value (or throws the event's exception).
  Nothing stops a process from outside: it ends when its generator returns
  or raises, so every wait must be bounded by the protocol it runs (an
  Interest lifetime, a retry policy, a poll cap).
* A scheduled timeout stays on the schedule until it falls due; a timer that
  lost its purpose is disarmed by clearing its callbacks.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

from repro.exceptions import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
]

#: Scheduling priority for urgent events (process resumption).
PRIORITY_URGENT = 0
#: Scheduling priority for normal events.
PRIORITY_NORMAL = 1


class Event:
    """A single occurrence that processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (scheduled with a value or an exception), and *processed* (callbacks ran).
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_triggered", "_processed", "name",
    )

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        #: Callables invoked with the event once it is processed.
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state -------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception) the event was triggered with."""
        if not self._triggered:
            raise SimulationError(f"value of untriggered event {self!r}")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env.schedule(self, priority=PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env.schedule(self, priority=PRIORITY_NORMAL)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name}" if self.name else ""
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would stamp the clock NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        super().__init__(env, name="timeout")
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        env.schedule(self, priority=PRIORITY_NORMAL, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # The delay is formatted here, on demand; ``name`` stays a constant
        # so that creating a timeout (once per packet per hop) formats nothing.
        return f"<Timeout({self.delay}) {'processed' if self._processed else 'triggered'}>"


class _Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env, name="init")
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        self._triggered = True
        env.schedule(self, priority=PRIORITY_URGENT)


class _PendingSentinel:
    def __repr__(self) -> str:  # pragma: no cover
        return "<PENDING>"


_PENDING_SENTINEL = _PendingSentinel()


class Process(Event):
    """A running process wrapping a generator of events.

    A process is itself an event that triggers when the generator returns
    (with the generator's return value) or raises (with the exception).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._value: Any = _PENDING_SENTINEL
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING_SENTINEL

    # -- engine internals ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        env = self.env
        while True:
            try:
                if event.ok:
                    next_event = self._generator.send(event.value)
                else:
                    exc = event.value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._value = stop.value
                self._ok = True
                self._triggered = True
                env.schedule(self, priority=PRIORITY_NORMAL)
                break
            except BaseException as exc:  # lint: allow[RL004] engine contract: any process failure propagates into waiters as the event value
                self._value = exc
                self._ok = False
                self._triggered = True
                env.schedule(self, priority=PRIORITY_NORMAL)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = error
                event._triggered = True
                continue

            if next_event.env is not env:
                raise SimulationError("event belongs to a different environment")

            if next_event._processed:
                # Event already happened — resume immediately with its value.
                event = next_event
                continue

            next_event.callbacks.append(self._resume)
            break

    # Expose the triggered value under Event's API once finished.
    @property
    def value(self) -> Any:  # type: ignore[override]
        if self._value is _PENDING_SENTINEL:
            raise SimulationError(f"value of running process {self!r}")
        return self._value


class Environment:
    """The simulation environment: clock plus event queue.

    The simulated clock starts at 0 seconds.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Failed events that were processed without any subscriber.  They are
        #: kept for inspection rather than raised, because fire-and-forget
        #: completions (e.g. an Interest that times out after its workflow
        #: already moved on) are legitimate.
        self.unhandled_failures: list[Event] = []

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_size(self) -> int:
        """Number of scheduled, not yet processed, events."""
        return len(self._queue)

    # -- event creation helpers ----------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling and execution ----------------------------------------------

    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay`` seconds."""
        if not delay >= 0:  # NaN too: the clock would read NaN from then on
            raise SimulationError(f"cannot schedule at delay={delay} (must be >= 0)")
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("cannot step an empty schedule")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        # Failed events nobody subscribed to are recorded rather than raised:
        # callers waiting via run(until=event) still receive the exception.
        if not event.ok and not callbacks:
            self.unhandled_failures.append(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (simulated-time horizon), or an :class:`Event` (run until it is
        processed; its value is returned).
        """
        stop_event: Optional[Event] = None
        horizon: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = float(until)
            if math.isnan(horizon):
                raise SimulationError("until=nan is not a simulated time")
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon} lies in the past (now={self._now})"
                )

        while self._queue:
            if stop_event is not None and stop_event._processed:
                break
            if horizon is not None and self.peek() > horizon:
                self._now = horizon
                break
            self.step()

        if stop_event is not None:
            if not stop_event._triggered:
                raise SimulationError(
                    "run(until=event) finished but the event never triggered"
                )
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if horizon is not None and self._now < horizon and not self._queue:
            self._now = horizon
        return None

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: start ``generator`` as a process and run to completion."""
        proc = self.process(generator, name=name)
        return self.run(until=proc)
