"""Core discrete-event engine: environment, events, processes.

The engine is deliberately small and deterministic:

* Time is a ``float`` number of simulated seconds.
* Events scheduled at the same time are processed in FIFO order of scheduling
  (a monotonically increasing sequence number breaks ties), which makes runs
  reproducible regardless of hash randomisation.
* Processes are plain Python generators that ``yield`` events; the engine
  resumes them with the event's value (or throws the event's exception).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.exceptions import ProcessInterrupt, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "Queue",
    "SerialServer",
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
        "env", "callbacks", "_value", "_ok", "_triggered", "_processed",
        "_abandoned", "name",
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
        self._abandoned = False

    # -- state -------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def abandoned(self) -> bool:
        """True when the process waiting on this event was interrupted away.

        Primitives that hold waiter queues (e.g. :class:`Queue`) check this
        so a value is never handed to an event nobody will ever observe.
        """
        return self._abandoned

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

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name}" if self.name else ""
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
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


class _Interruption(Event):
    """Internal event used to deliver an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env, name="interrupt")
        self.process = process
        self.callbacks.append(self._interrupt)
        self._ok = False
        self._value = ProcessInterrupt(cause)
        self._triggered = True
        self.env.schedule(self, priority=PRIORITY_URGENT)

    def _interrupt(self, event: Event) -> None:
        proc = self.process
        if proc._value is not _PENDING_SENTINEL:
            return  # process already terminated
        # Unsubscribe from whatever the process was waiting on, and forget it:
        # a stale target would make introspection (and a later re-interrupt)
        # believe the process still waits on the abandoned event.  The event
        # itself is marked abandoned so waiter-queue primitives (Queue.get)
        # never hand a value to it.
        if proc._target is not None:
            if proc._resume in proc._target.callbacks:
                proc._target.callbacks.remove(proc._resume)
            proc._target._abandoned = True
        proc._target = None
        proc._resume(self)


class _PendingSentinel:
    def __repr__(self) -> str:  # pragma: no cover
        return "<PENDING>"


_PENDING_SENTINEL = _PendingSentinel()


class Process(Event):
    """A running process wrapping a generator of events.

    A process is itself an event that triggers when the generator returns
    (with the generator's return value) or raises (with the exception).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._target: Optional[Event] = None
        self._value: Any = _PENDING_SENTINEL
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING_SENTINEL

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        _Interruption(self, cause)

    # -- engine internals ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
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
                self._target = None
                env.schedule(self, priority=PRIORITY_NORMAL)
                break
            except BaseException as exc:  # lint: allow[RL004] engine contract: any process failure propagates into waiters as the event value
                self._value = exc
                self._ok = False
                self._triggered = True
                self._target = None
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

            self._target = next_event
            next_event.callbacks.append(self._resume)
            break
        else:  # pragma: no cover - unreachable
            pass
        env._active_process = None

    # Expose the triggered value under Event's API once finished.
    @property
    def value(self) -> Any:  # type: ignore[override]
        if self._value is _PENDING_SENTINEL:
            raise SimulationError(f"value of running process {self!r}")
        return self._value


class ConditionEvent(Event):
    """Base class for composite events over a set of child events."""

    __slots__ = ("events", "_results", "_remaining")

    #: Whether an empty child set completes immediately (vacuous truth) or is
    #: rejected at construction time.  Subclasses choose.
    _empty_succeeds = True

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, name=type(self).__name__)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all condition events must share one environment")
        self._results: dict[Event, Any] = {}
        self._remaining = len(self.events)
        if not self.events:
            if not self._empty_succeeds:
                raise SimulationError(
                    f"{type(self).__name__} of no events can never trigger"
                )
            self.succeed({})
            return
        for ev in self.events:
            if self._triggered:
                break  # decided by an already-processed child: subscribe no further
            if ev._processed:
                self._child_done(ev)
            else:
                ev.callbacks.append(self._child_done)

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Decided: unsubscribe from every child that has not fired yet.

        Left in a child's callback list, a decided condition stays reachable
        for as long as that child is scheduled — a finished Interest
        exchange would hang off its unfired lifetime ``Timeout`` (and form
        an ``AnyOf`` <-> wake-event cycle) for a full Interest lifetime.  A
        child that fails later therefore has no subscriber here and is
        recorded in ``Environment.unhandled_failures`` like any other
        unobserved failure.
        """
        child_done = self._child_done
        for ev in self.events:
            if not ev._processed and child_done in ev.callbacks:
                ev.callbacks.remove(child_done)


class AllOf(ConditionEvent):
    """Triggers when *all* child events have triggered.

    The value is a dict mapping each child event to its value.  Fails as soon
    as any child fails.

    ``AllOf([])`` succeeds immediately with ``{}`` — "all of nothing" is
    vacuously true, mirroring :func:`all`.  Contrast :class:`AnyOf`, where an
    empty set can never trigger and is rejected at construction time.
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            self._detach()
            return
        self._results[event] = event.value
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(dict(self._results))


class AnyOf(ConditionEvent):
    """Triggers as soon as *any* child event triggers.

    The value is a dict with the single completed event.  Fails if the first
    child to complete failed.

    ``AnyOf([])`` raises :class:`SimulationError`: with no children the event
    can never semantically complete, and silently succeeding with ``{}`` (the
    old behaviour) deadlocks callers that expect at least one result.
    """

    __slots__ = ()

    _empty_succeeds = False

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed({event: event.value})
        self._detach()


class Queue:
    """An unbounded deterministic FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that completes with the
    next item.  Items are handed to getters strictly in FIFO order on both
    sides (first ``put`` pairs with first ``get``), so any number of
    producer/consumer processes sharing a queue stay reproducible —
    this is what lets a sharded forwarder's per-shard service loops run
    concurrently in simulated time without introducing scheduling
    nondeterminism.

    A pending ``get`` is *not* a scheduled event: a drained simulation with
    idle queue consumers simply ends (``Environment.run()`` returns when the
    event schedule is empty), which is how benchmark runs terminate without
    poisoning the queue.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest waiting getter, if any.

        Getters whose process was interrupted away (``Event.abandoned``)
        are discarded rather than fed: handing them the item would lose it
        in an event nobody observes.
        """
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered or getter.abandoned:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """An event completing with the next item (immediately if available)."""
        event = self.env.event(name="queue-get")
        # The queue watches its own getter events: if one processes after
        # its waiter was interrupted away (abandoned with the value already
        # attached — a put() and an interrupt in the same timestep), the
        # item is recovered instead of dying in an event nobody observes.
        event.callbacks.append(self._redeliver)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def _redeliver(self, event: Event) -> None:
        if event._abandoned and event.ok:
            self.put(event.value)


class SerialServer:
    """One serial execution resource in simulated time (a worker's core).

    ``submit`` runs actions in FIFO order, spending ``service_time_s`` of
    simulated time on each; a zero service time short-circuits to an
    immediate synchronous call so the default configuration adds no
    scheduling overhead at all.  This is the engine primitive behind the
    sharded forwarder's dispatcher and per-shard service loops — promoted
    here so any model needing a deterministic single-threaded resource
    (one queue, one consumer, FIFO) can reuse it.
    """

    __slots__ = ("env", "service_time_s", "served", "_queue")

    def __init__(self, env: "Environment", service_time_s: float, name: str = "serial") -> None:
        if service_time_s < 0:
            raise SimulationError(f"negative service time {service_time_s!r}")
        self.env = env
        self.service_time_s = service_time_s
        self.served = 0
        self._queue: Optional[Queue] = None
        if service_time_s > 0:
            self._queue = Queue(env)
            env.process(self._run(), name=f"serve:{name}")

    def __len__(self) -> int:
        """Actions queued but not yet served (0 in synchronous mode)."""
        return len(self._queue) if self._queue is not None else 0

    def submit(self, action: Callable[[], None]) -> None:
        if self._queue is None:
            self.served += 1
            action()
            return
        self._queue.put(action)

    def _run(self):
        queue = self._queue
        assert queue is not None
        while True:
            action = yield queue.get()
            yield self.env.timeout(self.service_time_s)
            self.served += 1
            action()


class Environment:
    """The simulation environment: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
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
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

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

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event completing when all ``events`` complete."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event completing when any of ``events`` completes."""
        return AnyOf(self, events)

    # -- scheduling and execution ----------------------------------------------

    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
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
