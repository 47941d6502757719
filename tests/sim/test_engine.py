"""Tests for the discrete-event engine."""

import pytest

from repro.exceptions import ProcessInterrupt, SimulationError
from repro.sim.engine import Environment


class TestEventBasics:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_carries_exception(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_unobserved_failure_is_recorded_not_raised(self, env):
        """A failed event no callback observes lands in
        ``unhandled_failures``; one with a subscriber does not."""
        observed, unobserved = env.event(), env.event()
        observed.callbacks.append(lambda event: None)
        observed.fail(KeyError("seen"))
        unobserved.fail(RuntimeError("too late"))
        env.run()
        assert env.unhandled_failures == [unobserved]

    def test_value_of_untriggered_event_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callbacks_invoked_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("hello")
        env.run()
        assert seen == ["hello"]

    def test_trigger_copies_state_of_other_event(self, env):
        source = env.event()
        source.succeed("payload")
        target = env.event()
        target.trigger(source)
        assert target.value == "payload"


class TestTimeoutAndClock:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_timeout_advances_clock(self, env):
        env.process(self._wait(env, 5.0))
        env.run()
        assert env.now == pytest.approx(5.0)

    @staticmethod
    def _wait(env, delay):
        yield env.timeout(delay)

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_carries_value(self, env):
        def proc():
            value = yield env.timeout(1.0, value="done")
            return value

        assert env.run_process(proc()) == "done"

    def test_run_until_horizon_stops_clock_at_horizon(self, env):
        env.process(self._wait(env, 100.0))
        env.run(until=30.0)
        assert env.now == pytest.approx(30.0)

    def test_run_until_past_raises(self, env):
        env.process(self._wait(env, 1.0))
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=0.5)

    def test_peek_empty_queue_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_events_at_same_time_fifo_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_a_cancelled_timeout_never_fires_and_never_moves_the_clock(self, env):
        fired = []
        timers = {delay: env.timeout(delay, value=delay) for delay in (3.0, 1.0, 1e6, 2.0, 5.0)}
        for timer in timers.values():
            timer.callbacks.append(lambda event: fired.append(event.value))
        timers[1e6].cancel()
        timers[2.0].cancel()
        timers[2.0].cancel()  # a second cancel is a no-op
        env.run()
        assert fired == [1.0, 3.0, 5.0]  # the rest keep their order
        assert env.now == 5.0
        timers[5.0].cancel()  # already processed: nothing to take off
        assert env.queue_size == 0

    def test_timeouts_share_one_constant_label(self, env):
        """No per-timeout float formatting: the delay lives in ``delay``."""
        assert env.timeout(0.25).name == env.timeout(1e-3).name == "timeout"
        assert env.timeout(0.25).delay == 0.25


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return "result"

        assert env.run_process(proc()) == "result"

    def test_process_is_alive_until_done(self, env):
        def proc():
            yield env.timeout(5.0)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_process_needs_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_waiting_on_another_process(self, env):
        def child():
            yield env.timeout(3.0)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 2

        assert env.run_process(parent()) == 14
        assert env.now == pytest.approx(3.0)

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        assert env.run_process(parent()) == "caught child failed"

    def test_uncaught_process_exception_raises_from_run_until(self, env):
        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("unhandled")

        process = env.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run(until=process)

    def test_yielding_non_event_raises_inside_process(self, env):
        def proc():
            try:
                yield 42  # type: ignore[misc]
            except SimulationError as exc:
                return str(exc)

        result = env.run_process(proc())
        assert "non-event" in result

    def test_interrupt_raises_inside_process(self, env):
        def victim():
            try:
                yield env.timeout(100.0)
            except ProcessInterrupt as exc:
                return ("interrupted", exc.cause, env.now)
            return ("finished", None, env.now)

        def interrupter(target):
            yield env.timeout(2.0)
            target.interrupt("stop now")

        target = env.process(victim())
        env.process(interrupter(target))
        result = env.run(until=target)
        assert result == ("interrupted", "stop now", 2.0)

    def test_interrupt_clears_stale_target(self, env):
        """After an interrupt, the process must not appear to still be
        waiting on the abandoned event."""
        seen = {}

        def victim():
            try:
                yield env.timeout(100.0)
            except ProcessInterrupt:
                seen["target_during_handler"] = target.target
                yield env.timeout(1.0)
            return "done"

        def interrupter():
            yield env.timeout(2.0)
            target.interrupt("stop")

        target = env.process(victim())
        env.process(interrupter())
        env.run(until=target)
        assert seen["target_during_handler"] is None
        assert target.target is None  # finished processes wait on nothing

    def test_completed_process_has_no_target(self, env):
        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        env.run()
        assert process.target is None

    def test_interrupting_dead_process_raises(self, env):
        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_value_of_running_process_raises(self, env):
        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        with pytest.raises(SimulationError):
            _ = process.value

    def test_already_processed_event_resumes_immediately(self, env):
        done = env.event()
        done.succeed("early")
        env.run()

        def proc():
            value = yield done
            return value

        assert env.run_process(proc()) == "early"
        assert env.now == 0.0


class TestRunSemantics:
    def test_run_returns_event_value(self, env):
        event = env.event()

        def proc():
            yield env.timeout(2.0)
            event.succeed("finished")

        env.process(proc())
        assert env.run(until=event) == "finished"

    def test_run_until_never_triggered_event_raises(self, env):
        event = env.event()

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=event)

    def test_run_drains_queue(self, env):
        def proc():
            for _ in range(10):
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert env.queue_size == 0
        assert env.now == pytest.approx(10.0)

    def test_queue_size_reflects_scheduled_events(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        assert env.queue_size == 2


class TestQueue:
    def test_put_then_get_is_immediate(self, env):
        from repro.sim.engine import _Queue

        queue = _Queue(env)
        queue.put("a")
        queue.put("b")
        assert len(queue) == 2
        got = []

        def consumer():
            first = yield queue.get()
            second = yield queue.get()
            got.extend([first, second])

        env.run(until=env.process(consumer()))
        assert got == ["a", "b"]
        assert len(queue) == 0

    def test_put_to_a_waiting_getter_bypasses_the_buffer(self, env):
        from repro.sim.engine import _Queue

        queue = _Queue(env)
        got = []

        def consumer():
            got.append((yield queue.get()))

        env.process(consumer())
        env.run()  # the consumer is now parked on its get
        queue.put("x")
        assert len(queue) == 0
        env.run()
        assert got == ["x"]

    def test_get_before_put_wakes_in_fifo_order(self, env):
        from repro.sim.engine import _Queue

        queue = _Queue(env)
        received = []

        def consumer(tag):
            item = yield queue.get()
            received.append((tag, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1.0)
            queue.put("x")
            queue.put("y")

        env.process(producer())
        env.run()
        # Oldest getter pairs with oldest item: deterministic FIFO both sides.
        assert received == [("first", "x"), ("second", "y")]

    def test_idle_consumer_does_not_keep_the_simulation_alive(self, env):
        from repro.sim.engine import _Queue

        queue = _Queue(env)

        def consumer():
            while True:
                yield queue.get()

        env.process(consumer())
        queue.put(1)
        env.run()  # must terminate: a pending get is not a scheduled event
        assert env.queue_size == 0

    def test_interleaved_producers_consumers_are_deterministic(self):
        from repro.sim.engine import Environment, _Queue

        def run_once():
            env = Environment()
            queue = _Queue(env)
            log = []

            def producer(tag, delay):
                for i in range(3):
                    yield env.timeout(delay)
                    queue.put(f"{tag}{i}")

            def consumer(tag):
                while True:
                    item = yield queue.get()
                    log.append((env.now, tag, item))

            env.process(producer("a", 1.0))
            env.process(producer("b", 1.0))
            env.process(consumer("c1"))
            env.process(consumer("c2"))
            env.run()
            return log

        assert run_once() == run_once()

    def test_interrupted_getter_does_not_swallow_items(self, env):
        """A consumer interrupted away from queue.get() abandons its get
        event; a later put must reach the next live getter, not vanish
        into the orphaned event."""
        from repro.exceptions import ProcessInterrupt
        from repro.sim.engine import _Queue

        queue = _Queue(env)
        received = []

        def doomed():
            try:
                yield queue.get()
            except ProcessInterrupt:
                return "interrupted"

        def survivor():
            item = yield queue.get()
            received.append(item)

        doomed_proc = env.process(doomed())
        env.process(survivor())

        def driver():
            yield env.timeout(1.0)
            doomed_proc.interrupt("shutdown")
            yield env.timeout(1.0)
            queue.put("x")

        env.process(driver())
        env.run()
        assert received == ["x"]
        assert doomed_proc.value == "interrupted"
        assert len(queue) == 0

    def test_put_then_interrupt_in_same_timestep_recovers_the_item(self, env):
        """put() may succeed a getter whose process is then interrupted
        before the event processes (interrupts are URGENT-priority). The
        queue must recover the in-flight item for the next live getter."""
        from repro.exceptions import ProcessInterrupt
        from repro.sim.engine import _Queue

        queue = _Queue(env)
        received = []

        def doomed():
            try:
                yield queue.get()
            except ProcessInterrupt:
                return "interrupted"

        def survivor():
            yield env.timeout(2.0)
            item = yield queue.get()
            received.append(item)

        doomed_proc = env.process(doomed())
        env.process(survivor())

        def driver():
            yield env.timeout(1.0)
            queue.put("x")              # succeeds doomed's getter event...
            doomed_proc.interrupt("bye")  # ...which is then abandoned first

        env.process(driver())
        env.run()
        assert doomed_proc.value == "interrupted"
        assert received == ["x"]
        assert len(queue) == 0


class TestSerialServer:
    """The serial-resource primitive promoted from the shard module."""

    def test_zero_service_time_is_synchronous(self, env):
        from repro.sim.engine import SerialServer

        server = SerialServer(env, 0.0, name="sync")
        ran = []
        server.submit(lambda: ran.append(env.now))
        assert ran == [0.0]          # ran inline, no event scheduled
        assert server.served == 1
        assert len(server) == 0

    def test_positive_service_time_serialises_fifo(self, env):
        from repro.sim.engine import SerialServer

        server = SerialServer(env, 0.5, name="serial")
        finished = []
        for label in ("a", "b", "c"):
            server.submit(lambda _label=label: finished.append((_label, env.now)))
        env.run()
        assert finished == [("a", 0.5), ("b", 1.0), ("c", 1.5)]
        assert server.served == 3

    def test_negative_service_time_rejected(self, env):
        from repro.sim.engine import SerialServer

        with pytest.raises(SimulationError):
            SerialServer(env, -0.1)

    def test_len_counts_actions_waiting_for_service(self, env):
        from repro.sim.engine import SerialServer

        server = SerialServer(env, 1.0)
        for _ in range(3):
            server.submit(lambda: None)
        assert len(server) == 3
        env.run(until=1.5)
        # One action was taken and served; the next is in service.
        assert server.served == 1
        assert len(server) == 1
        env.run()
        assert server.served == 3
        assert len(server) == 0

    def test_late_submission_queues_behind_the_backlog(self, env):
        from repro.sim.engine import SerialServer

        server = SerialServer(env, 1.0)
        finished = []
        server.submit(lambda: finished.append(("early", env.now)))
        server.submit(lambda: finished.append(("second", env.now)))

        def late():
            yield env.timeout(0.5)
            server.submit(lambda: finished.append(("late", env.now)))

        env.process(late())
        env.run()
        assert finished == [("early", 1.0), ("second", 2.0), ("late", 3.0)]

    def test_separate_servers_serve_in_parallel(self, env):
        from repro.sim.engine import SerialServer

        fast, slow = SerialServer(env, 0.25, "fast"), SerialServer(env, 1.0, "slow")
        finished = []
        for label in ("a", "b"):
            fast.submit(lambda _label=label: finished.append(("fast", _label, env.now)))
            slow.submit(lambda _label=label: finished.append(("slow", _label, env.now)))
        env.run()
        assert finished == [
            ("fast", "a", 0.25),
            ("fast", "b", 0.5),
            ("slow", "a", 1.0),
            ("slow", "b", 2.0),
        ]

    def test_idle_server_does_not_keep_the_simulation_alive(self, env):
        from repro.sim.engine import SerialServer

        server = SerialServer(env, 0.5)
        server.submit(lambda: None)
        env.run()  # must terminate once the single action is served
        assert env.now == 0.5
        assert env.queue_size == 0
