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

    def test_nan_timeout_rejected(self, env):
        """``delay < 0`` is false for NaN: the clock read NaN for the rest of the run."""
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))
        with pytest.raises(SimulationError):
            env.schedule(env.event(), delay=float("nan"))
        assert env.queue_size == 0 and env.now == 0.0

    def test_clock_stays_a_number_after_a_rejected_nan_timeout(self, env):
        seen = []

        def proc():
            with pytest.raises(SimulationError):
                yield env.timeout(float("nan"))
            yield env.timeout(1.0)
            seen.append(env.now)

        env.run_process(proc())
        assert seen == [1.0]

    def test_infinite_timeout_stays_legal(self, env):
        env.timeout(float("inf"))
        assert env.peek() == float("inf")

    def test_run_until_nan_raises(self, env):
        env.process(self._wait(env, 5.0))
        with pytest.raises(SimulationError):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env.queue_size == 1

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

    def test_interrupted_process_is_not_resumed_by_its_old_target(self, env):
        """The interrupt unsubscribes the process from the event it waited
        on: when that event fires later, the process is not resumed again."""
        gate = env.event()
        received = []

        def victim():
            try:
                received.append((yield gate))
            except ProcessInterrupt:
                received.append(("interrupted", env.now))
            received.append((yield env.timeout(5.0, value="tick")))

        def driver():
            yield env.timeout(1.0)
            target.interrupt()
            yield env.timeout(1.0)
            gate.succeed("late")

        target = env.process(victim())
        env.process(driver())
        env.run()
        assert received == [("interrupted", 1.0), "tick"]
        assert env.now == 6.0

    def test_other_waiters_of_the_target_still_resume(self, env):
        gate = env.event()

        def waiter():
            try:
                return (yield gate)
            except ProcessInterrupt:
                return "interrupted"

        victim = env.process(waiter())
        bystander = env.process(waiter())

        def driver():
            yield env.timeout(1.0)
            victim.interrupt()
            gate.succeed("opened")

        env.process(driver())
        env.run()
        assert victim.value == "interrupted"
        assert bystander.value == "opened"

    def test_interrupted_process_can_wait_on_the_same_event_again(self, env):
        gate = env.event()

        def victim():
            interrupts = 0
            while True:
                try:
                    value = yield gate
                    return (interrupts, value, env.now)
                except ProcessInterrupt:
                    interrupts += 1

        target = env.process(victim())

        def driver():
            for _ in range(2):
                yield env.timeout(1.0)
                target.interrupt()
            yield env.timeout(1.0)
            gate.succeed("opened")

        env.process(driver())
        assert env.run(until=target) == (2, "opened", 3.0)

    def test_second_interrupt_in_one_timestep_finds_the_process_dead(self, env):
        """Both interrupts are issued while the victim is alive; the first
        kills it, so the second is dropped instead of resuming a corpse."""
        causes = []

        def victim():
            try:
                yield env.timeout(100.0)
            except ProcessInterrupt as exc:
                causes.append(exc.cause)
                return "stopped"

        target = env.process(victim())

        def driver():
            yield env.timeout(1.0)
            target.interrupt("first")
            target.interrupt("second")

        env.process(driver())
        env.run()
        assert causes == ["first"]
        assert target.value == "stopped"

    def test_interrupting_a_waiter_leaves_the_child_process_running(self, env):
        def child():
            yield env.timeout(5.0)
            return "child done"

        kid = env.process(child())

        def parent():
            try:
                yield kid
            except ProcessInterrupt:
                return "parent interrupted"

        elder = env.process(parent())

        def driver():
            yield env.timeout(1.0)
            elder.interrupt()

        env.process(driver())
        env.run()
        assert elder.value == "parent interrupted"
        assert kid.value == "child done"
        assert env.now == 5.0

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
