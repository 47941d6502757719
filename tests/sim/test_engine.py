"""Tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Environment


class TestEventBasics:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event._processed

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
