"""Unit tests for the simulation core (clock, events, RNG, traces)."""

import pytest

from repro.sim import Clock, DeterministicRng, EventQueue, Sampler, Simulator, TimeSeries


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance_to(self):
        c = Clock()
        c.advance_to(1.5)
        assert c.now == 1.5

    def test_advance_by(self):
        c = Clock(1.0)
        c.advance_by(0.5)
        assert c.now == 1.5

    def test_rejects_backwards(self):
        c = Clock(2.0)
        with pytest.raises(ValueError):
            c.advance_to(1.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            Clock().advance_by(-0.1)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, lambda: None, "b")
        q.push(1.0, lambda: None, "a")
        assert q.pop().name == "a"
        assert q.pop().name == "b"

    def test_fifo_for_simultaneous(self):
        q = EventQueue()
        q.push(1.0, lambda: None, "first")
        q.push(1.0, lambda: None, "second")
        assert q.pop().name == "first"

    def test_priority_breaks_time_ties_before_submission_order(self):
        q = EventQueue()
        q.push(1.0, lambda: None, "late", priority=2)
        q.push(1.0, lambda: None, "first", priority=1)
        q.push(1.0, lambda: None, "second", priority=1)
        q.push(2.0, lambda: None, "after", priority=0)
        q.push(0.5, lambda: None, "earliest", priority=9)
        order = [q.pop().name for _ in range(5)]
        assert order == ["earliest", "first", "second", "late", "after"]
        # Default priority: plain (time, seq) order.
        q.push(3.0, lambda: None, "x")
        q.push(1.0, lambda: None, "y")
        q.push(3.0, lambda: None, "z")
        assert [q.pop().name for _ in range(3)] == ["y", "x", "z"]

    def test_cancel(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None, "gone")
        q.push(2.0, lambda: None, "kept")
        e.cancel()
        assert q.pop().name == "kept"
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        e.cancel()
        assert q.peek_time() == 3.0


class TestSimulator:
    def test_runs_in_order(self):
        sim = Simulator()
        order = []
        sim.at(2.0, lambda: order.append("late"))
        sim.at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_after_schedules_relative(self):
        sim = Simulator()
        sim.clock.advance_to(5.0)
        e = sim.after(1.0, lambda: None)
        assert e.time == 6.0

    def test_rejects_past(self):
        sim = Simulator()
        sim.clock.advance_to(3.0)
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_events_may_schedule_events(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: sim.after(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]


class TestRng:
    def test_reproducible(self):
        a = DeterministicRng(7).stream("x").random()
        b = DeterministicRng(7).stream("x").random()
        assert a == b

    def test_streams_independent_of_creation_order(self):
        r1 = DeterministicRng(7)
        r1.stream("a")
        v1 = r1.stream("b").random()
        r2 = DeterministicRng(7)
        v2 = r2.stream("b").random()
        assert v1 == v2

    def test_different_seeds_differ(self):
        assert (
            DeterministicRng(1).stream("x").random()
            != DeterministicRng(2).stream("x").random()
        )

    def test_helpers(self):
        rng = DeterministicRng(3)
        assert rng.choice("c", [5]) == 5
        assert 0 <= rng.uniform("u", 0, 1) <= 1
        assert 1 <= rng.randint("i", 1, 3) <= 3


class TestTimeSeries:
    def test_integrate_constant(self):
        ts = TimeSeries("p")
        ts.append(0.0, 10.0)
        ts.append(2.0, 10.0)
        assert ts.integrate() == pytest.approx(20.0)

    def test_integrate_ramp(self):
        ts = TimeSeries("p")
        ts.append(0.0, 0.0)
        ts.append(1.0, 10.0)
        assert ts.integrate() == pytest.approx(5.0)

    def test_integrate_window(self):
        ts = TimeSeries("p")
        ts.append(0.0, 10.0)
        ts.append(4.0, 10.0)
        assert ts.integrate(1.0, 3.0) == pytest.approx(20.0)

    def test_value_at_steps(self):
        ts = TimeSeries("p")
        ts.append(1.0, 5.0)
        assert ts.value_at(0.5) == 0.0
        assert ts.value_at(1.5) == 5.0

    def test_rejects_non_monotonic(self):
        ts = TimeSeries("p")
        ts.append(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(0.5, 2.0)

    def test_mean(self):
        ts = TimeSeries("p")
        ts.append(0.0, 0.0)
        ts.append(2.0, 4.0)
        assert ts.mean() == pytest.approx(2.0)


class TestSampler:
    def test_samples_at_rate(self):
        s = Sampler(rate_hz=10)
        values = iter(range(100))
        series = s.add_probe("x", lambda: next(values))
        s.sample_until(0.55)
        assert len(series) == 6  # ticks at 0.0 .. 0.5
        assert series.times[-1] == pytest.approx(0.5)

    def test_no_duplicate_ticks(self):
        s = Sampler(rate_hz=10)
        series = s.add_probe("x", lambda: 1.0)
        s.sample_until(0.2)
        s.sample_until(0.2)
        assert len(series) == 3

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Sampler(rate_hz=0)
