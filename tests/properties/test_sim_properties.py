"""Property-based tests of the simulation kernel's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.events import EventPriority
from repro.sim.resources import Container, Resource, Store


@given(delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotonic_and_exact(delays):
    """Events fire at exactly their scheduled times, in order."""
    env = Environment()
    fired = []
    for d in delays:
        t = env.timeout(d)
        t.callbacks.append(lambda ev, d=d: fired.append((env.now, d)))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert sorted(times) == sorted(delays)
    assert env.processed_events == len(delays)


@given(
    delays=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_process_sequential_timeouts_sum(delays):
    """A process's completion time is the sum of its waits."""
    env = Environment()
    results = []

    def proc(a, b):
        yield env.timeout(a)
        yield env.timeout(b)
        results.append((env.now, a + b))

    for a, b in delays:
        env.process(proc(a, b))
    env.run()
    assert all(t == total for t, total in results)


@given(
    capacity=st.integers(1, 8),
    holds=st.lists(st.integers(1, 100), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(hold))
    env.run()
    assert max_seen[0] <= capacity
    assert res.count == 0


@given(items=st.lists(st.integers(), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == items


@given(
    amounts=st.lists(st.integers(1, 50), min_size=1, max_size=20),
    capacity=st.integers(50, 200),
)
@settings(max_examples=50, deadline=None)
def test_container_conserves_quantity(amounts, capacity):
    """Total put == total got + residual level."""
    env = Environment()
    tank = Container(env, capacity=capacity)
    total_put = sum(amounts)
    got = [0]

    def producer():
        for a in amounts:
            yield tank.put(a)
            yield env.timeout(1)

    def consumer():
        while got[0] < total_put:
            yield tank.get(1)
            got[0] += 1

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got[0] + tank.level == total_put


# ----------------------------------------------------------------------
# zero-delay scheduling
# ----------------------------------------------------------------------

@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_zero_delay_timeouts_fire_in_schedule_order(n):
    """delay=0 timeouts dispatch this instant, in exact schedule order —
    including zero-delay chains scheduled from inside a firing
    callback."""
    env = Environment()
    log = []

    def chain(depth, label):
        def cb(ev):
            log.append(label)
            if depth < 2:
                t = env.timeout(0)
                t.callbacks.append(chain(depth + 1, f"{label}+"))
        return cb

    for i in range(n):
        t = env.timeout(0)
        t.callbacks.append(chain(0, f"z{i}"))
    env.run_until_quiet(10)
    expected = [f"z{i}" for i in range(n)]
    expected += [f"z{i}+" for i in range(n)]
    expected += [f"z{i}++" for i in range(n)]
    assert log == expected
    assert env.now == 10


# ----------------------------------------------------------------------
# retry never reorders
# ----------------------------------------------------------------------

@given(
    base=st.integers(min_value=0, max_value=1 << 20),
    retries=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_retry_never_reorders_ties(base, retries):
    """The cancel+reschedule (retry) pattern: a rescheduled event lands
    at its new time with a *fresh, larger* sequence number, so it can
    never overtake an event already scheduled for the same (time,
    priority) — at any retry depth."""
    env = Environment()
    log = []

    def logger(label):
        return lambda ev: log.append((env.now, label))

    # A stable bystander at the retry's final landing time, chosen
    # strictly after the last driver tick (at retries * 10).
    final = base + retries * 10 + 5
    t_by = env.timeout(final, priority=EventPriority.NORMAL)
    t_by.callbacks.append(logger("bystander"))

    state = {"left": retries}

    def schedule_retry(delay):
        t = env.timeout(delay, priority=EventPriority.NORMAL)
        t.callbacks.append(logger("retry"))
        state["handle"] = t

    def driver(ev):
        if state["left"] > 0:
            state["left"] -= 1
            assert env.cancel(state["handle"])
            schedule_retry(final - env.now)  # re-land exactly on `final`
            if state["left"] > 0:
                nxt = env.timeout(10)
                nxt.callbacks.append(driver)

    schedule_retry(final)
    first = env.timeout(10)
    first.callbacks.append(driver)
    env.run_until_quiet(final + 1)
    # Exactly one retry firing, exactly at `final`, and the
    # bystander — scheduled first — keeps its tie-break priority.
    assert log == [(final, "bystander"), (final, "retry")]
    assert env.cancelled_events == retries
