"""The discrete-event engine.

:class:`Environment` owns the clock and the event heap and drives the
simulation. It is deliberately minimal: all domain behaviour (CPUs,
NICs, kernels) is built as processes and events on top of it.

Performance notes
-----------------
This module is the hottest code in the repository — every simulated
nanosecond flows through it — so it trades a little uniformity for
speed in two deliberate ways:

* The heap holds **mutable list entries** ``[time, priority, seq,
  event]`` (the :mod:`repro.sim.pqueue` convention) instead of tuples.
  Each scheduled event carries its entry in ``event._entry``, which
  makes :meth:`Environment.cancel` a single O(1) slot write — no
  tombstone scans, no re-heapify. Dead entries are discarded when they
  surface, each exactly once.
* Inserts go through ``env._push``, ``heapq.heappush`` already bound to
  the heap, which :class:`~repro.sim.events.Timeout` and
  :meth:`Environment.call_later` call directly. :meth:`run` dispatches
  in one tight loop that reads event state through slots; ``step``
  and ``peek`` remain for incremental driving and tests.

Sequence numbers stay globally monotonic and unique, so entry
comparison never reaches the event slot and dispatch order is a pure
function of ``(time, priority, seq)`` — byte-identical to the
historical tuple heap for any same-seed run.
"""

from __future__ import annotations

import functools
import gc
from heapq import heappop, heappush
from typing import Any, Generator, List, Optional

from repro.sim.events import AllOf, AnyOf, Event, EventPriority, Hook, Timeout
from repro.sim.process import Process

#: time :meth:`Environment.peek` returns when nothing is scheduled
NEVER = 2**63 - 1


class SimulationError(Exception):
    """Raised for structural misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised inside a process to stop the whole simulation immediately."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


def gc_paused(generation: int):
    """Decorator: pause the cyclic collector for the length of the call.

    A simulated cluster is millions of long-lived container objects, and
    building or running one reclaims no cyclic garbage, so every
    automatic collection in between is a rescan that frees nothing.
    The wrapped call runs with the collector off; on exit the outermost
    call collects generations ``0..generation`` (what it allocated, in
    time proportional to that) and then turns the collector back on.
    Exiting with the young generations still full would hand the
    deferred collection to the caller's next allocation. Builds pass 1:
    the cluster they made survives into the oldest generation. Runs pass
    0: what a run keeps alive is small.

    A call made with the collector already off, nested inside another
    paused call or from a caller that turned it off, leaves it off and
    collects nothing. Collection never changes event order, so neither
    does this.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def paused(*args, **kwargs):
            if not gc.isenabled():
                return fn(*args, **kwargs)
            gc.disable()
            try:
                return fn(*args, **kwargs)
            finally:
                gc.collect(generation)
                gc.enable()
        return paused
    return decorate


class Environment:
    """A simulation environment: clock, event heap, process factory.

    Parameters
    ----------
    initial_time:
        Starting value of the nanosecond clock.

    Notes
    -----
    Entries are ``[time, priority, sequence, event]`` lists.
    ``sequence`` increases monotonically with each scheduling operation,
    so simultaneous same-priority events fire in the exact order they
    were scheduled — the keystone of reproducibility. Cancelled entries
    have their event slot set to ``None`` and are dropped when they
    reach the top of the heap.
    """

    __slots__ = ("_now", "_heap", "_push", "_seq", "_active_process",
                 "_hook_pool", "processed_events", "cancelled_events")

    def __init__(self, initial_time: int = 0) -> None:
        self._now: int = int(initial_time)
        self._heap: List[list] = []
        #: bound fast-path insert, used by Timeout.__init__ directly
        self._push = functools.partial(heappush, self._heap)
        self._seq: int = 0
        #: recycled Hook carriers for call_later (see repro.sim.events)
        self._hook_pool: List[Hook] = []
        self._active_process: Optional[Process] = None
        #: number of events processed so far (diagnostics / tests)
        self.processed_events: int = 0
        #: number of scheduled events cancelled before dispatch
        self.cancelled_events: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories -----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None, priority: int = EventPriority.NORMAL) -> Timeout:
        """Create an event that fires ``delay`` nanoseconds from now."""
        return Timeout(self, delay, value=value, priority=priority)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event, priority: int, delay: int = 0) -> None:
        """Schedule a triggered event for processing ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        event._entry = entry = [self._now + delay, priority, seq, event]
        self._push(entry)

    def call_later(self, delay: int, fn, priority: int = EventPriority.NORMAL) -> None:
        """Schedule ``fn()`` to run ``delay`` ns from now (fire-and-forget).

        The zero-allocation fast path for hardware service callbacks
        (NIC DMA completion, wire arrival): the carrier event comes from
        — and immediately returns to — an internal pool, so the
        steady-state verbs/fabric paths allocate nothing per operation.
        The schedule is deliberately not cancellable and not waitable;
        use :meth:`timeout` when a handle is needed. Ordering is the
        ordinary ``(time, priority, seq)`` contract, identical to an
        equivalently-scheduled timeout.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        pool = self._hook_pool
        hook = pool.pop() if pool else Hook(self)
        hook.fn = fn
        self._seq = seq = self._seq + 1
        hook._entry = entry = [self._now + delay, priority, seq, hook]
        self._push(entry)

    def cancel(self, event: Event) -> bool:
        """Cancel a scheduled event before it dispatches. O(1).

        Returns True if the event was pending dispatch (its callbacks
        will now never run and it will never count as processed), False
        if it was not scheduled — never triggered, already processed, or
        already cancelled. Does not touch the heap: the dead entry is
        discarded when it surfaces.
        """
        entry = event._entry
        if entry is None:
            return False
        entry[3] = None
        event._entry = None
        self.cancelled_events += 1
        return True

    def _pop_live_until(self, horizon: int) -> Optional[list]:
        """Remove and return the next live entry due at or before
        ``horizon``, or None. Dead entries on top are discarded."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is None:
                heappop(heap)
            elif head[0] > horizon:
                return None
            else:
                return heappop(heap)
        return None

    def peek(self) -> int:
        """Time of the next scheduled event, or :data:`NEVER` if none."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is not None:
                return head[0]
            heappop(heap)
        return NEVER

    def step(self) -> None:
        """Process the next event. Raises :class:`EmptySchedule` if none."""
        entry = self._pop_live_until(NEVER)
        if entry is None:
            raise EmptySchedule()
        event = entry[3]
        event._entry = None
        self._now = entry[0]
        self.processed_events += 1
        event._process()
        # An un-handled failure propagates out of the run loop unless
        # some waiter defused it (e.g. a process that caught the
        # exception).
        if not event._ok and not event._defused:
            raise event._value

    @gc_paused(0)
    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation with the cyclic collector paused (see
        :func:`gc_paused`).

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * an ``int`` — run until that absolute time (clock lands exactly
          on it);
        * an :class:`Event` — run until that event is processed, returning
          its value.
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        horizon = NEVER
        if until is not None:
            horizon = int(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon} is in the past (now={self._now})"
                )
        try:
            self._dispatch_until(horizon)
        except StopSimulation as stop:
            return stop.value
        if until is not None:
            self._now = horizon
        return None

    def _dispatch_until(self, horizon: int) -> None:
        """Dispatch every event due at or before ``horizon``, in order."""
        pop_until = self._pop_live_until
        processed = self.processed_events
        while True:
            entry = pop_until(horizon)
            if entry is None:
                return
            event = entry[3]
            event._entry = None
            self._now = entry[0]
            processed += 1
            self.processed_events = processed
            event._process()
            if not event._ok and not event._defused:
                raise event._value

    def _run_until_event(self, stop_event: Event) -> Any:
        """run(event): dispatch until ``stop_event`` is processed."""
        pop_until = self._pop_live_until
        try:
            while not stop_event._processed:
                entry = pop_until(NEVER)
                if entry is None:
                    raise SimulationError(
                        f"run() until-event {stop_event!r} can never fire: "
                        "event queue is empty"
                    )
                event = entry[3]
                event._entry = None
                self._now = entry[0]
                self.processed_events += 1
                event._process()
                if not event._ok and not event._defused:
                    raise event._value
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        except StopSimulation as stop:
            return stop.value

    def run_until_quiet(self, max_time: int) -> None:
        """Run until nothing is scheduled before ``max_time``; clamp clock."""
        self._dispatch_until(max_time)
        if self._now < max_time:
            self._now = max_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment t={self._now} queued={len(self._heap)}>"


#: alias for callers that pattern-match on the peek sentinel
PEEK_NEVER = NEVER
