"""Deterministic single-threaded discrete-event engine.

Events fire in (fire_time, sequence_number) order; the sequence number is
a global insertion counter, so simultaneous events dispatch in the order
they were scheduled.  Identical (config, seed) therefore replays the exact
same event sequence.

The engine counts only what it does itself, ``events_dispatched``; run
totals are built from the ports and endpoints after the loop.
"""

from heapq import heappop, heappush


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the engine's current time."""


class Engine:
    """Event loop: schedule callbacks, cancel them, run to a horizon.

    Entries are mutable lists ``[time, seq, fn, arg]`` and double as
    cancellation handles: cancel nulls the callback in place and the loop
    skips dead entries, so cancel is O(1).  The loop also nulls the
    callback of every entry it dispatches, so cancelling a fired event is a
    no-op.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.last_dispatch_ns = 0
        self.events_dispatched = 0

    def schedule(self, fire_time_ns: int, fn, arg=None) -> list:
        """Queue `fn(now, arg)` at `fire_time_ns`; returns a cancellation handle."""
        if fire_time_ns < self.now:
            raise SchedulingInPast(
                f"fire_time {fire_time_ns} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [fire_time_ns, seq, fn, arg]
        heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> bool:
        """True iff the event was still pending and is now removed."""
        if handle[2] is None:
            return False
        handle[2] = None
        return True

    def pending(self) -> list:
        """``(fn, arg)`` of every event still due, in no particular order."""
        return [(entry[2], entry[3]) for entry in self._heap
                if entry[2] is not None]

    def run_until(self, t_end_ns: int) -> None:
        """Dispatch every event with fire_time <= t_end_ns."""
        heap = self._heap
        n = 0
        while heap and heap[0][0] <= t_end_ns:
            entry = heappop(heap)
            t, _, fn, arg = entry
            if fn is None:
                continue
            entry[2] = None
            self.now = t
            n += 1
            fn(t, arg)
        if n:
            self.events_dispatched += n
            self.last_dispatch_ns = self.now
        if t_end_ns > self.now:
            self.now = t_end_ns
