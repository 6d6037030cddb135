"""Host speed reference: a frozen pure-Python heap event loop, and a
clock that runs at the speed the loop measures.

It imports nothing from ``repro``, so code changes never move the loop.
Keep the loop and the constants unchanged: a different loop gives a
different speed and breaks comparison with older records.
"""

from __future__ import annotations

import heapq
import signal
import time

FANOUT = 64
#: Events of the loop per speed sample.
SLICE_EVENTS = 1_000
#: Host seconds between speed samples.
SLICE_PERIOD_S = 0.05
#: The loop speed, in thousands of events per host second, at which a
#: reference second is one host second.
REFERENCE_KEV_PER_S = 1_000.0


def _loop(events: int) -> int:
    """Dispatch ``events`` timer events; each schedules its successor."""
    heap = [(i, i) for i in range(FANOUT)]
    heapq.heapify(heap)
    state = 12345
    checksum = 0
    for _ in range(events):
        now, ident = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        checksum ^= ident
        heapq.heappush(heap, (now + 1 + (state & 1023), ident))
    return checksum


class ReferenceClock:
    """Reference seconds: host seconds scaled by the host's speed.

    The measurement host shares its cores, and its speed drifts up to
    twofold within minutes; the interpreter then runs the simulator and
    this loop slower alike. Every :data:`SLICE_PERIOD_S` host seconds a
    ``SIGALRM`` handler, which runs in the main thread between
    bytecodes, times :data:`SLICE_EVENTS` events of the loop. The host
    time up to the next sample advances the clock by that time times
    the measured speed over :data:`REFERENCE_KEV_PER_S`. The samples'
    own time does not advance it. An interval read from the clock is
    therefore the work done in it, in seconds of a host running the loop
    at the reference speed, and stays level while the host's speed
    drifts. Construct, start and stop it in the main thread.
    """

    def __init__(self) -> None:
        #: Host seconds spent in speed samples.
        self.busy_s = 0.0
        self.samples = 0
        # (reference seconds at host time ``last``, ``last``, reference
        # seconds per host second). One tuple, so that a sample taken
        # while the clock is read never shows a half-updated state.
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous = None

    def __call__(self) -> float:
        now = time.perf_counter()
        ref, last, rate = self._state
        return ref + max(0.0, now - last) * rate

    def _sample(self, _signum=None, _frame=None) -> None:
        started = time.perf_counter()
        _loop(SLICE_EVENTS)
        ended = time.perf_counter()
        ref, last, rate = self._state
        # The interval since the last sample runs at the rate measured
        # then, so readings taken in it stay valid and the clock never
        # goes back.
        self._state = (
            ref + max(0.0, started - last) * rate,
            ended,
            SLICE_EVENTS / (ended - started) / (REFERENCE_KEV_PER_S * 1e3),
        )
        self.busy_s += ended - started
        self.samples += 1

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def host_score(self) -> float:
        """The loop's mean speed over the samples, in kev/s."""
        return self.samples * SLICE_EVENTS / self.busy_s / 1e3
