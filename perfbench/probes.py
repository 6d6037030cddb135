"""Outside-in instrumentation of the simulator's public call boundaries.

Nothing here edits ``src/``. A :class:`Probe` replaces a handful of
public methods (device constructors, fill calls, ``Simulator.run``, the
plan point functions, and in traced runs ``assemble`` and
``canonical_payload``) with timing wrappers for the life of one
benchmark run and puts the originals back on :meth:`Probe.close`.

Untraced runs keep only aggregate timers, so the cost is two clock
reads per wrapped call (about 50 device constructions, 200 fills, 50
``Simulator.run`` calls and the points, per workload unit). Traced runs
also keep every call as a span in memory (name, start, end, parent),
count calls to two public methods, and sample the running Python frame
for per-module self time (:class:`Sampler`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import signal
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

#: The ``src/repro/<module>`` packages reported as layers, plus "other"
#: (the remaining repro packages and the benchmark's own wrappers) and
#: "runtime" (Python code outside the repo: stdlib, numpy).
MODULES = ("sim", "device", "zns", "conv", "flash", "hostif", "stacks",
           "workload", "core", "exec", "obs")
LAYERS = MODULES + ("runtime", "other")

#: Spans that count as set-up: device construction and the fill calls.
#: They dispatch no simulated events.
SETUP_SPANS = frozenset(
    {"device.construct", "conv.precondition", "zns.force_fill", "device.age"}
)


#: CPU seconds between profile samples.
SAMPLE_INTERVAL_S = 0.001


@dataclasses.dataclass
class DeviceTally:
    """Leaf objects of one device, read when its unit ends.

    Only objects that hold no reference back to the device are kept, so
    the device is freed when its point ends, as it is without the probe.
    """

    counters: object  # DeviceCounters
    flash: object  # FlashCounters
    ftl: Optional[object]  # PageMappedFtl (conventional device only)


class Probe:
    """Timers (and, when ``traced``, spans) around public calls."""

    def __init__(self, traced: bool, clock: Callable[[], float]) -> None:
        self.traced = traced
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Seconds of each outermost set-up call, in call order.
        self.setup_calls: list[float] = []
        #: Seconds of each point, in call order.
        self.point_s: list[float] = []
        #: Simulated nanoseconds advanced inside ``Simulator.run``.
        self.sim_ns = 0
        self.calls: Counter = Counter()
        self.devices: list[DeviceTally] = []
        self.spans: list[dict] = []
        # Open frames: [name, start, child seconds, span id].
        self._stack: list[list] = []
        self._setup_depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self._clock = clock
        self.origin = self._clock()

    # -- wrapping -------------------------------------------------------
    def replace(self, owner, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr`` to ``wrapper`` until :meth:`close`."""
        # ``None`` marks an attribute the owner inherited: close() deletes
        # the wrapper so lookup falls through to the base class again.
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def time(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        original = getattr(owner, attr)
        enter, leave = self.enter, self.leave

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, result)
            return result

        self.replace(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (no timing)."""
        original = getattr(owner, attr)
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        self.replace(owner, attr, wrapper)

    def close(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- timing ---------------------------------------------------------
    def enter(self, name: str) -> None:
        span_id = len(self.spans)
        if self.traced:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "start_s": 0.0, "end_s": 0.0})
        if name in SETUP_SPANS:
            self._setup_depth += 1
        self._stack.append([name, self._clock(), 0.0, span_id])

    def leave(self) -> None:
        end = self._clock()
        name, start, children, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.inclusive_s[name] += duration
        self.self_s[name] += duration - children
        if name == "core.point":
            self.point_s.append(duration)
        if name in SETUP_SPANS:
            self._setup_depth -= 1
            if self._setup_depth == 0:
                self.setup_calls.append(duration)
        if self.traced:
            span = self.spans[span_id]
            span["start_s"] = start - self.origin
            span["end_s"] = end - self.origin

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`enter`/:meth:`leave`."""
        self.enter(name)
        try:
            yield
        finally:
            self.leave()


def install(probe: Probe) -> None:
    """Wrap the public calls the benchmark times."""
    import repro.exec.engine as engine
    from repro.conv.device import ConvDevice
    from repro.conv.ftl import PageMappedFtl
    from repro.sim.engine import Simulator
    from repro.zns.device import ZnsDevice
    from repro.zns.statemachine import ZoneManager

    def tally(args, _result) -> None:
        device = args[0]
        probe.devices.append(DeviceTally(
            device.counters, device.backend.counters, getattr(device, "ftl", None)
        ))

    for cls in (ZnsDevice, ConvDevice):
        probe.time(cls, "__init__", "device.construct", after=tally)
        probe.time(cls, "age", "device.age")
    probe.time(ZnsDevice, "force_fill", "zns.force_fill")
    probe.time(ConvDevice, "precondition", "conv.precondition")
    run = Simulator.run

    @functools.wraps(run)
    def timed_run(sim, *args, **kwargs):
        start = sim.now
        probe.enter("sim.run")
        try:
            return run(sim, *args, **kwargs)
        finally:
            probe.leave()
            probe.sim_ns += sim.now - start

    probe.replace(Simulator, "run", timed_run)
    plans = engine.experiment_plans

    def timed(point):
        def run_point(config, params):
            with probe.span("core.point"):
                return point(config, params)
        return run_point

    def plans_with_spans(auxiliary: bool = False):
        return {
            exp_id: dataclasses.replace(plan, point=timed(plan.point))
            for exp_id, plan in plans(auxiliary).items()
        }

    probe.replace(engine, "experiment_plans", plans_with_spans)
    if probe.traced:
        probe.time(engine, "assemble", "core.assemble")
        probe.time(engine, "canonical_payload", "exec.canonical")
        probe.count(PageMappedFtl, "pick_victim", "conv.pick_victim")
        probe.count(ZoneManager, "reset", "zns.reset")


class Sampler:
    """Statistical self-time profiler for the main thread.

    A profiling timer (``ITIMER_PROF``, which counts the process's CPU
    time) raises ``SIGPROF`` every :data:`SAMPLE_INTERVAL_S` CPU seconds. The handler
    runs in the main thread between bytecodes and credits one sample to
    the layer owning the interrupted frame's source file. Time inside a
    C function (``heapq``, numpy) goes to the Python frame that called
    it. No helper thread is involved, so sampling never waits for the
    interpreter lock. Construct, start and stop it in the main thread.
    """

    def __init__(self, src_repro: str) -> None:
        self.samples: Counter = Counter()
        #: Host seconds spent inside the signal handler.
        self.busy_s = 0.0
        self._root = os.path.realpath(src_repro) + os.sep
        self._bench = os.path.dirname(os.path.realpath(__file__)) + os.sep
        self._layer_of: dict[str, str] = {}
        self._previous = None

    def layer_of(self, filename: str) -> str:
        layer = self._layer_of.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            if path.startswith(self._root):
                head = path[len(self._root):].split(os.sep, 1)[0]
                layer = head if head in MODULES else "other"
            elif path.startswith(self._bench):
                layer = "other"
            else:
                layer = "runtime"
            self._layer_of[filename] = layer
        return layer

    def _sample(self, _signum, frame) -> None:
        started = time.perf_counter()
        if frame is not None:
            self.samples[self.layer_of(frame.f_code.co_filename)] += 1
        self.busy_s += time.perf_counter() - started

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def split(self, wall_s: float) -> dict[str, float]:
        """Seconds per layer: ``wall_s`` divided by sample shares."""
        total = sum(self.samples.values())
        return {
            layer: (wall_s * self.samples[layer] / total if total else 0.0)
            for layer in LAYERS
        }
