"""Shared-resource primitives for the simulation kernel.

Three primitives cover every contention point in the device models:

* :class:`Resource` — a server with fixed capacity and a FIFO (or
  priority-ordered) queue of acquire requests. Models controller slots,
  NAND dies, channel buses, and the firmware management unit.
* :class:`Container` — a reservoir of continuous "stuff" (bytes) with
  blocking put/get. Models the device write buffer.
* :class:`Store` — a FIFO queue of discrete items with blocking get.
  Models command queues between pipeline stages.

Priority semantics on :class:`Resource`: lower numeric priority is served
first; ties are FIFO. This is how the ZNS firmware unit prioritizes I/O
commands over background ``reset`` metadata work (paper §III-G).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "ServiceLine", "Container", "Store"]


class Request(Event):
    """An acquire request; fires when the resource grants a slot.

    The grant carries no value: the requester already holds the request
    it yielded. Triggering it with itself as the value would make every
    granted request a reference cycle (``req._value is req``) that only
    the cyclic garbage collector can free (DESIGN.md §15.8).
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int):
        # Event.__init__ inlined: requests are allocated once per
        # controller/die/bus acquisition, the hottest alloc site after
        # Timeout (which the engine pools).
        self.sim = resource.sim
        self._cb = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.resource = resource
        self.priority = priority
        self._order = 0

    def __lt__(self, other: "Request") -> bool:
        if self.priority != other.priority:
            return self.priority < other.priority
        return self._order < other._order


class Resource:
    """A capacity-limited server with a priority/FIFO request queue."""

    __slots__ = ("sim", "capacity", "name", "_users", "_queue", "_counter")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[tuple[int, int, Request]] = []
        self._counter = 0

    # -- introspection ---------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    # -- protocol ----------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Ask for a slot; yield the returned event to block until granted."""
        req = Request(self, priority)
        self._counter += 1
        req._order = self._counter
        if not self._queue and len(self._users) < self.capacity:
            # Free slot and nobody ahead: grant without touching the heap.
            self._users.add(req)
            req.succeed()
        else:
            # Heap entries are (priority, order, req) tuples so ordering
            # resolves on int compares instead of Request.__lt__ dispatch
            # (the request heap is the hottest comparison site in the
            # kernel). Order is unique, so the tuple compare never
            # reaches the Request.
            heapq.heappush(self._queue, (priority, req._order, req))
            self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if request in self._users:
            self._users.remove(request)
            self._grant()
            return
        # Allow cancelling a queued (never-granted) request.
        try:
            self._queue.remove((request.priority, request._order, request))
            heapq.heapify(self._queue)
        except ValueError:
            raise SimulationError("release() of a request that holds no slot")

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = heapq.heappop(self._queue)[2]
            self._users.add(req)
            req.succeed()


class ServiceLine:
    """A capacity-1 FIFO server: :class:`Resource` minus the priority queue.

    Drop-in for the ``request()``/``release()``/introspection protocol of a
    ``Resource(sim, capacity=1)`` **when every requester uses the same
    priority** — then a priority heap degenerates to FIFO and the grant
    order is identical event-for-event (uncontended requests are granted
    synchronously onto the ready deque, contended ones in arrival order
    from the predecessor's release; both match the Resource's behaviour
    position-for-position, see DESIGN.md §15). What it saves per
    acquisition: the Request object with its priority/order fields, the
    heap tuple push/pop, the user-set add/remove, and the order counter.

    ``request()`` accepts and **ignores** a ``priority`` argument so call
    sites can select between the two classes at construction time. Code
    that mixes priorities (firmware unit, conventional-device GC, the
    power-cut panic grab) must keep using :class:`Resource`.
    """

    __slots__ = ("sim", "name", "_busy", "_waiters")

    capacity = 1

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._busy = False
        self._waiters: deque[Event] = deque()

    # -- introspection ---------------------------------------------------
    @property
    def in_use(self) -> int:
        return 1 if self._busy else 0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- protocol ----------------------------------------------------------
    def request(self, priority: int = 0) -> Event:
        """Ask for the slot; yield the returned event to block until granted.

        The ``priority`` argument is accepted for Resource compatibility
        and ignored (the line is strictly FIFO).
        """
        event = Event(self.sim)
        if self._busy:
            self._waiters.append(event)
        else:
            self._busy = True
            event.succeed()
        return event

    def release(self, request: Event) -> None:
        """Return the slot (or cancel a still-queued request)."""
        if request._triggered:
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._busy = False
            return
        try:
            self._waiters.remove(request)
        except ValueError:
            raise SimulationError("release() of a request that holds no slot")


class _ContainerOp(Event):
    __slots__ = ("amount",)

    def __init__(self, sim: Simulator, amount: int):
        super().__init__(sim)
        self.amount = amount


class Container:
    """A byte reservoir with blocking put (when full) and get (when empty)."""

    __slots__ = ("sim", "capacity", "name", "_level", "_puts", "_gets")

    def __init__(self, sim: Simulator, capacity: int, init: int = 0, name: str = ""):
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("container init level out of range")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._puts: deque[_ContainerOp] = deque()
        self._gets: deque[_ContainerOp] = deque()

    @property
    def level(self) -> int:
        return self._level

    def put(self, amount: int) -> Event:
        """Add ``amount``; blocks while it would overflow the capacity."""
        if amount < 0:
            raise SimulationError("container put amount must be >= 0")
        if amount > self.capacity:
            raise SimulationError(
                f"put of {amount} can never fit capacity {self.capacity}"
            )
        op = _ContainerOp(self.sim, amount)
        self._puts.append(op)
        self._settle()
        return op

    def get(self, amount: int) -> Event:
        """Remove ``amount``; blocks until that much is available."""
        if amount < 0:
            raise SimulationError("container get amount must be >= 0")
        op = _ContainerOp(self.sim, amount)
        self._gets.append(op)
        self._settle()
        return op

    def force_level(self, level: int) -> None:
        """Fixture: set the level directly, bypassing put/get semantics.

        Only legal while no put or get is waiting — used by device
        state restore to reinstate stable buffered residuals.
        """
        if not 0 <= level <= self.capacity:
            raise SimulationError(
                f"force_level {level} out of range 0..{self.capacity}"
            )
        if self._puts or self._gets:
            raise SimulationError(
                "force_level while put/get operations are waiting"
            )
        self._level = level

    def drain(self, amount: int) -> int:
        """Remove up to ``amount`` immediately, never blocking.

        Unlike :meth:`get`, this is a fault fixture (power loss dropping
        the unflushed buffer tail): it takes whatever is available, wakes
        any putters the freed space unblocks, and returns the bytes
        actually removed.
        """
        if amount < 0:
            raise SimulationError(f"negative drain amount: {amount}")
        taken = min(amount, self._level)
        if taken:
            self._level -= taken
            self._settle()
        return taken

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                op = self._puts.popleft()
                self._level += op.amount
                op.succeed(op.amount)
                progressed = True
            if self._gets and self._level >= self._gets[0].amount:
                op = self._gets.popleft()
                self._level -= op.amount
                op.succeed(op.amount)
                progressed = True


class Store:
    """An unbounded (or bounded) FIFO queue of discrete items."""

    __slots__ = ("sim", "capacity", "name", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Append an item; blocks only when a capacity bound is hit."""
        op = Event(self.sim)
        self._putters.append((op, item))
        self._settle()
        return op

    def get(self) -> Event:
        """Pop the oldest item; blocks while the store is empty."""
        op = Event(self.sim)
        self._getters.append(op)
        self._settle()
        return op

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                op, item = self._putters.popleft()
                self._items.append(item)
                op.succeed(item)
                progressed = True
            while self._getters and self._items:
                op = self._getters.popleft()
                op.succeed(self._items.popleft())
                progressed = True
