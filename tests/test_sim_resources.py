"""Unit tests for simulation resources (Resource, Container, Store)."""

import gc

import pytest

from repro.sim import Container, Resource, SimulationError, Simulator, Store, us
from repro.sim.engine import Event, ms
from repro.sim.resources import ServiceLine
from repro.stacks import SpdkStack
from repro.workload import IoKind, JobRunner, JobSpec

from .util import make_device


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_grants_up_to_capacity_immediately(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        granted = []

        def worker(tag):
            req = res.request()
            yield req
            granted.append((sim.now, tag))
            yield sim.timeout(us(10))
            res.release(req)

        for tag in "abc":
            sim.process(worker(tag))
        sim.run()
        assert granted == [(0, "a"), (0, "b"), (us(10), "c")]

    def test_fifo_ordering_within_priority(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            req = res.request()
            yield req
            order.append(tag)
            yield sim.timeout(us(1))
            res.release(req)

        for tag in range(6):
            sim.process(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_lower_priority_number_served_first(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def hog():
            req = res.request()
            yield req
            yield sim.timeout(us(10))
            res.release(req)

        def worker(tag, prio):
            yield sim.timeout(us(1))  # arrive while hog holds the slot
            req = res.request(priority=prio)
            yield req
            order.append(tag)
            res.release(req)

        sim.process(hog())
        sim.process(worker("background", 10))
        sim.process(worker("io", 0))
        sim.run()
        assert order == ["io", "background"]

    def test_in_use_and_queue_length_accounting(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert res.in_use == 1
        assert res.queue_length == 1
        res.release(r1)
        assert res.in_use == 1
        assert res.queue_length == 0
        res.release(r2)
        assert res.in_use == 0

    def test_release_of_queued_request_cancels_it(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        res.release(r2)  # cancel while still queued
        assert res.queue_length == 0
        res.release(r1)
        assert res.in_use == 0

    def test_release_of_unknown_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        granted = res.request()
        res.release(granted)
        with pytest.raises(SimulationError):
            res.release(granted)


@pytest.fixture
def saved_garbage():
    """Run the body with the collector off; yield a function that
    collects and returns what the cyclic collector had to find."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect() -> list:
        gc.collect()
        found = list(gc.garbage)
        gc.garbage.clear()
        return found

    try:
        yield collect
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _events(objects: list) -> list:
    return [o for o in objects if isinstance(o, Event)]


class TestAcyclicGrants:
    """A grant must not reference itself: a request or event that is its
    own value is a cycle only the cyclic collector frees (DESIGN.md
    §15.8). Reference counting alone must free every per-command
    object."""

    @pytest.mark.parametrize("make", (
        lambda sim: Resource(sim, capacity=1),
        lambda sim: ServiceLine(sim),
    ))
    def test_request_release_cycles(self, make, saved_garbage):
        sim = Simulator()
        line = make(sim)

        def user():
            for _ in range(50):
                req = line.request()
                yield req
                yield sim.timeout(us(1))
                line.release(req)

        for _ in range(3):  # contended: grants from release() too
            sim.process(user())
        sim.run()
        assert _events(saved_garbage()) == []

    def test_read_job_leaves_no_cyclic_events(self, saved_garbage):
        sim, dev = make_device()
        dev.force_fill(0, dev.zones.zones[0].cap_lbas // 2)
        job = JobSpec(op=IoKind.READ, block_size=4096, runtime_ns=ms(1),
                      iodepth=8, zones=[0])
        result = JobRunner(dev, SpdkStack(dev), job).run()
        assert result.ops > 0
        # sim, dev and result are still referenced: only what the
        # commands left behind can be garbage here.
        assert _events(saved_garbage()) == []


class TestContainer:
    def test_init_level_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Container(sim, capacity=10, init=11)
        with pytest.raises(SimulationError):
            Container(sim, capacity=0)

    def test_put_then_get_levels(self):
        sim = Simulator()
        tank = Container(sim, capacity=100)
        tank.put(30)
        sim.run()
        assert tank.level == 30
        tank.get(10)
        sim.run()
        assert tank.level == 20

    def test_get_blocks_until_available(self):
        sim = Simulator()
        tank = Container(sim, capacity=100)
        got_at = []

        def consumer():
            yield tank.get(50)
            got_at.append(sim.now)

        def producer():
            yield sim.timeout(us(5))
            yield tank.put(30)
            yield sim.timeout(us(5))
            yield tank.put(30)

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got_at == [us(10)]
        assert tank.level == 10

    def test_put_blocks_when_full(self):
        sim = Simulator()
        tank = Container(sim, capacity=10, init=8)
        put_at = []

        def producer():
            yield tank.put(5)
            put_at.append(sim.now)

        def consumer():
            yield sim.timeout(us(3))
            yield tank.get(4)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert put_at == [us(3)]
        assert tank.level == 9

    def test_oversized_put_rejected(self):
        sim = Simulator()
        tank = Container(sim, capacity=10)
        with pytest.raises(SimulationError):
            tank.put(11)

    def test_negative_amounts_rejected(self):
        sim = Simulator()
        tank = Container(sim, capacity=10)
        with pytest.raises(SimulationError):
            tank.put(-1)
        with pytest.raises(SimulationError):
            tank.get(-1)


class TestStore:
    def test_fifo_item_order(self):
        sim = Simulator()
        store = Store(sim)
        for item in [1, 2, 3]:
            store.put(item)
        popped = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                popped.append(item)

        sim.process(consumer())
        sim.run()
        assert popped == [1, 2, 3]

    def test_get_blocks_on_empty(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(us(4))
            yield store.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(us(4), "x")]

    def test_bounded_store_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            times.append(("a", sim.now))
            yield store.put("b")
            times.append(("b", sim.now))

        def consumer():
            yield sim.timeout(us(7))
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [("a", 0), ("b", us(7))]

    def test_len_reports_queued_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        sim.run()
        assert len(store) == 2


class TestStreamFactory:
    def test_same_name_same_stream(self):
        from repro.sim import StreamFactory

        fac = StreamFactory(seed=7)
        a = fac.stream("alpha").random(5)
        b = fac.stream("alpha").random(5)
        assert (a == b).all()

    def test_different_names_differ(self):
        from repro.sim import StreamFactory

        fac = StreamFactory(seed=7)
        a = fac.stream("alpha").random(5)
        b = fac.stream("beta").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        from repro.sim import StreamFactory

        a = StreamFactory(seed=1).stream("x").random(5)
        b = StreamFactory(seed=2).stream("x").random(5)
        assert not (a == b).all()

    def test_salt_namespaces_streams(self):
        from repro.sim import StreamFactory

        plain = StreamFactory(seed=7).stream("x").random(5)
        salted = StreamFactory(seed=7, salt="point-a").stream("x").random(5)
        other = StreamFactory(seed=7, salt="point-b").stream("x").random(5)
        assert not (plain == salted).all()
        assert not (salted == other).all()

    def test_empty_salt_matches_unsalted(self):
        """The default empty salt must not change stream derivation —
        pre-salt results stay byte-identical."""
        from repro.sim import StreamFactory

        plain = StreamFactory(seed=7).stream("x").random(5)
        empty = StreamFactory(seed=7, salt="").stream("x").random(5)
        assert (plain == empty).all()

    def test_salted_stream_equals_prefixed_name(self):
        from repro.sim import StreamFactory

        salted = StreamFactory(seed=7, salt="s").stream("x").random(5)
        prefixed = StreamFactory(seed=7).stream("s/x").random(5)
        assert (salted == prefixed).all()


class TestLatencySampler:
    def test_zero_sigma_is_identity(self):
        from repro.sim import LatencySampler, StreamFactory

        sampler = LatencySampler(StreamFactory().stream("lat"), sigma=0.0)
        assert sampler.jitter(12345) == 12345

    def test_jitter_stays_near_nominal(self):
        from repro.sim import LatencySampler, StreamFactory

        sampler = LatencySampler(StreamFactory().stream("lat"), sigma=0.03)
        nominal = us(10)
        draws = [sampler.jitter(nominal) for _ in range(500)]
        mean = sum(draws) / len(draws)
        assert abs(mean - nominal) / nominal < 0.02
        assert all(0.8 * nominal < d < 1.25 * nominal for d in draws)

    def test_negative_nominal_rejected(self):
        from repro.sim import LatencySampler, StreamFactory

        sampler = LatencySampler(StreamFactory().stream("lat"))
        with pytest.raises(ValueError):
            sampler.jitter(-1)

    def test_negative_sigma_rejected(self):
        from repro.sim import LatencySampler, StreamFactory

        with pytest.raises(ValueError):
            LatencySampler(StreamFactory().stream("lat"), sigma=-0.1)
