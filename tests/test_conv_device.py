"""Integration tests for the conventional SSD device model."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash import KIB, MIB, FlashGeometry
from repro.hostif import Command, Opcode, Status
from repro.sim import Simulator, ms, sec, us
from repro.conv import ConvDevice

from .test_conv_ftl import ftl_state, per_slot_relocate
from .util import quiet_profile, read, run_cmd, write


def conv_profile(**overrides):
    """A small conventional-device profile (≈128 MiB raw flash)."""
    geometry = FlashGeometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=64,
        pages_per_block=16,
        page_size=16 * KIB,
    )
    base = dict(geometry=geometry, write_buffer_bytes=4 * MIB)
    base.update(overrides)
    return quiet_profile(**base)


def make_conv(**overrides):
    sim = Simulator()
    device = ConvDevice(sim, conv_profile(**overrides))
    return sim, device


class TestBasicIo:
    def test_write_then_read(self):
        sim, dev = make_conv()
        assert run_cmd(sim, dev, write(0, 4)).ok
        assert run_cmd(sim, dev, read(0, 4)).ok
        assert dev.counters.completed[Opcode.WRITE] == 1
        assert dev.counters.completed[Opcode.READ] == 1

    def test_random_writes_accepted_anywhere(self):
        """Unlike ZNS, a conventional SSD takes writes at any LBA."""
        sim, dev = make_conv()
        capacity = dev.namespace.capacity_lbas
        for slba in (0, capacity // 2, capacity - 4, 17):
            assert run_cmd(sim, dev, write(slba, 4)).ok

    def test_out_of_range_rejected(self):
        sim, dev = make_conv()
        cpl = run_cmd(sim, dev, write(dev.namespace.capacity_lbas, 1))
        assert cpl.status is Status.LBA_OUT_OF_RANGE

    def test_append_not_supported(self):
        sim, dev = make_conv()
        with pytest.raises(ValueError):
            dev.submit(Command(Opcode.APPEND, slba=0, nlb=1))

    def test_write_qd1_latency_matches_zns_write_path(self):
        """Same hardware, same write-cache path: latency parity with ZNS."""
        sim, dev = make_conv()
        run_cmd(sim, dev, write(0, 1))
        cpl = run_cmd(sim, dev, write(4, 1))
        assert cpl.latency_ns == 5_380 + 610 + 4_800

    def test_unwritten_read_needs_no_nand(self):
        sim, dev = make_conv()
        cpl = run_cmd(sim, dev, read(0, 1))
        assert cpl.ok
        assert dev.backend.counters.pages_read == 0


class TestPrecondition:
    def test_precondition_maps_logical_space(self):
        sim, dev = make_conv()
        dev.precondition(1.0)
        assert dev.ftl.mapped_pages() == dev.ftl.logical_pages
        assert dev.ftl.write_amplification() == 1.0  # fill isn't counted

    def test_precondition_fraction(self):
        sim, dev = make_conv()
        dev.precondition(0.5)
        assert dev.ftl.mapped_pages() == pytest.approx(
            dev.ftl.logical_pages / 2, abs=1
        )

    def test_invalid_fraction_rejected(self):
        sim, dev = make_conv()
        with pytest.raises(ValueError):
            dev.precondition(1.5)

    def test_steady_state_is_pinned(self):
        """The preconditioned FTL state (the greedy victim order) is pinned.

        The digest was recorded with the original linear victim scan; any
        change to which victim GC picks, or to where relocated pages land,
        changes it.
        """
        sim, dev = make_conv()
        dev.precondition(0.92, steady_state_churn=1.5, seed=7)
        ftl = dev.ftl
        ftl.check_invariants()
        streams = [None if b is None or b.is_full else b.block_id
                   for b in (*ftl._user_active, *ftl._gc_active)]
        h = hashlib.sha256()
        l2p = [ftl.lookup(logical) for logical in range(ftl.logical_pages)]
        h.update(repr([(logical, physical) for logical, physical in enumerate(l2p)
                       if physical is not None]).encode())
        for block in ftl.blocks:
            h.update(repr((block.write_slot, block.valid_count,
                           list(block.slot_to_logical))).encode())
        h.update(repr([list(free) for free in ftl._free]).encode())
        h.update(repr((ftl._die_cursor, ftl.free_block_count, streams)).encode())
        assert h.hexdigest() == (
            "00718818658fb443a14e3c9ed4e879dd40a8cf6eb42b876f01cff67c3ac91a5d")


def reference_precondition(dev, utilization, churn, seed):
    """Per-page reference for ConvDevice.precondition: one commit_write
    per page, the watermark checked before every write, and per-slot
    relocation."""
    ftl, policy = dev.ftl, dev.gc_policy
    mapped = int(ftl.logical_pages * utilization)
    for logical in range(mapped):
        ftl.commit_write(logical)
    if churn > 0 and mapped > 0:
        rng = np.random.default_rng(seed)
        for logical in rng.integers(0, mapped, round(mapped * churn)):
            if policy.should_start(ftl.free_fraction):
                while ftl.free_fraction < policy.high_watermark:
                    victim = ftl.pick_victim()
                    if victim is None:
                        break
                    per_slot_relocate(ftl, victim)
                    ftl.erase(victim)
            ftl.commit_write(int(logical))
    ftl.total_user_pages_written = 0
    ftl.total_gc_pages_copied = 0


@settings(max_examples=25, deadline=None)
@given(utilization=st.floats(0, 1), churn=st.floats(0, 2),
       seed=st.integers(0, 2**32 - 1),
       overprovision=st.sampled_from([0.07, 0.04]))
# With overprovisioning close to the 3% low watermark, a full device
# cannot get back above it, so GC is retried before every write.
@example(utilization=1.0, churn=2.0, seed=0, overprovision=0.04)
@example(utilization=1.0, churn=2.0, seed=0, overprovision=0.07)
@example(utilization=0.92, churn=1.5, seed=7, overprovision=0.07)
def test_precondition_matches_per_page_reference(utilization, churn, seed,
                                                 overprovision):
    _, batched = make_conv(overprovision=overprovision)
    _, stepped = make_conv(overprovision=overprovision)
    batched.precondition(utilization, steady_state_churn=churn, seed=seed)
    reference_precondition(stepped, utilization, churn, seed)
    batched.ftl.check_invariants()
    assert ftl_state(batched.ftl) == ftl_state(stepped.ftl)


class TestGarbageCollectionBehaviour:
    def _flood(self, sim, dev, duration_ns, rng_seed=1):
        """Random full-page overwrites as fast as QD4 allows."""
        rng = np.random.default_rng(rng_seed)
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        pages = dev.namespace.capacity_lbas // page_lbas
        stop_at = sim.now + duration_ns

        def writer():
            while sim.now < stop_at:
                slba = int(rng.integers(0, pages)) * page_lbas
                yield dev.submit(write(slba, page_lbas))

        workers = [sim.process(writer()) for _ in range(4)]
        sim.run(until=sim.all_of(workers))

    def test_sustained_overwrites_trigger_gc(self):
        sim, dev = make_conv()
        dev.precondition(1.0)
        self._flood(sim, dev, sec(0.4))
        assert dev.gc_stats.activations >= 1
        assert dev.gc_stats.victims_erased > 0
        assert dev.gc_stats.pages_copied > 0
        assert dev.ftl.write_amplification() > 1.2
        dev.ftl.check_invariants()

    def test_gc_keeps_free_blocks_above_exhaustion(self):
        sim, dev = make_conv()
        dev.precondition(1.0)
        self._flood(sim, dev, sec(0.5))
        assert dev.ftl.free_block_count > 0
        dev.ftl.check_invariants()

    def test_gc_inflates_read_latency(self):
        """The §III-F mechanism: GC + writes inflate read tails."""
        sim, dev = make_conv()
        dev.precondition(1.0)
        # Idle read latency.
        idle = run_cmd(sim, dev, read(0, 1)).latency_ns

        rng = np.random.default_rng(7)
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        pages = dev.namespace.capacity_lbas // page_lbas
        stop = []

        def writer():
            while not stop:
                slba = int(rng.integers(0, pages)) * page_lbas
                yield dev.submit(write(slba, page_lbas))

        for _ in range(4):
            sim.process(writer())
        sim.run(until=sim.now + sec(0.2))  # build up GC + flush backlog
        latencies = []
        for _ in range(20):
            slba = int(rng.integers(0, pages)) * page_lbas
            latencies.append(run_cmd(sim, dev, read(slba, 1)).latency_ns)
        stop.append(True)
        assert max(latencies) > 5 * idle
        dev.ftl.check_invariants()

    def test_no_gc_without_overwrites(self):
        sim, dev = make_conv()
        page_lbas = dev.profile.geometry.page_size // dev.namespace.block_size
        for i in range(32):
            run_cmd(sim, dev, write(i * page_lbas, page_lbas))
        sim.run()
        assert dev.gc_stats.activations == 0
