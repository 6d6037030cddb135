"""Unit + property tests for the page-mapped FTL and GC policy."""

from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conv import FtlFullError, GcPolicy, GcStats, PageMappedFtl
from repro.conv.ftl import Block
from repro.flash import KIB, FlashGeometry


def tiny_geometry(**overrides) -> FlashGeometry:
    base = dict(
        channels=2,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=4,
        page_size=4 * KIB,
    )
    base.update(overrides)
    return FlashGeometry(**base)


def run_gc_until(ftl: PageMappedFtl, target_free: float) -> None:
    """Synchronously drain GC bookkeeping until a free fraction is reached."""
    while ftl.free_fraction < target_free:
        victim = ftl.pick_victim()
        assert victim is not None, "no victim available"
        ftl.relocate_block(victim)
        assert victim.valid_count == 0
        ftl.erase(victim)


def ftl_state(ftl: PageMappedFtl) -> tuple:
    """Everything the FTL's future behaviour depends on, comparable with ==."""
    def ids(stream):
        return [None if block is None else block.block_id for block in stream]

    return (
        list(ftl._l2p), ftl.mapped_pages(),
        [(b.write_slot, b.valid_count, b.is_full, list(b.slot_to_logical))
         for b in ftl.blocks],
        [list(pool) for pool in ftl._free], [list(pool) for pool in ftl._spare],
        ids(ftl._user_active), ids(ftl._gc_active),
        ftl._die_cursor, ftl.free_block_count,
        [set(bucket) for bucket in ftl._buckets],
        set(ftl.bad_blocks), set(ftl.remapped_blocks),
        ftl.total_user_pages_written, ftl.total_gc_pages_copied,
    )


def per_slot_relocate(ftl: PageMappedFtl, victim: Block) -> list[int]:
    """Reference relocation: invalidate, then allocate, one slot at a time."""
    base = victim.block_id * ftl.pages_per_block
    moved = []
    for slot, logical in enumerate(victim.slot_to_logical):
        if logical >= 0:
            ftl._invalidate_physical(base + slot)
            physical = ftl._allocate(ftl._gc_active, logical)
            ftl._l2p[logical] = physical
            moved.append(physical)
    ftl.total_gc_pages_copied += len(moved)
    return moved


class TestMapping:
    def test_initial_state_all_free_unmapped(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        assert ftl.free_fraction == 1.0
        assert ftl.mapped_pages() == 0
        assert ftl.logical_pages == int(16 * 4 * 0.75)

    def test_geometry_beyond_int32_page_maps_is_refused(self):
        # 2 dies x 2**22 blocks x 2**8 pages = 2**31 pages: one past what
        # the int32 maps hold. Refused before any map is allocated.
        with pytest.raises(ValueError, match="page numbers below"):
            PageMappedFtl(tiny_geometry(blocks_per_plane=2**22,
                                        pages_per_block=2**8))

    def test_write_then_lookup(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        physical = ftl.commit_write(7)
        assert ftl.lookup(7) == physical
        assert ftl.lookup(8) is None

    def test_overwrite_invalidates_old_location(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        first = ftl.commit_write(3)
        second = ftl.commit_write(3)
        assert first != second
        assert ftl.lookup(3) == second
        old_block = ftl.blocks[first // ftl.pages_per_block]
        assert old_block.slot_to_logical[first % ftl.pages_per_block] == -1

    def test_trim_unmaps(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        ftl.commit_write(3)
        assert ftl.trim(3) is True
        assert ftl.lookup(3) is None
        assert ftl.trim(3) is False

    def test_out_of_range_logical_rejected(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        with pytest.raises(ValueError):
            ftl.lookup(ftl.logical_pages)
        with pytest.raises(ValueError):
            ftl.commit_write(-1)

    def test_writes_spread_across_dies(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        dies = {ftl.die_of_physical(ftl.commit_write(i)) for i in range(4)}
        assert dies == {0, 1}

    def test_overprovision_validation(self):
        with pytest.raises(ValueError):
            PageMappedFtl(tiny_geometry(), overprovision=1.0)
        with pytest.raises(ValueError):
            PageMappedFtl(tiny_geometry(), overprovision=-0.1)


class TestGarbageCollection:
    def test_victim_is_block_with_fewest_valid_pages(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        # Fill enough pages to close several blocks, then overwrite the
        # first few logical pages to create garbage in the oldest blocks.
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        for logical in range(4):
            ftl.commit_write(logical)
        victim = ftl.pick_victim()
        assert victim is not None
        assert victim.valid_count < ftl.pages_per_block

    def test_relocate_preserves_all_mappings(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        for logical in range(0, ftl.logical_pages, 2):
            ftl.commit_write(logical)  # create garbage
        before = {l: ftl.lookup(l) for l in range(ftl.logical_pages)}
        assert all(p is not None for p in before.values())
        run_gc_until(ftl, 0.4)
        after = {l: ftl.lookup(l) for l in range(ftl.logical_pages)}
        assert all(p is not None for p in after.values())

    def test_erase_requires_no_valid_pages(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        # Two dies round-robin, so filling 2 blocks' worth of pages closes
        # one block on each die.
        for logical in range(2 * ftl.pages_per_block):
            ftl.commit_write(logical)
        full_block = next(b for b in ftl.blocks if b.is_full)
        with pytest.raises(ValueError):
            ftl.erase(full_block)

    def test_erased_block_is_no_stream_active_block(self):
        # A stream used to keep its last, full block as "active". Once GC
        # erased that block, the stream wrote into it while it also sat
        # on the free list, waiting to be handed out a second time.
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        for _ in range(7):
            ftl.commit_write(0)
        victim = ftl.pick_victim()
        ftl.relocate_block(victim)
        ftl.erase(victim)
        assert victim not in (*ftl._user_active, *ftl._gc_active)
        ftl.check_invariants()

    def test_relocation_out_of_space_changes_nothing(self):
        # Relocation used to invalidate a slot before allocating its new
        # home; when the allocation raised FtlFullError the logical page
        # still mapped to the invalidated slot.
        geometry = tiny_geometry(blocks_per_plane=4)
        ftl = PageMappedFtl(geometry, overprovision=0)
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        ftl.trim(0)
        before = ftl_state(ftl)
        with pytest.raises(FtlFullError):
            ftl.relocate_block(ftl.pick_victim())
        assert ftl_state(ftl) == before
        ftl.check_invariants()

    def test_relocating_an_open_block_is_refused(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        ftl.commit_write(0)
        before = ftl_state(ftl)
        with pytest.raises(ValueError, match="still open"):
            ftl.relocate_block(ftl.blocks[0])
        assert ftl_state(ftl) == before

    def test_write_amplification_accounting(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.5)
        for logical in range(ftl.logical_pages):
            ftl.commit_write(logical)
        assert ftl.write_amplification() == 1.0
        # Stride 3 so garbage lands *partially* in each block (stride 2
        # would align with the two-die round-robin and leave fully
        # invalid victims that GC reclaims copy-free).
        for logical in range(0, ftl.logical_pages, 3):
            ftl.commit_write(logical)
        run_gc_until(ftl, 0.35)
        assert ftl.write_amplification() > 1.0

    def test_ftl_full_raises_when_gc_absent(self):
        ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
        with pytest.raises(FtlFullError):
            # Overwrite endlessly without ever erasing.
            for round_ in range(100):
                for logical in range(ftl.logical_pages):
                    ftl.commit_write(logical)


class TestGcPolicy:
    def test_hysteresis(self):
        policy = GcPolicy(low_watermark=0.05, high_watermark=0.10)
        assert policy.should_start(0.04)
        assert not policy.should_start(0.06)
        assert policy.should_stop(0.10)
        assert not policy.should_stop(0.09)

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError):
            GcPolicy(low_watermark=0.2, high_watermark=0.1)
        with pytest.raises(ValueError):
            GcPolicy(low_watermark=0.0, high_watermark=0.1)

    def test_stats_accumulate_busy_time(self):
        stats = GcStats()
        stats.start_run(100)
        stats.end_run(500)
        stats.start_run(900)
        stats.end_run(1000)
        assert stats.busy_ns == 500
        assert stats.activations == 2


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(st.integers(0, 23), min_size=1, max_size=300),
)
def test_mapping_integrity_under_random_overwrites_and_gc(writes):
    """No logical page is ever lost, and validity accounting stays exact."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25)
    written: set[int] = set()
    for logical in writes:
        if ftl.free_fraction < 0.2:
            run_gc_until(ftl, 0.3)
        ftl.commit_write(logical)
        written.add(logical)
        ftl.check_invariants()
        total_valid = sum(b.valid_count for b in ftl.blocks)
        assert total_valid == ftl.mapped_pages() == len(written)
    for logical in written:
        physical = ftl.lookup(logical)
        block = ftl.blocks[physical // ftl.pages_per_block]
        assert block.slot_to_logical[physical % ftl.pages_per_block] == logical


def linear_scan_victim(ftl: PageMappedFtl,
                       exclude: Optional[set[int]] = None) -> Optional[Block]:
    """Reference greedy victim: the original scan over every block."""
    active = {
        b.block_id
        for b in (*ftl._user_active, *ftl._gc_active)
        if b is not None and not b.is_full
    }
    if exclude:
        active |= exclude
    best: Optional[Block] = None
    for block in ftl.blocks:
        if block.block_id in active or not block.is_full:
            continue
        if block.block_id in ftl.bad_blocks:
            continue
        if block.write_slot - block.valid_count == 0 and block.valid_count > 0:
            continue  # fully valid: nothing to reclaim
        if best is None or block.valid_count < best.valid_count:
            best = block
            if best.valid_count == 0:
                break
    return best


FTL_OPS = st.sampled_from(["write"] * 6 + ["trim"] * 2 + ["gc"] * 3 + ["retire"])


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(FTL_OPS, st.integers(0, 23),
                  st.frozensets(st.integers(0, 15), max_size=6)),
        min_size=30, max_size=200,
    ),
)
def test_indexed_victim_matches_linear_scan(steps):
    """The bucketed victim index picks exactly what the full scan picks,
    under writes, trims, GC with in-flight exclusions and retirement."""
    ftl = PageMappedFtl(tiny_geometry(), overprovision=0.25,
                        spare_blocks_per_die=1)
    for op, logical, exclude in steps:
        exclude = set(exclude)
        victim = ftl.pick_victim(exclude)
        assert victim is linear_scan_victim(ftl, exclude)
        assert ftl.pick_victim() is linear_scan_victim(ftl)
        if op == "write":
            try:
                ftl.commit_write(logical)
            except FtlFullError:
                pass
        elif op == "trim":
            ftl.trim(logical)
        elif victim is not None and ftl.free_block_count > 0:
            # One free block always holds a victim's (< pages_per_block)
            # survivors, so relocation cannot run out of destinations.
            ftl.relocate_block(victim)
            if op == "gc":
                ftl.erase(victim)
            else:
                ftl.retire_block(victim)
        ftl.check_invariants()
    assert ftl.pick_victim() is linear_scan_victim(ftl)


# Random FTL states on tiny geometries for the differential tests below.
# "steer" points the die cursor at one die so that dies use up their
# free blocks unevenly; spares and retirements shrink some dies further;
# "fill" rewrites the whole logical space until the FTL runs out of room.
SETUP_OPS = st.lists(
    st.tuples(st.sampled_from(["write"] * 8 + ["trim"] * 3 + ["gc"] * 2
                              + ["retire", "steer", "fill"]),
              st.integers(0, 10_000), st.integers(0, 3)),
    max_size=120,
)
GEOMETRY = st.tuples(st.integers(1, 3), st.integers(2, 5), st.integers(2, 5),
                     st.sampled_from([0.0, 0.25, 0.5]), st.integers(0, 1))


def build_ftl(shape, ops) -> PageMappedFtl:
    dies, blocks_per_die, pages_per_block, overprovision, spares = shape
    geometry = FlashGeometry(channels=dies, dies_per_channel=1, planes_per_die=1,
                             blocks_per_plane=blocks_per_die,
                             pages_per_block=pages_per_block, page_size=4 * KIB)
    ftl = PageMappedFtl(geometry, overprovision=overprovision,
                        spare_blocks_per_die=min(spares, blocks_per_die - 1))
    for op, value, reserve in ops:
        logical = value % ftl.logical_pages
        if op == "write":
            try:
                ftl.commit_write(logical, reserve=reserve)
            except FtlFullError:
                pass
        elif op == "trim":
            ftl.trim(logical)
        elif op == "steer":
            ftl._die_cursor = value % dies
        elif op == "fill":
            try:
                for page in range(ftl.logical_pages):
                    ftl.commit_write(page)
            except FtlFullError:
                pass
        else:
            victim = ftl.pick_victim()
            if victim is None:
                continue
            try:
                ftl.relocate_block(victim)
            except FtlFullError:
                continue
            if op == "gc":
                ftl.erase(victim)
            else:
                ftl.retire_block(victim)
    ftl.check_invariants()
    return ftl


@settings(max_examples=200, deadline=None)
@given(shape=GEOMETRY, ops=SETUP_OPS, gc_stream=st.booleans(),
       pages=st.integers(0, 8) | st.integers(0, 60),
       takeable=st.none() | st.integers(-1, 3))
# Die 1 has no open block and may not take one: it must be skipped.
@example(shape=(2, 4, 4, 0.5, 0), ops=[("write", 0, 0)], gc_stream=False,
         pages=2, takeable=0)
def test_allocate_run_matches_per_page_allocation(shape, ops, gc_stream,
                                                  pages, takeable):
    """One batched placement assigns the slots per-page calls would, and
    raises (changing nothing) exactly when those calls run out.

    ``takeable`` sets the reserve so that only that many free blocks can
    be taken (None: no reserve)."""
    batched, stepped = build_ftl(shape, ops), build_ftl(shape, ops)
    stream = "_gc_active" if gc_stream else "_user_active"
    reserve = 0 if takeable is None else max(0, batched.free_block_count - takeable)
    logicals = list(range(100, 100 + pages))
    before = ftl_state(batched)
    try:
        expected = [stepped._allocate(getattr(stepped, stream), logical, reserve)
                    for logical in logicals]
    except FtlFullError:
        with pytest.raises(FtlFullError):
            batched._allocate_run(getattr(batched, stream), logicals, reserve)
        assert ftl_state(batched) == before
        return
    got = batched._allocate_run(getattr(batched, stream), logicals, reserve)
    assert got == expected
    assert ftl_state(batched) == ftl_state(stepped)


@settings(max_examples=200, deadline=None)
@given(shape=GEOMETRY, ops=SETUP_OPS)
def test_relocate_block_matches_per_slot_reference(shape, ops):
    """Whole-victim relocation leaves the state the per-slot loop leaves,
    and is atomic where that loop is not."""
    batched, stepped = build_ftl(shape, ops), build_ftl(shape, ops)
    victim = batched.pick_victim()
    if victim is None:
        return
    before = ftl_state(batched)
    try:
        expected = per_slot_relocate(stepped, stepped.blocks[victim.block_id])
    except FtlFullError:
        with pytest.raises(FtlFullError):
            batched.relocate_block(victim)
        assert ftl_state(batched) == before
        batched.check_invariants()
        return
    assert batched.relocate_block(victim) == expected
    assert ftl_state(batched) == ftl_state(stepped)
    batched.check_invariants()
