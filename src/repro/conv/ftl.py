"""Page-mapped FTL for the conventional (block-interface) SSD model.

This is the substrate that makes the §III-F comparison meaningful: unlike
ZNS — where the host controls reclamation via ``reset`` — a conventional
SSD hides flash erase-before-write behind a logical-to-physical page map
and reclaims space with device-internal garbage collection.

Structure:

* the logical space is ``(1 - overprovision)`` of the raw flash capacity,
* each die keeps a pool of free blocks, one *user* active block and one
  *GC* active block (separated write streams),
* the logical→physical map is a dense int32 array (``-1`` = unmapped),
* writes allocate the next slot of the user active block on a
  round-robin die cursor, remap the logical page, and invalidate the old
  physical page,
* GC picks greedy victims (fewest valid pages) from an index of full
  blocks bucketed by valid count, relocates the survivors in one batch
  (the same slots per-page allocation would assign), and erases.

The FTL is pure bookkeeping (no simulated time); the device model drives
the matching NAND operations through the shared flash backend.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Optional, Sequence

from ..flash.geometry import FlashGeometry

__all__ = ["Block", "PageMappedFtl", "FtlFullError"]


#: Typecode of the page maps (L2P and the block back-maps): signed
#: 32-bit, which holds any page number of a geometry with fewer than
#: 2**31 pages (checked by :class:`PageMappedFtl`) in half the bytes of
#: int64. A finished point's FTL stays alive as long as its device, so
#: the map width sets how much of a point survives it.
_MAP = "i"
_MAP_LIMIT = 2**31


class FtlFullError(RuntimeError):
    """Raised when an allocation finds no free block anywhere."""


class Block:
    """One erase block: slot→logical back-map and validity accounting.

    The back-map is an int32 array (-1 = free or invalid slot), like the
    L2P: a list would hold one int object per written slot and be walked
    by every full cyclic-GC collection (DESIGN.md §10.2).
    """

    __slots__ = ("block_id", "die", "slot_to_logical", "write_slot",
                 "valid_count", "is_full")

    def __init__(self, block_id: int, die: int, pages_per_block: int):
        self.block_id = block_id
        self.die = die
        self.slot_to_logical = array(_MAP, [-1]) * pages_per_block
        self.write_slot = 0
        self.valid_count = 0
        self.is_full = False  # set when the last slot is written, cleared on erase


class PageMappedFtl:
    """Logical→physical page mapping with per-die block pools."""

    def __init__(self, geometry: FlashGeometry, overprovision: float = 0.07,
                 spare_blocks_per_die: int = 0):
        if not 0 <= overprovision < 1:
            raise ValueError(f"overprovision must be in [0, 1), got {overprovision}")
        self.geometry = geometry
        self.overprovision = overprovision
        self.pages_per_block = geometry.pages_per_block
        self.logical_pages = int(geometry.total_pages * (1 - overprovision))
        if self.logical_pages <= 0:
            raise ValueError("geometry too small for any logical capacity")
        if geometry.total_pages >= _MAP_LIMIT:
            raise ValueError(
                f"geometry has {geometry.total_pages} pages; the page maps "
                f"hold page numbers below {_MAP_LIMIT}")
        #: Dense L2P: ``_l2p[logical]`` is the physical page, -1 if unmapped.
        #: An int32 array, not a list: it holds no int objects, and the
        #: cyclic garbage collector does not walk it on every full pass.
        self._l2p = array(_MAP, [-1]) * self.logical_pages
        self._mapped = 0
        self._total_dies = geometry.total_dies
        self._total_blocks = geometry.total_blocks
        blocks_per_die = geometry.planes_per_die * geometry.blocks_per_plane
        if not 0 <= spare_blocks_per_die < blocks_per_die:
            raise ValueError(
                f"spare_blocks_per_die must be in [0, {blocks_per_die}), "
                f"got {spare_blocks_per_die}")
        self.blocks: list[Block] = []
        self._free: list[deque[int]] = [deque() for _ in range(geometry.total_dies)]
        #: Bad-block management (DESIGN.md §17): factory spares held out
        #: of circulation until an erase failure retires a block, plus
        #: the retired set and the replacement blocks promoted from the
        #: spare pool (accesses to those pay the remap indirection).
        self._spare: list[deque[int]] = [deque() for _ in range(geometry.total_dies)]
        self.bad_blocks: set[int] = set()
        self.remapped_blocks: set[int] = set()
        for die in range(geometry.total_dies):
            for b in range(blocks_per_die):
                block_id = die * blocks_per_die + b
                self.blocks.append(Block(block_id, die, self.pages_per_block))
                if b >= blocks_per_die - spare_blocks_per_die:
                    self._spare[die].append(block_id)
                else:
                    self._free[die].append(block_id)
        self._user_active: list[Optional[Block]] = [None] * geometry.total_dies
        self._gc_active: list[Optional[Block]] = [None] * geometry.total_dies
        self._die_cursor = 0
        #: Greedy victim index (DESIGN.md §10.1): bucket ``v`` holds the
        #: ids of the full, non-bad blocks with ``valid_count == v``.
        self._buckets: list[set[int]] = [set() for _ in range(self.pages_per_block + 1)]
        self.free_block_count = (
            geometry.total_blocks - spare_blocks_per_die * geometry.total_dies
        )
        self.total_user_pages_written = 0
        self.total_gc_pages_copied = 0

    # -- introspection -----------------------------------------------------
    @property
    def free_fraction(self) -> float:
        return self.free_block_count / self._total_blocks

    def mapped_pages(self) -> int:
        return self._mapped

    def write_amplification(self) -> float:
        """Cumulative WA = (user + GC copies) / user pages."""
        if self.total_user_pages_written == 0:
            return 1.0
        return (
            self.total_user_pages_written + self.total_gc_pages_copied
        ) / self.total_user_pages_written

    def lookup(self, logical_page: int) -> Optional[int]:
        """Physical page id of a logical page, or None if unmapped."""
        self._check_logical(logical_page)
        physical = self._l2p[logical_page]
        return None if physical < 0 else physical

    def die_of_physical(self, physical_page: int) -> int:
        return self.blocks[physical_page // self.pages_per_block].die

    def block_of_physical(self, physical_page: int) -> int:
        return physical_page // self.pages_per_block

    def is_remapped(self, physical_page: int) -> bool:
        """True if the page lives on a spare promoted after a bad block
        (accesses pay the firmware's remap-table indirection)."""
        return physical_page // self.pages_per_block in self.remapped_blocks

    def spare_blocks_left(self, die: int) -> int:
        return len(self._spare[die])

    # -- writes --------------------------------------------------------------
    def commit_write(self, logical_page: int, reserve: int = 0) -> int:
        """Remap a logical page to a fresh slot; returns the physical page.

        Invalidates the previous physical location (the flash "overwrite
        illusion"). The caller is responsible for simulating the program
        operation on the returned page's die.

        ``reserve`` free blocks are kept untouchable by this (user-path)
        allocation so garbage collection always has relocation
        destinations; :class:`FtlFullError` signals the caller to wait
        for GC rather than a corrupted state.
        """
        self.commit_run((logical_page,), 0, reserve)
        return self._l2p[logical_page]

    def commit_run(self, logicals: Sequence[int], start: int,
                   reserve: int = 0) -> int:
        """Commit ``logicals[start:]`` in order, as :meth:`commit_write`
        would one by one, up to the first write that takes a fresh free
        block.

        That write is the only one that changes :attr:`free_fraction`,
        so a caller steering GC by the free fraction checks it between
        runs. Returns the index after the last committed page
        (``len(logicals)`` once the run is through).
        """
        l2p = self._l2p
        active_set = self._user_active
        ppb = self.pages_per_block
        last_slot = ppb - 1
        dies = self._total_dies
        limit = self.logical_pages
        for i in range(start, len(logicals)):
            logical = logicals[i]
            if not 0 <= logical < limit:
                self._check_logical(logical)
            die = self._die_cursor
            block = active_set[die]
            if block is not None and block.write_slot < last_slot:
                # The common case, inline: the cursor's die has an open
                # block that this write does not fill.
                self._die_cursor = die + 1 if die + 1 < dies else 0
                slot = block.write_slot
                block.write_slot = slot + 1
                block.slot_to_logical[slot] = logical
                block.valid_count += 1
                physical = block.block_id * ppb + slot
                fresh = False
            else:
                free = self.free_block_count
                physical = self._allocate(active_set, logical, reserve)
                fresh = self.free_block_count != free
            old = l2p[logical]
            l2p[logical] = physical
            if old < 0:
                self._mapped += 1
            else:
                self._invalidate_physical(old)
            self.total_user_pages_written += 1
            if fresh:
                return i + 1
        return len(logicals)

    def trim(self, logical_page: int) -> bool:
        """Unmap a logical page (NVMe deallocate); True if it was mapped."""
        self._check_logical(logical_page)
        old = self._l2p[logical_page]
        if old < 0:
            return False
        self._l2p[logical_page] = -1
        self._mapped -= 1
        self._invalidate_physical(old)
        return True

    # -- garbage collection ----------------------------------------------------
    def pick_victim(self, exclude: Optional[set[int]] = None) -> Optional[Block]:
        """Greedy victim: the full block with the fewest valid pages.

        Ties go to the lowest ``block_id``. Fully valid blocks yield
        nothing and are never picked, nor are retired ones. ``exclude``
        skips blocks already being collected (lets a pipelined GC pick
        several victims concurrently).
        """
        for bucket in self._buckets[:-1]:
            if exclude and bucket:
                bucket = bucket - exclude
            if bucket:
                return self.blocks[min(bucket)]
        return None

    def relocate_block(self, victim: Block) -> list[int]:
        """Move a victim's valid pages out, in slot order.

        Returns the new physical pages; the caller simulates each read
        (victim die) + program (new page's die). The survivors land on
        the slots that one GC-stream allocation per page would give them
        (:meth:`_allocate_run`). If they do not fit, :class:`FtlFullError`
        is raised and nothing changes.
        """
        live = [logical for logical in victim.slot_to_logical if logical >= 0]
        if not live:
            return []
        if not victim.is_full:
            raise ValueError(f"block {victim.block_id} is still open")
        moved = self._allocate_run(self._gc_active, live)
        self._buckets[victim.valid_count].remove(victim.block_id)
        self._buckets[0].add(victim.block_id)
        victim.slot_to_logical = array(_MAP, [-1]) * self.pages_per_block
        victim.valid_count = 0
        l2p = self._l2p
        for logical, physical in zip(live, moved):
            l2p[logical] = physical
        self.total_gc_pages_copied += len(moved)
        return moved

    def erase(self, victim: Block) -> None:
        """Recycle a victim block (caller simulates the NAND erase)."""
        if victim.valid_count != 0:
            raise ValueError(
                f"erasing block {victim.block_id} with {victim.valid_count} valid pages"
            )
        self._buckets[0].discard(victim.block_id)
        victim.slot_to_logical = array(_MAP, [-1]) * self.pages_per_block
        victim.write_slot = 0
        victim.is_full = False
        self._free[victim.die].append(victim.block_id)
        self.free_block_count += 1

    def retire_block(self, victim: Block) -> Optional[Block]:
        """Bad-block management: pull a failed-erase victim out of
        circulation and promote a factory spare in its place.

        The victim must be collected: full, with no valid pages (a free
        or still-active block raises ``ValueError``). Returns the
        promoted spare ``Block`` — flagged in ``remapped_blocks`` so the
        device charges the remap-table indirection on later accesses —
        or ``None`` when the die's spare pool is exhausted (the die
        simply shrinks: one fewer block in rotation).
        """
        if victim.valid_count != 0:
            raise ValueError(
                f"retiring block {victim.block_id} with "
                f"{victim.valid_count} valid pages"
            )
        if not victim.is_full or victim.block_id in self.bad_blocks:
            raise ValueError(f"block {victim.block_id} is not a collected victim")
        self.bad_blocks.add(victim.block_id)
        self._buckets[0].remove(victim.block_id)  # stays full: never allocated again
        spares = self._spare[victim.die]
        if not spares:
            return None
        spare_id = spares.popleft()
        self.remapped_blocks.add(spare_id)
        self._free[victim.die].append(spare_id)
        self.free_block_count += 1
        return self.blocks[spare_id]

    def check_invariants(self) -> None:
        """Assert the mapping, pool and victim-index invariants (used by
        property tests)."""
        ppb = self.pages_per_block
        live: dict[int, int] = {}
        buckets: list[set[int]] = [set() for _ in self._buckets]
        for block in self.blocks:
            slots = [s for s, logical in enumerate(block.slot_to_logical) if logical >= 0]
            assert block.valid_count == len(slots), f"block {block.block_id} valid-count drift"
            assert block.is_full == (block.write_slot == ppb), "is_full drift"
            for slot in slots:
                logical = block.slot_to_logical[slot]
                assert logical not in live, f"logical page {logical} mapped twice"
                live[logical] = block.block_id * ppb + slot
            if block.is_full and block.block_id not in self.bad_blocks:
                buckets[block.valid_count].add(block.block_id)
        l2p = {logical: physical for logical, physical in enumerate(self._l2p)
               if physical >= 0}
        assert live == l2p, "L2P and back-maps disagree"
        assert self._mapped == len(l2p), "mapped-page count drift"
        assert buckets == self._buckets, "victim index drift"
        free = [block_id for pool in self._free for block_id in pool]
        assert self.free_block_count == len(free), "free-block count drift"
        free_set = set(free)
        spare = {block_id for pool in self._spare for block_id in pool}
        assert len(free_set) == len(free), "block on a free list twice"
        assert not (free_set & spare or free_set & self.bad_blocks
                    or spare & self.bad_blocks), "free/spare/bad pools overlap"
        assert all(self.blocks[b].write_slot == 0 for b in free), "unerased free block"
        active = {b.block_id for b in (*self._user_active, *self._gc_active)
                  if b is not None}
        assert not active & free_set, "active block on a free list"

    # -- internals ----------------------------------------------------------
    def _check_logical(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.logical_pages:
            raise ValueError(
                f"logical page {logical_page} out of range [0, {self.logical_pages})"
            )

    def _invalidate_physical(self, physical: int) -> None:
        block = self.blocks[physical // self.pages_per_block]
        slot = physical % self.pages_per_block
        if block.slot_to_logical[slot] < 0:
            raise ValueError(f"double invalidate of physical page {physical}")
        block.slot_to_logical[slot] = -1
        valid = block.valid_count
        block.valid_count = valid - 1
        if block.is_full:
            self._buckets[valid].remove(block.block_id)
            self._buckets[valid - 1].add(block.block_id)

    def _allocate(self, active_set: list[Optional[Block]], logical: int,
                  reserve: int = 0) -> int:
        dies = self._total_dies
        for _ in range(dies):
            die = self._die_cursor
            self._die_cursor = (self._die_cursor + 1) % dies
            block = active_set[die]
            if block is None:
                if self.free_block_count <= reserve:
                    continue  # don't eat into the GC reserve
                block = self._take_free_block(die)
                if block is None:
                    continue
                active_set[die] = block
            slot = block.write_slot
            block.write_slot = slot + 1
            block.slot_to_logical[slot] = logical
            block.valid_count += 1
            if slot + 1 == self.pages_per_block:
                block.is_full = True
                self._buckets[block.valid_count].add(block.block_id)
                active_set[die] = None  # a stream never holds a full block
            return block.block_id * self.pages_per_block + slot
        raise FtlFullError("no allocatable block outside the GC reserve")

    def _allocate_run(self, active_set: list[Optional[Block]],
                      logicals: list[int], reserve: int = 0) -> list[int]:
        """Place ``logicals`` in order; returns their physical pages.

        Assigns exactly the slots that one :meth:`_allocate` call per
        page would: dies take pages round-robin from ``_die_cursor``; a
        die whose open block is used up takes its next free block on its
        turn while more than ``reserve`` free blocks remain, and is
        skipped from then on once it cannot. Unlike those calls, a run
        that does not fit raises :class:`FtlFullError` before anything
        changes.

        Rounds in which no die needs a fresh block are written as list
        slices: with ``width`` dies taking turns, the die at position
        ``j`` gets every ``width``-th page from ``j`` on.
        """
        ppb = self.pages_per_block
        room = [0 if block is None else ppb - block.write_slot
                for block in active_set]
        budget = self.free_block_count - reserve
        total = len(logicals)
        if total > sum(room) + ppb * max(budget, 0):
            raise FtlFullError("no allocatable block outside the GC reserve")
        if not total:
            return []
        dies = self._total_dies
        cursor = self._die_cursor
        rotation = [*range(cursor, dies), *range(cursor)]
        free = self._free
        buckets = self._buckets
        physical = [0] * total
        pos = 0
        while pos < total:
            # One rotation, in visit order: a die out of room takes a
            # free block now or sits this and every later turn out.
            turn = []
            for die in rotation:
                if len(turn) == total - pos:
                    break
                if not room[die]:
                    if budget <= 0 or not free[die]:
                        continue
                    active_set[die] = self._take_free_block(die)
                    room[die] = ppb
                    budget -= 1
                turn.append(die)
            width = len(turn)
            rounds = min(min(room[die] for die in turn), (total - pos) // width)
            stop = pos + rounds * width
            for first, die in enumerate(turn, pos):
                block = active_set[die]
                slot = block.write_slot
                end = slot + rounds
                block.slot_to_logical[slot:end] = array(_MAP, logicals[first:stop:width])
                base = block.block_id * ppb
                physical[first:stop:width] = range(base + slot, base + end)
                block.write_slot = end
                block.valid_count += rounds
                room[die] -= rounds
                if end == ppb:
                    block.is_full = True
                    buckets[block.valid_count].add(block.block_id)
                    active_set[die] = None
            pos = stop
        self._die_cursor = (turn[-1] + 1) % dies
        return physical

    def _take_free_block(self, die: int) -> Optional[Block]:
        if not self._free[die]:
            return None
        block_id = self._free[die].popleft()
        self.free_block_count -= 1
        return self.blocks[block_id]
