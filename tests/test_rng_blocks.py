"""Block-drawn randomness is a pure performance knob.

``LatencySampler`` pre-draws jitter factors in refillable blocks;
``Generator.normal(size=N)`` is bit-identical to N sequential scalar
draws, so the block size must never change a single simulated result
(the draw-order contract, DESIGN.md §15). These tests pin that down at
three levels: the raw sampler sequence, whole serial experiment
artifacts (with and without chaos fault injection), and parallel
execution — where the knob must reach pool workers through the
environment.

``BoundedDraws`` extends the contract to bounded-integer draws: it reads
raw PCG64 words in blocks and must give exactly ``int(rng.integers(0,
n))``, draw for draw, at any block size and from any buffered state; the
access patterns that use it must issue the commands scalar draws give.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import execute_experiments
from repro.hostif import Opcode
from repro.sim.rng import DEFAULT_JITTER_BLOCK, LatencySampler, StreamFactory
from repro.workload.patterns import (
    BACKOFF,
    BoundedDraws,
    RandomReadPattern,
    RangePattern,
    ZoneAppendCursor,
)

from .test_exec import results_blob, tiny_config
from .util import make_device

BLOCKS = (1, 16, 4096)


def _fresh_sampler(block=None) -> LatencySampler:
    return LatencySampler(StreamFactory(seed=7).stream("jitter"),
                          sigma=0.05, block=block)


class TestSamplerDrawOrder:
    def test_block_size_never_changes_draws(self):
        # Span several refills of every block size (including many
        # refills at block=1 and a partial final block at 4096).
        nominals = [100, 10_000, 1_000_000] * 3_000
        reference = None
        for block in (1, 16, 256, 4096):
            sampler = _fresh_sampler(block)
            draws = [sampler.jitter(n) for n in nominals]
            if reference is None:
                reference = draws
            else:
                assert draws == reference, f"block={block} diverged"

    def test_batched_normal_matches_scalar_draws(self):
        # The numpy guarantee the whole design rests on.
        batched = np.random.default_rng(42).normal(0.0, 1.0, size=64)
        scalar_rng = np.random.default_rng(42)
        scalars = [scalar_rng.normal(0.0, 1.0) for _ in range(64)]
        assert batched.tolist() == scalars

    def test_env_var_sets_block(self, monkeypatch):
        monkeypatch.setenv("REPRO_JITTER_BLOCK", "32")
        assert _fresh_sampler()._block == 32
        # An explicit constructor argument still wins.
        assert _fresh_sampler(block=8)._block == 8

    def test_default_block(self, monkeypatch):
        monkeypatch.delenv("REPRO_JITTER_BLOCK", raising=False)
        assert _fresh_sampler()._block == DEFAULT_JITTER_BLOCK

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError, match="block"):
            _fresh_sampler(block=0)


def _run_blob(monkeypatch, block=None, jobs=1, faults=None) -> str:
    if block is None:
        monkeypatch.delenv("REPRO_JITTER_BLOCK", raising=False)
    else:
        monkeypatch.setenv("REPRO_JITTER_BLOCK", str(block))
    config = tiny_config() if faults is None else tiny_config(faults=faults)
    results, _report = execute_experiments(["fig2a"], config, jobs=jobs)
    return results_blob(results)


class TestExperimentIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        blobs = {}
        for faults in (None, "chaos"):
            config = (tiny_config() if faults is None
                      else tiny_config(faults=faults))
            results, _ = execute_experiments(["fig2a"], config, jobs=1)
            blobs[faults] = results_blob(results)
        return blobs

    @pytest.mark.parametrize("block", BLOCKS)
    def test_serial_artifacts_identical(self, block, reference, monkeypatch):
        assert _run_blob(monkeypatch, block=block) == reference[None]

    @pytest.mark.parametrize("block", (1, 4096))
    def test_chaos_artifacts_identical(self, block, reference, monkeypatch):
        assert (_run_blob(monkeypatch, block=block, faults="chaos")
                == reference["chaos"])

    def test_parallel_workers_inherit_block(self, reference, monkeypatch):
        # The knob is an environment variable precisely so pool workers
        # pick it up under fork *and* spawn; a module-global would be
        # invisible to spawned workers.
        assert _run_blob(monkeypatch, block=16, jobs=4) == reference[None]


# ------------------------------------------------------ bounded integers

#: Bounds at the edges of numpy's code paths: no draw (1), the 32-bit
#: Lemire path (2 .. 2**32 - 1), the raw 32-bit half (2**32), and the
#: 64-bit Lemire path up to the int64 limit (2**63).
EDGE_BOUNDS = (1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
               2**62 + 1, 2**63 - 1, 2**63)

bounds = st.one_of(
    st.sampled_from(EDGE_BOUNDS),
    st.integers(1, 1_000),
    st.integers(1, 2**32 + 8),
    st.integers(2**63 - 2**40, 2**63),
    st.integers(1, 2**63),
)


def _generator(seed: int, buffered_half: bool) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    if buffered_half:
        rng.integers(0, 10)  # leaves the high half of a word buffered
    return rng


class TestBoundedDraws:
    @settings(max_examples=150, deadline=None)
    @given(seq=st.lists(bounds, min_size=1, max_size=400),
           seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from((1, 7, 256)),
           buffered_half=st.booleans())
    def test_matches_generator_integers(self, seq, seed, block, buffered_half):
        reference = _generator(seed, buffered_half)
        draws = BoundedDraws(_generator(seed, buffered_half), block=block)
        expected = [int(reference.integers(0, n)) for n in seq]
        assert [draws.below(n) for n in seq] == expected

    @pytest.mark.parametrize("seed", (0, 1, 0x5EED))
    @pytest.mark.parametrize("block", (1, 7, 256))
    @pytest.mark.parametrize("buffered_half", (False, True))
    def test_long_interleaved_run(self, seed, block, buffered_half):
        # Many refills of every block size, with every code path
        # interleaved so a buffered half crosses 64-bit draws.
        seq = [max(1, EDGE_BOUNDS[i % len(EDGE_BOUNDS)] - i % 3)
               for i in range(6_000)]
        reference = _generator(seed, buffered_half)
        draws = BoundedDraws(_generator(seed, buffered_half), block=block)
        assert [draws.below(n) for n in seq] == [
            int(reference.integers(0, n)) for n in seq]

    def test_rejects_out_of_range_bounds(self):
        draws = BoundedDraws(np.random.default_rng(0))
        for n in (0, -1, 2**63 + 1):
            with pytest.raises(ValueError):
                draws.below(n)

    def test_rejects_other_bit_generators_and_bad_blocks(self):
        with pytest.raises(ValueError, match="PCG64"):
            BoundedDraws(np.random.Generator(np.random.MT19937(0)))
        with pytest.raises(ValueError, match="block"):
            BoundedDraws(np.random.default_rng(0), block=0)


class _ScalarDraws:
    """The reference the patterns used before: one numpy call per draw."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def below(self, n: int) -> int:
        return int(self._rng.integers(0, n))


def _commands(pattern, count: int) -> list:
    out = []
    for _ in range(count):
        command, reset_zone = pattern.next_target()
        if command is None or command is BACKOFF:
            out.append((command, reset_zone))
            if reset_zone is not None:
                pattern.reset_done(reset_zone)
        else:
            out.append((command.opcode, command.slba, command.nlb))
    return out


def _pair(build, seed: int):
    """The pattern ``build(rng)`` makes, and a copy on scalar draws."""
    fast = build(np.random.default_rng(seed))
    reference = build(np.random.default_rng(seed))
    reference._draws = _ScalarDraws(np.random.default_rng(seed))
    return fast, reference


class TestPatternDraws:
    @pytest.mark.parametrize("seed", (0, 7, 0x5EED))
    def test_random_reads(self, seed):
        _sim, dev = make_device()
        cap = dev.zones.zones[0].cap_lbas
        # Empty, partly written and full zones: both draws per read and
        # the nothing-written-yet shortcut.
        for zone, nlb in ((1, 5), (2, cap // 3), (3, cap)):
            dev.force_fill(zone, nlb)
        fast, reference = _pair(
            lambda rng: RandomReadPattern(dev, [0, 1, 2, 3], 2, rng), seed)
        assert _commands(fast, 3_000) == _commands(reference, 3_000)

    @pytest.mark.parametrize("seed", (0, 7, 0x5EED))
    def test_random_appends(self, seed):
        _sim, dev = make_device()
        cap = dev.zones.zones[0].cap_lbas
        dev.force_fill(2, cap // 2)
        fast, reference = _pair(
            lambda rng: ZoneAppendCursor(dev, [0, 1, 2, 3], cap // 64,
                                         rng=rng), seed)
        # Long enough to fill every zone: reservations, reset requests
        # and back-off all draw.
        assert _commands(fast, 2_000) == _commands(reference, 2_000)

    @pytest.mark.parametrize("opcode", (Opcode.READ, Opcode.WRITE))
    @pytest.mark.parametrize("span", (64, 2**35 + 64))  # 2**32 + 8 slots: 64-bit
    def test_random_range(self, opcode, span):
        fast, reference = _pair(
            lambda rng: RangePattern(opcode, (8, 8 + span), 8, True, rng), 3)
        assert _commands(fast, 3_000) == _commands(reference, 3_000)
