"""Tests for the zonefs application substrate."""

import pytest

from repro.apps import ZoneFs
from repro.stacks import SpdkStack
from repro.zns import ZoneState

from .util import make_device

KIB = 1024


@pytest.fixture()
def fs():
    sim, dev = make_device()
    return ZoneFs(dev, SpdkStack(dev))


class TestZoneFs:
    def test_one_file_per_zone(self, fs):
        assert len(fs) == 32
        assert fs.file(3).name == "seq/3"
        assert fs.file(0).size == 0
        assert fs.file(0).max_size == 6 * 1024 * KIB

    def test_append_grows_file(self, fs):
        f = fs.file(0)
        f.append(16 * KIB)
        f.append(8 * KIB)
        assert f.size == 24 * KIB

    def test_read_within_eof(self, fs):
        f = fs.file(0)
        f.append(32 * KIB)
        assert f.pread(0, 32 * KIB).ok
        assert f.pread(16 * KIB, 8 * KIB).ok

    def test_read_beyond_eof_rejected(self, fs):
        f = fs.file(0)
        f.append(4 * KIB)
        with pytest.raises(ValueError, match="beyond EOF"):
            f.pread(0, 8 * KIB)

    def test_truncate_zero_resets(self, fs):
        f = fs.file(0)
        f.append(64 * KIB)
        f.truncate(0)
        assert f.size == 0
        assert fs.device.zones.zones[0].state is ZoneState.EMPTY

    def test_truncate_to_capacity_finishes(self, fs):
        f = fs.file(0)
        f.append(4 * KIB)
        f.truncate(f.max_size)
        assert fs.device.zones.zones[0].state is ZoneState.FULL
        assert f.size == f.max_size

    def test_partial_truncate_rejected(self, fs):
        f = fs.file(0)
        f.append(8 * KIB)
        with pytest.raises(ValueError, match="zonefs only supports"):
            f.truncate(4 * KIB)

    def test_statfs(self, fs):
        fs.file(0).append(8 * KIB)
        fs.file(1).append(4 * KIB)
        stat = fs.statfs()
        assert stat["files"] == 32
        assert stat["used"] == 12 * KIB
        assert stat["open_files"] == 2

    def test_misaligned_io_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.file(0).append(1000)
        with pytest.raises(ValueError):
            fs.file(0).pread(1, 4 * KIB)

    def test_unknown_file_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.file(99)
