"""Shared helpers for device-level tests."""

from __future__ import annotations

from repro.exec import execute_experiments
from repro.hostif import LBA_4K, Command, Completion, Opcode, ZoneAction
from repro.sim import Simulator
from repro.zns import ZnsDevice
from repro.zns.profiles import zn540_small


def quiet_profile(**overrides):
    """A small ZN540 profile with jitter disabled for exact-latency tests."""
    return zn540_small(jitter_sigma=0.0, mgmt_jitter_sigma=0.0, **overrides)


def make_device(profile=None, lba_format=LBA_4K, tracer=None, metrics=None,
                faults=None):
    sim = Simulator()
    device = ZnsDevice(sim, profile or quiet_profile(), lba_format=lba_format,
                       tracer=tracer, metrics=metrics, faults=faults)
    return sim, device


def run_experiment(exp_id: str, config):
    """One experiment's result, run through the execution engine."""
    results, _report = execute_experiments([exp_id], config)
    return results[exp_id]


def run_cmd(sim: Simulator, device, command: Command) -> Completion:
    """Submit one command and run the simulation until it completes."""
    return sim.run(until=device.submit(command))


def write(slba: int, nlb: int) -> Command:
    return Command(Opcode.WRITE, slba=slba, nlb=nlb)


def read(slba: int, nlb: int) -> Command:
    return Command(Opcode.READ, slba=slba, nlb=nlb)


def append(zslba: int, nlb: int) -> Command:
    return Command(Opcode.APPEND, slba=zslba, nlb=nlb)


def mgmt(zslba: int, action: ZoneAction) -> Command:
    return Command(Opcode.ZONE_MGMT, slba=zslba, action=action)
