"""Emulator latency models (FEMU, NVMeVirt, ConfZNS) and fidelity harness."""

from .base import EmulatorModel
from .fidelity import PROBED_OBSERVATIONS, probe_model
from .models import ALL_MODELS, CONFZNS, FEMU, NVMEVIRT, THIS_WORK

__all__ = [
    "ALL_MODELS",
    "CONFZNS",
    "EmulatorModel",
    "FEMU",
    "NVMEVIRT",
    "PROBED_OBSERVATIONS",
    "THIS_WORK",
    "probe_model",
]
