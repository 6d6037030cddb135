"""Application substrates over the simulated ZNS device.

The layers the paper's §II-C/§V survey as ZNS consumers, reproduced at
their performance-relevant core: a zonefs-like per-zone file view and
an LSM-tree serving workload (flush + compaction + point reads) that runs inside a tenant
context for multi-tenant interference experiments. The log-structured
KV store lives in ``examples/zns_log_store.py`` as a runnable
walkthrough.
"""

from .lsm import LsmConfig, LsmWorkload
from .zonefs import ZoneFile, ZoneFs

__all__ = ["LsmConfig", "LsmWorkload", "ZoneFile", "ZoneFs"]
