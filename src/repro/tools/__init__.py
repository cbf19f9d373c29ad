"""Operator tooling for the RHODOS file facility.

* :func:`fsck_volume` (from :mod:`repro.verify.fsck`) — an offline
  volume checker that rediscovers every file index table by scanning
  the disk, then cross-checks the block maps against the allocation
  bitmap (orphaned space, lost blocks, cross-linked files, stale
  contiguity counts).
* :mod:`repro.tools.backup` — whole-volume dump/restore, the answer to
  the catastrophes section 6.6's recovery explicitly excludes.
* :mod:`repro.tools.report` — regenerates every experiment table from
  the benchmark suite into one markdown report
  (``python -m repro.tools.report``).
"""

from repro.tools.backup import dump_volume, restore_volume
from repro.verify.fsck import FsckReport, fsck_volume

__all__ = ["FsckReport", "fsck_volume", "dump_volume", "restore_volume"]
