"""Offline integrity verification for RHODOS volumes.

Home of :mod:`repro.verify.fsck`, the read-only volume checker.  The
implementation lives *below* the operator-tooling and chaos layers on
purpose: both ``repro.tools`` (the operator surface) and
``repro.chaos`` (post-crash admissibility invariants) consume it, and
the layer DAG forbids ``chaos`` → ``tools``.
"""

from repro.verify.fsck import (
    FsckReport,
    fsck_volume,
    sweep_replication_orphans,
    verify_checksums,
)

__all__ = [
    "FsckReport",
    "fsck_volume",
    "sweep_replication_orphans",
    "verify_checksums",
]
