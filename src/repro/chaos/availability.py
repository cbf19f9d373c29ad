"""The availability campaign: ``python -m repro.chaos.availability``.

The crash-point sweep (:mod:`repro.chaos.sweep`) proves a single
volume recovers from a crash at *any* physical write.  This campaign
proves the complementary claim: the assembled facility stays **usable
while components fail and recover mid-workload** — the paper's
"operational in the face of various failures" promise, measured.

Every scenario is one :class:`Scenario` — plain data: a
:class:`~repro.cluster.config.ClusterConfig` override set, a
:class:`~repro.recovery.schedule.FailureSchedule` script, a workload
and the SLO checks its verdict rests on — and every scenario runs
through the one driver, :func:`run_scenario`: build the cluster, then
per think-step poll the schedule, pump RAID rebuilds and step the
workload; run the script out, converge (deliver parked messages,
resync stale replicas, sweep orphans, finish rebuilds), run the SLO
checks, report.  The catalogue covers five failure families:

* **volume crashes** (``mixed`` workload over three volumes,
  replication degree two, a faulty RPC bus with backoff and a circuit
  breaker): no acknowledged write is ever lost (op-granularity: crashes
  land *between* operations, sub-write tears belong to the sweep);
  replicated reads are monotone and never stale; and every failed
  operation falls inside a scheduled downtime window extended by a
  *parametric* recovery allowance (:func:`recovery_allowance_us`) —
  unavailability bounded by configuration, not by luck.
* **media corruption** (``rot`` / ``media``): deterministic at-rest rot
  or latent unreadable sectors on one volume; the background scrubber
  must find and repair **100 %** of it within a bounded number of
  cycles while **no corrupt byte ever reaches a client or the track
  cache**.
* **RAID member loss** (``raid``): a RAID-5 volume loses member drives
  mid-workload.  There is no downtime window at all — every operation
  must succeed, the array walks OPTIMAL → DEGRADED → REBUILDING →
  OPTIMAL, and losing the rebuild target degrades rather than fails.
  An optional finale exhausts redundancy on purpose: with two members
  dead every read must raise.
* **shard death** (``storm``): a naming shard server dies mid-metadata
  storm; acked names always resolve (failover to the replica peer) and
  bind failures stay inside the kill window plus allowance.
* **interrupted rebalance** (``rebalance``): an online migration's
  destination dies mid-stream; the migration aborts with zero resolve
  misses and re-runs to cutover after the restart.

Reports are byte-deterministic: the same seed emits the identical JSON
document, and ``--all`` reproduces the committed
``AVAILABILITY_pr10.json`` byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import MediaError, ReplicationError, RhodosError, RpcError
from repro.common.units import BLOCK_SIZE
from repro.disk_service.addresses import Extent
from repro.disk_service.scrub import Scrubber
from repro.file_service.cache import WritePolicy
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.recovery.schedule import (
    FailureEvent,
    FailureSchedule,
    MemberFailureEvent,
    ScheduledEvent,
    ShardFailureEvent,
)
from repro.replication.service import volume_component
from repro.rpc.bus import FaultProfile
from repro.rpc.retry import BackoffPolicy, BreakerPolicy
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import ArrayFailedError, ArrayState
from repro.verify.fsck import verify_checksums

#: Fixed payload sizes keep every write the same shape, so version
#: content is a pure function of the version number (idempotent
#: retries) and replica comparison is byte-exact.
REPLICATED_LEN = 96
AGENT_LEN = 64

#: The replicated files of the ``mixed`` workload.
REPLICATED_FILES = ("/availability/r0", "/availability/r1")

#: Checksummed fragments the scrub scenarios corrupt on volume 0, and
#: the scrub cycles within which the volume must verify clean.
SCRUB_TARGETS = 4
SCRUB_MAX_CYCLES = 3
SCRUB_FILE_BLOCKS = 4


def version_content(version: int, length: int) -> bytes:
    """Deterministic content encoding one version (never the zero byte,
    so unwritten regions are distinguishable from any version)."""
    return bytes([version % 251 + 1]) * length


def decode_version(data: bytes, reference: int) -> Optional[int]:
    """Invert :func:`version_content` against the acked ``reference``.

    The content byte fixes the version modulo 251.  Writes go one
    version at a time, so a read runs ahead of the acked version by at
    most one (a write applied but not yet acked); any other match is
    the candidate at or below the reference, up to 249 versions behind
    it (250 behind aliases one ahead), which is what a stale read looks
    like — unless that candidate is negative and so not a version.
    """
    if not data:
        return None
    byte = data[0]
    if any(b != byte for b in data) or not 1 <= byte <= 251:
        return None  # torn content, or not any whole version
    below = reference - (reference - (byte - 1)) % 251
    if below < 0 or below + 251 == reference + 1:
        return below + 251
    return below


BACKOFF = BackoffPolicy(base_us=5_000, multiplier=2.0, max_us=40_000, jitter=0.5)
BREAKER = BreakerPolicy(threshold=4, cooldown_us=150_000)


@dataclass(frozen=True)
class Scenario:
    """One campaign cell, as data.

    Attributes:
        name / description: the catalogue entry.
        workload: what the clients do — ``mixed``, ``raid``, ``storm``,
            ``rebalance``, or a scrub campaign injecting ``rot`` or
            ``media`` errors (keys of :data:`WORKLOADS`).
        config: :class:`ClusterConfig` overrides; every scenario runs
            one client machine with the client cache off.
        events: the failure script, fired through one
            :class:`FailureSchedule`.
        steps / think_us: workload operations, one per think step.
        seed: seeds the cluster and the workload's choices.
        checks: the SLO checks run after convergence, in order (keys
            of :data:`CHECKS`); any finding fails the scenario.
    """

    name: str
    description: str
    workload: str
    config: Mapping[str, object] = field(default_factory=dict)
    events: Tuple[ScheduledEvent, ...] = ()
    steps: int = 0
    think_us: int = 5_000
    seed: int = 0
    checks: Tuple[str, ...] = ()


def recovery_allowance_us(
    scenario: Scenario,
    profile: Optional[FaultProfile],
    *,
    timeout_us: int = 20_000,
) -> int:
    """The post-restart grace period failures may legally extend into.

    After a restart the breaker may stay open for up to its full
    cooldown (the last re-open can land just before the restart), one
    more call may then fail the slow way (threshold failed attempts,
    each a timeout plus the backoff cap), and bus latency plus a few
    think-steps of slack pad the edges.  Everything here is a
    configured constant — the bound is parametric, not empirical.
    ``profile`` is the cluster's bus profile (``None``: no bus, so no
    bus latency).
    """
    worst_call_us = BREAKER.threshold * (timeout_us + BACKOFF.max_us)
    latency_us = profile.latency_us if profile is not None else 0
    return (
        BREAKER.cooldown_us
        + worst_call_us
        + 4 * latency_us
        + 10 * scenario.think_us
    )


class _Run:
    """One scenario execution: workload, bookkeeping, verdicts."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.cluster = RhodosCluster(
            ClusterConfig(
                n_machines=1,
                client_cache_blocks=0,
                seed=scenario.seed,
                **scenario.config,
            )
        )
        self.schedule = FailureSchedule(
            scenario.events, self.cluster.clock, metrics=self.cluster.metrics
        )
        self.rng = random.Random(scenario.seed)
        self.agent = self.cluster.machine.file_agent
        self.log: List[str] = []
        #: Operation counts the workload reports under ``ops``.
        self.ops: Dict[str, int] = {}
        #: Failed operations: (start_us, end_us, kind).
        self.failures: List[Tuple[int, int, str]] = []
        self.violations: List[str] = []
        #: Set by the ``failures_in_windows`` and
        #: ``exhausted_array_refuses`` checks.
        self.unavailability: Optional[Dict[str, object]] = None
        self.finale: Optional[Dict[str, object]] = None
        # Replicated files: acked and last observed version per path.
        self.versions: Dict[str, int] = {}
        self.observed: Dict[str, int] = {}
        # The agent file: offset -> acked content.
        self.descriptor = -1
        self.agent_acked: Dict[int, bytes] = {}
        # Naming bindings: path -> (name, target), acked and attempted.
        self.bindings: Dict[str, Tuple[AttributedName, str]] = {}
        self.attempted: Dict[str, Tuple[AttributedName, str]] = {}

    def run(self) -> Dict[str, object]:
        scenario, cluster = self.scenario, self.cluster
        setup, step, workload_keys = WORKLOADS[scenario.workload]
        setup(self)
        for index in range(scenario.steps):
            self.log.extend(self.schedule.poll(cluster))
            cluster.step_rebuilds()
            cluster.clock.advance_us(scenario.think_us)
            step(self, index)
        self.log.extend(self.schedule.run_out(cluster))
        if step is not None:
            # Script workloads (scrub, rebalance) are checked on the
            # state exactly as their script left it.
            self._converge()
        for check in scenario.checks:
            CHECKS[check](self)
        return self._report(workload_keys(self))

    def _converge(self) -> None:
        """Deliver parked messages, let the recovery hooks finish their
        repairs, then grant rebuilds exclusive slots until whole.

        Each step is a no-op on a cluster without its subject (no bus,
        no replicated files, no rebuild in flight), so every operation
        stream converges the same way.
        """
        cluster = self.cluster
        if cluster.bus is not None:
            cluster.bus.drain_delayed()
        cluster.replication.resync_all_stale()
        cluster.replication.sweep_orphans()
        for _ in range(8 * self.scenario.steps):
            if not cluster.rebuilders:
                break
            cluster.clock.advance_us(self.scenario.think_us)
            cluster.step_rebuilds(force=True)
        if cluster.rebuilders:
            self.violations.append("rebuild never completed at run-out")

    def _report(self, workload_keys: Dict[str, object]) -> Dict[str, object]:
        """The keys every report carries, plus the workload's own."""
        report: Dict[str, object] = {
            "description": self.scenario.description,
            "seed": self.scenario.seed,
            "status": "pass" if not self.violations else "fail",
            "violations": list(self.violations),
        }
        report.update(workload_keys)
        return report

    def _lifecycle_keys(self) -> Dict[str, object]:
        """Report keys of a workload driven through the failure
        schedule: the script, its lifecycle log and the op counts."""
        return {
            "events": [
                [event.at_us, *event.key, event.down_us]
                for event in self.scenario.events
            ],
            "lifecycle_log": self.log,
            "ops": dict(sorted(self.ops.items())),
        }

    def _counters(self, names: Tuple[str, ...]) -> Dict[str, int]:
        return {name: self.cluster.metrics.get(name) for name in names}

    def _failed(self, start_us: int, op: str, error: Exception, counter: str) -> None:
        self.ops[counter] += 1
        self.failures.append(
            (start_us, self.cluster.clock.now_us, f"{op}:{type(error).__name__}")
        )

    # ----------------------------------------------------- agent file

    def _open_agent_file(self, path: str) -> None:
        # Volume 0 is the crashed (or degraded) volume, so the agent
        # file's traffic exercises breaker, backoff and degraded reads.
        self.descriptor = self.agent.create(AttributedName.file(path), volume_id=0)

    def _agent_write(self) -> Optional[Exception]:
        """Write the next version at its own offset; returns the error.

        Distinct per-version offsets make a retry of a write whose
        reply was lost idempotent.
        """
        version = len(self.agent_acked)
        offset = version * AGENT_LEN
        content = version_content(version, AGENT_LEN)
        try:
            self.agent.pwrite(self.descriptor, content, offset)
            # Ack-then-fsync: the server's FIT (file size) is write-back,
            # so a crash could forget the write's extent without this.
            self.agent.router.flush_volume(0)
        except (RpcError, RhodosError) as exc:
            return exc
        self.agent_acked[offset] = content
        return None

    def _agent_read(self) -> Tuple[int, Optional[Exception]]:
        """Read back one acked offset; returns it and the error."""
        offsets = sorted(self.agent_acked)
        offset = offsets[self.rng.randrange(len(offsets))]
        start = self.cluster.clock.now_us
        try:
            data = self.agent.pread(self.descriptor, AGENT_LEN, offset)
        except (RpcError, RhodosError) as exc:
            return offset, exc
        if data != self.agent_acked[offset]:
            self.violations.append(
                f"t={start}us agent file: acked content lost at offset "
                f"{offset} ({data[:8]!r}...)"
            )
        return offset, None

    # --------------------------------------------- workload: mixed

    def _mixed_setup(self) -> None:
        for path in REPLICATED_FILES:
            self.cluster.replication.create(AttributedName.file(path))
            self.versions[path] = self.observed[path] = 0
        self._open_agent_file("/availability/agent")
        self.ops = dict.fromkeys(
            ("replicated_reads", "replicated_writes", "agent_reads",
             "agent_writes", "failed_ops"),
            0,
        )

    def _mixed_step(self, index: int) -> None:
        choice = self.rng.random()
        path = REPLICATED_FILES[index % len(REPLICATED_FILES)]
        start = self.cluster.clock.now_us
        if choice < 0.30:
            self._replicated_write(path)
        elif choice < 0.60:
            self._replicated_read(path)
        elif choice < 0.80:
            self.ops["agent_writes"] += 1
            error = self._agent_write()
            if error is not None:
                self._failed(start, "agent_write", error, "failed_ops")
        elif self.agent_acked:
            self.ops["agent_reads"] += 1
            _offset, error = self._agent_read()
            if error is not None:
                self._failed(start, "agent_read", error, "failed_ops")

    def _replicated_write(self, path: str) -> None:
        cluster = self.cluster
        version = self.versions[path] + 1
        start = cluster.clock.now_us
        self.ops["replicated_writes"] += 1
        try:
            cluster.replication.write(
                AttributedName.file(path), 0, version_content(version, REPLICATED_LEN)
            )
        except (ReplicationError, RpcError) as exc:
            self._failed(start, "replicated_write", exc, "failed_ops")
            return
        # Ack-then-fsync: the write counts as acknowledged only once
        # the live replica servers flushed their FIT metadata (data
        # blocks are write-through already; file *size* is not).
        # Crashes land between steps, so these flushes cannot race a
        # new failure within the same step.
        replica_set = cluster.replication.lookup(AttributedName.file(path))
        for system_name in replica_set.replicas:
            volume_id = system_name.volume_id
            if cluster.health.is_down(volume_component(volume_id)):
                continue
            try:
                cluster.file_servers[volume_id].flush()
            except RhodosError:
                pass
        self.versions[path] = version

    def _replicated_read(self, path: str) -> None:
        cluster = self.cluster
        start = cluster.clock.now_us
        self.ops["replicated_reads"] += 1
        try:
            data = cluster.replication.read(
                AttributedName.file(path), 0, REPLICATED_LEN
            )
        except (ReplicationError, RpcError) as exc:
            self._failed(start, "replicated_read", exc, "failed_ops")
            return
        acked = self.versions[path]
        if data == b"" and acked == 0:
            return  # nothing acknowledged yet: an empty file is correct
        version = decode_version(data, acked)
        if version is None:
            self.violations.append(f"t={start}us {path}: torn read {data[:8]!r}...")
            return
        if version < acked:
            self.violations.append(
                f"t={start}us {path}: stale read v{version} < acked v{acked}"
            )
        if version < self.observed[path]:
            self.violations.append(
                f"t={start}us {path}: non-monotonic read v{version} after "
                f"v{self.observed[path]}"
            )
        self.observed[path] = max(self.observed[path], version)

    def _mixed_report(self) -> Dict[str, object]:
        profile = self.cluster.config.fault_profile
        return {
            **self._lifecycle_keys(),
            "counters": self._counters(MIXED_COUNTERS),
            "failures": [list(failure) for failure in self.failures],
            "final_versions": {
                "acked": dict(self.versions),
                "agent_writes_acked": len(self.agent_acked),
            },
            "profile": {
                "duplication": profile.duplication,
                "latency_us": profile.latency_us,
                "reorder": profile.reorder,
                "reply_loss": profile.reply_loss,
                "request_loss": profile.request_loss,
            },
            "unavailability": self.unavailability,
        }

    # ------------------------------------------------ workload: raid

    def _raid_setup(self) -> None:
        self.array = self.cluster.arrays[0]
        self.state_log: List[List[object]] = []
        # Chain onto the cluster's health wiring so the campaign sees
        # the same transitions the failure detector does.
        chain = self.array.on_state_change

        def observe(old: ArrayState, new: ArrayState) -> None:
            self.state_log.append([self.cluster.clock.now_us, old.name, new.name])
            if chain is not None:
                chain(old, new)

        self.array.on_state_change = observe
        self._open_agent_file("/availability/raid")
        self.ops = dict.fromkeys(
            ("reads", "writes", "reads_degraded", "writes_degraded"), 0
        )

    def _raid_step(self, index: int) -> None:
        # The reliable bus makes any failed operation the RAID tier's
        # fault: the volume must serve every one.
        start = self.cluster.clock.now_us
        degraded = self.array.state is not ArrayState.OPTIMAL
        if self.rng.random() < 0.55 or not self.agent_acked:
            version = len(self.agent_acked)
            self.ops["writes"] += 1
            self.ops["writes_degraded"] += degraded
            error = self._agent_write()
            if error is not None:
                self.violations.append(
                    f"t={start}us write v{version} failed "
                    f"({type(error).__name__}) — the volume must keep serving"
                )
        else:
            self.ops["reads"] += 1
            self.ops["reads_degraded"] += degraded
            offset, error = self._agent_read()
            if error is not None:
                self.violations.append(
                    f"t={start}us read at {offset} failed "
                    f"({type(error).__name__}) — reads are never unavailable"
                )

    def _raid_report(self) -> Dict[str, object]:
        config = self.cluster.config
        return {
            **self._lifecycle_keys(),
            "counters": self._counters(RAID_COUNTERS),
            "final_versions": {"writes_acked": len(self.agent_acked)},
            "finale": self.finale,
            "layout": {
                "chunk_sectors": config.raid_chunk_sectors,
                "level": config.raid_level,
                "members": config.raid_members,
            },
            "member_windows": [list(w) for w in self.schedule.member_windows()],
            "state_log": self.state_log,
        }

    # ------------------------------------ workloads: storm, rebalance

    def _shard_setup(self) -> None:
        self.ops = dict.fromkeys(
            ("binds", "resolves", "failed_binds", "failed_resolves"), 0
        )

    def _storm_step(self, index: int) -> None:
        if self.rng.random() < 0.45 or not self.bindings:
            self._bind(f"/storm/dev{index}", index)
        else:
            paths = sorted(self.bindings)
            path = paths[self.rng.randrange(len(paths))]
            self._resolve_acked(
                [path], f"t={self.cluster.clock.now_us}us", "acked names must fail over"
            )

    def _bind(self, path: str, index: int) -> None:
        cluster = self.cluster
        name = AttributedName.tty(f"dev{index}", path=path)
        target = f"host{index % 4}:{path}"
        start = cluster.clock.now_us
        self.ops["binds"] += 1
        self.attempted[path] = (name, target)
        try:
            # rebind, not bind: a reply lost after the server applied
            # the write makes a retried bind a duplicate — rebind is
            # idempotent at the workload layer, and the shard's reply
            # cache absorbs bus-level duplicates below it.
            cluster.naming.rebind(name, target)
        except (RpcError, RhodosError) as exc:
            self._failed(start, "bind", exc, "failed_binds")
            return
        self.bindings[path] = (name, target)

    def _resolve_acked(
        self, paths: List[str], context: str, promise: str, *, counted: bool = True
    ) -> None:
        """Resolve acked names; a miss or a wrong target is a violation.

        ``counted`` resolves are workload operations, reported under
        ``ops``; the final convergence check's are not.
        """
        for path in paths:
            name, target = self.bindings[path]
            self.ops["resolves"] += counted
            try:
                observed = self.cluster.naming.resolve(name)
            except (RpcError, RhodosError) as exc:
                self.ops["failed_resolves"] += counted
                self.violations.append(
                    f"{context}: resolve {path} failed "
                    f"({type(exc).__name__}) — {promise}"
                )
                continue
            if observed != target:
                self.violations.append(
                    f"{context}: resolve {path} returned {observed!r}, "
                    f"acked {target!r}"
                )

    def _rebalance_setup(self) -> None:
        """Migrate to a new shard, kill it mid-stream, re-run to cutover.

        The migration must abort (the sources keep sole ownership, so
        not one resolve misses at any watermark position), then re-run
        to completion after the restart with the map epoch bumped.
        """
        self._shard_setup()
        cluster = self.cluster
        manager = cluster.shard_manager
        for index in range(40):
            self._bind(f"/reb/dev{index}", index)
        epoch_before = cluster.naming.map_epoch
        invisible = "migration must be invisible"

        spare = cluster.add_shard()
        slots = manager.begin_rebalance(spare)
        self.log.append(f"rebalance {len(slots)} slot(s) -> shard {spare}")
        for _round in range(3):
            if manager.rebalance_done:
                break
            manager.step_rebalance(max_bindings=4)
            self._resolve_acked(sorted(self.bindings), "mid-stream", invisible)
        cluster.fail_shard(spare)
        self.log.append(f"kill migration target shard {spare}")
        manager.step_rebalance(max_bindings=4)
        if manager.rebalance_in_flight:
            self.violations.append("migration survived its destination's death")
        self._resolve_acked(sorted(self.bindings), "post-abort", invisible)

        cluster.restart_shard(spare)
        self.log.append(f"restart shard {spare}")
        slots = manager.begin_rebalance(spare)
        while not manager.rebalance_done:
            manager.step_rebalance(max_bindings=8)
            self._resolve_acked(sorted(self.bindings), "re-run", invisible)
        manager.complete_rebalance()
        self.log.append(f"cutover: {len(slots)} slot(s) moved")
        if manager.map.epoch <= epoch_before:
            self.violations.append(f"map epoch never advanced past {epoch_before}")
        if cluster.shards[spare].size() == 0:
            self.violations.append(f"shard {spare} owns no bindings after the cutover")
        self._resolve_acked(sorted(self.bindings), "post-cutover", invisible)
        # The router learns the new map lazily — a post-cutover resolve
        # of a moved name hits WrongShardError and re-fetches.
        if cluster.naming.map_epoch != manager.map.epoch:
            self.violations.append(
                f"router stuck at epoch {cluster.naming.map_epoch}, "
                f"manager at {manager.map.epoch}"
            )

    def _shard_report(self) -> Dict[str, object]:
        return {
            **self._lifecycle_keys(),
            "counters": self._counters(SHARD_COUNTERS),
            "failures": [list(failure) for failure in self.failures],
            "final_versions": {
                "acked_bindings": len(self.bindings),
                "attempted_bindings": len(self.attempted),
            },
            "n_shards": self.cluster.config.n_shards,
            "shard_windows": [list(w) for w in self.schedule.shard_windows()],
        }

    # ----------------------------------------- workloads: rot, media

    def _scrub_setup(self) -> None:
        """Corrupt volume 0, byte-check every read, scrub to clean.

        Two replicated files (volumes 0 and 1) are seeded, then
        :data:`SCRUB_TARGETS` checksummed fragments on volume 0 rot at
        rest or turn unreadable.  Full scrub cycles run over every
        volume: mirrored fragments (the FITs) repair locally from
        stable storage; everything else is routed to
        :meth:`ReplicationService.quarantine_volume_media`, which
        resyncs the damaged replicas from their clean peers.
        """
        cluster = self.cluster
        self.expected: Dict[str, bytes] = {}
        for index, path in enumerate(("/scrub/r0", "/scrub/r1")):
            cluster.replication.create(AttributedName.file(path))
            content = bytes(
                (index * 37 + offset * 7 + 13) % 251 + 1
                for offset in range(SCRUB_FILE_BLOCKS * BLOCK_SIZE)
            )
            cluster.replication.write(AttributedName.file(path), 0, content)
            self.expected[path] = content
        for volume_id in sorted(cluster.file_servers):
            cluster.file_servers[volume_id].flush()

        disk_server = cluster.file_servers[0].disk
        sim_disk = disk_server.disk
        self.targets = sim_disk.faults.pick_targets(
            disk_server.checksummed_fragments(), SCRUB_TARGETS, salt=17
        )
        # Pre-corruption ground truth for the direct-read byte checks.
        self.pristine = {
            fragment: disk_server.get(Extent(fragment, 1), use_cache=False)
            for fragment in self.targets
        }
        for fragment in self.targets:
            extent = Extent(fragment, 1)
            if self.scenario.workload == "rot":
                sim_disk.corrupt_sectors(extent.first_sector, extent.n_sectors)
            else:
                sim_disk.faults.schedule_media_error(extent.first_sector)

        # Before any repair ran, a read of a damaged fragment either
        # raises (checksum/media error) or returns exact bytes (an
        # uncorrupted cached copy) — never silently wrong data.
        self.reads_checked = 0
        self.direct_errors = 0
        for fragment in sorted(self.targets):
            try:
                data = disk_server.get(Extent(fragment, 1))
            except MediaError:
                self.direct_errors += 1
                continue
            self.reads_checked += 1
            if data != self.pristine[fragment]:
                self.violations.append(
                    f"fragment {fragment}: corrupt bytes served to a "
                    f"direct read before scrub"
                )
        self._client_reads()

        #: Findings the scrubber could not repair locally, routed to
        #: replication-level repair.
        self.routed = 0
        self.findings: List[List[object]] = []
        self.first_cycle_found: Set[int] = set()
        self.cycles_to_clean: Optional[int] = None
        scrubbers = {
            volume_id: Scrubber(cluster.file_servers[volume_id].disk)
            for volume_id in sorted(cluster.file_servers)
        }
        for cycle in range(1, SCRUB_MAX_CYCLES + 1):
            damaged: Set[int] = set()
            found = False
            for volume_id in sorted(scrubbers):
                for finding in scrubbers[volume_id].run_cycle():
                    found = True
                    self.findings.append(
                        [cycle, volume_id, finding.kind, finding.extent.start,
                         finding.extent.length, finding.repaired]
                    )
                    if not finding.repaired:
                        self.routed += 1
                        damaged.add(volume_id)
                    if cycle == 1:
                        self.first_cycle_found.update(
                            range(finding.extent.start, finding.extent.end)
                        )
            if not found:
                self.cycles_to_clean = cycle
                break
            for volume_id in sorted(damaged):
                cluster.replication.quarantine_volume_media(volume_id)

    def _client_reads(self) -> None:
        """Read every replicated file end to end; byte-check the result.

        Read-one failover means these reads succeed with exact content
        even while volume 0 is damaged — a wrong byte is a violation,
        not a degraded read.
        """
        for path, expected in self.expected.items():
            try:
                data = self.cluster.replication.read(
                    AttributedName.file(path), 0, len(expected)
                )
            except (ReplicationError, RpcError) as exc:
                self.violations.append(f"{path}: replicated read failed outright ({exc})")
                continue
            self.reads_checked += 1
            if data != expected:
                self.violations.append(f"{path}: corrupt bytes reached the client")

    def _scrub_report(self) -> Dict[str, object]:
        return {
            "counters": self._counters(SCRUB_COUNTERS),
            "cycles_to_clean": self.cycles_to_clean,
            "direct_read_errors": self.direct_errors,
            "findings": self.findings,
            "injected": {
                "fragments": sorted(self.targets),
                "kind": self.scenario.workload,
            },
            "reads_checked": self.reads_checked,
            "routed_to_replication": self.routed,
        }

    # ------------------------------------------------------ SLO checks

    def _check_failure_windows(self) -> None:
        """Merge failure samples into windows; each must fall inside a
        scheduled window extended by the parametric recovery allowance."""
        allowance = recovery_allowance_us(
            self.scenario, self.cluster.config.fault_profile
        )
        merge_gap = 4 * self.scenario.think_us + 2 * 20_000
        windows: List[List[int]] = []
        for start, end, _kind in sorted(self.failures):
            if windows and start - windows[-1][1] <= merge_gap:
                windows[-1][1] = max(windows[-1][1], end)
            else:
                windows.append([start, end])
        scheduled = [
            (event.at_us, event.at_us + event.down_us)
            for event in self.scenario.events
        ]
        out_of_bound = [
            window
            for window in windows
            if not any(
                s_start <= window[0] and window[1] <= s_end + allowance
                for s_start, s_end in scheduled
            )
        ]
        if out_of_bound:
            self.violations.append(
                f"failures outside scheduled-downtime bound: {out_of_bound}"
            )
        self.unavailability = {
            "allowance_us": allowance,
            "merge_gap_us": merge_gap,
            "out_of_bound": out_of_bound,
            "total_us": sum(end - start for start, end in windows),
            "windows": windows,
        }

    def _check_replicas_converged(self) -> None:
        cluster = self.cluster
        for path, acked in self.versions.items():
            replica_set = cluster.replication.lookup(AttributedName.file(path))
            if replica_set.stale:
                self.violations.append(
                    f"{path}: replicas still stale after run-out: "
                    f"{sorted(replica_set.stale)}"
                )
            if not acked:
                continue
            for system_name in replica_set.replicas:
                server = cluster.file_servers[system_name.volume_id]
                size = server.get_attribute(system_name).file_size
                if server.read(system_name, 0, size) != version_content(
                    acked, REPLICATED_LEN
                ):
                    self.violations.append(
                        f"{path}: replica on volume {system_name.volume_id} "
                        f"diverged from acked v{acked}"
                    )

    def _check_agent_durable(self) -> None:
        """Every acked agent write survives in the server's durable state
        (read directly: the invariant is about what survived the
        failures, not about bus luck during the check itself)."""
        name = self.agent.system_name(self.descriptor)
        server = self.cluster.file_servers[name.volume_id]
        for offset in sorted(self.agent_acked):
            if server.read(name, offset, AGENT_LEN) != self.agent_acked[offset]:
                self.violations.append(
                    f"agent file: acked write at offset {offset} lost"
                )

    def _check_orphans_swept(self) -> None:
        remaining = self.cluster.replication.orphans()
        if remaining:
            self.violations.append(
                f"{len(remaining)} delete orphan(s) survived the final sweep"
            )

    def _check_array_optimal(self) -> None:
        """Whole again, never FAILED on the way, and healthy."""
        if self.array.state is not ArrayState.OPTIMAL:
            self.violations.append(f"array ended {self.array.state.name}, not OPTIMAL")
        for at_us, _old, new in self.state_log:
            if new == "FAILED":
                self.violations.append(
                    f"t={at_us}us array went FAILED with redundancy remaining"
                )
        if self.cluster.health.is_down(volume_component(0)):
            self.violations.append(
                "health registry still holds the volume down after the "
                "array returned to OPTIMAL"
            )

    def _check_exhausted_array_refuses(self) -> None:
        """Kill two members: FAILED is mandatory, silence is forbidden."""
        cluster = self.cluster
        cluster.fail_member(0, 0)
        cluster.fail_member(0, 1)
        if self.array.state is not ArrayState.FAILED:
            self.violations.append(
                f"two members dead but array is {self.array.state.name}"
            )
        refused = served = 0
        for sector in (0, 8, 64):
            try:
                data = cluster.disks[0].read_sectors(sector, 1)
            except ArrayFailedError:
                refused += 1
                continue
            served += 1
            self.violations.append(
                f"FAILED array served {len(data)} bytes at sector {sector}"
            )
        self.finale = {
            "health_down": cluster.health.is_down(volume_component(0)),
            "reads_refused": refused,
            "reads_served": served,
            "state": self.array.state.name,
        }

    def _check_bindings_converged(self) -> None:
        """Every acked binding resolves, and the per-shard dumps partition
        the names: pairwise disjoint, every acked binding present,
        nothing present that was never attempted (a failed bind may have
        applied server-side — its reply was lost — so the union may
        exceed the acked set, but never the attempted set)."""
        self._resolve_acked(
            sorted(self.bindings), "after run-out", "acked binding lost",
            counted=False,
        )
        seen: Dict[str, int] = {}
        union: Dict[str, str] = {}
        for shard_id, blob in sorted(self.cluster.naming.shard_dumps().items()):
            part = NamingService.from_bytes(blob)
            for name in part:
                path = name.get("path") or repr(name)
                if path in seen:
                    self.violations.append(
                        f"{path} lives on shards {seen[path]} and {shard_id}"
                    )
                seen[path] = shard_id
                union[path] = part.resolve(name)
        for path in sorted(self.bindings):
            target = self.bindings[path][1]
            if union.get(path) != target:
                self.violations.append(
                    f"{path}: acked {target!r} but the dumps hold "
                    f"{union.get(path)!r}"
                )
        # Only the campaign's own names are policed — the cluster seeds
        # bindings of its own (the root directory).
        for path in sorted(set(union) - set(self.attempted)):
            if path.startswith(("/storm/", "/reb/")):
                self.violations.append(
                    f"{path}: present in a shard dump but never attempted"
                )

    def _check_failover_exercised(self) -> None:
        if self.cluster.metrics.get("naming_shard.failovers") == 0:
            self.violations.append(
                "the storm never exercised a failover read — the kill "
                "window missed the workload entirely"
            )

    def _check_scrub_bounded(self) -> None:
        """Everything injected was found, and a clean cycle arrived
        within the bound."""
        if self.cycles_to_clean is None:
            self.violations.append(
                f"scrub still finding corruption after {SCRUB_MAX_CYCLES} cycles"
            )
        missed = sorted(set(self.targets) - self.first_cycle_found)
        if missed:
            self.violations.append(
                f"injected corruption never found by the scrubber: "
                f"fragments {missed}"
            )

    def _check_media_repaired(self) -> None:
        """Every damaged fragment reads clean — through the cache and
        around it — the raw recompute pass agrees, and no replica is
        left stale."""
        cluster = self.cluster
        disk_server = cluster.file_servers[0].disk
        for fragment in sorted(self.targets):
            for use_cache in (True, False):
                try:
                    data = disk_server.get(Extent(fragment, 1), use_cache=use_cache)
                except MediaError as exc:
                    self.violations.append(
                        f"fragment {fragment}: still unreadable after "
                        f"scrub repair ({exc})"
                    )
                    continue
                self.reads_checked += 1
                if data != self.pristine[fragment]:
                    self.violations.append(
                        f"fragment {fragment}: content wrong after repair "
                        f"(cache={use_cache})"
                    )
        for volume_id in sorted(cluster.file_servers):
            for finding in verify_checksums(cluster.file_servers[volume_id].disk):
                self.violations.append(f"volume {volume_id} fsck: {finding}")
        self._client_reads()
        for path in self.expected:
            replica_set = cluster.replication.lookup(AttributedName.file(path))
            if replica_set.stale:
                self.violations.append(
                    f"{path}: replicas still stale after scrub repair: "
                    f"{sorted(replica_set.stale)}"
                )


_Hook = Callable[[_Run], object]

#: workload -> (setup, per-step action, workload-specific report keys).
#: Workloads that are a script rather than a stream of operations
#: (scrub, rebalance) run it in setup and take no steps.
WORKLOADS: Dict[str, Tuple[_Hook, Optional[Callable[[_Run, int], None]], _Hook]] = {
    "mixed": (_Run._mixed_setup, _Run._mixed_step, _Run._mixed_report),
    "raid": (_Run._raid_setup, _Run._raid_step, _Run._raid_report),
    "storm": (_Run._shard_setup, _Run._storm_step, _Run._shard_report),
    "rebalance": (_Run._rebalance_setup, None, _Run._shard_report),
    "rot": (_Run._scrub_setup, None, _Run._scrub_report),
    "media": (_Run._scrub_setup, None, _Run._scrub_report),
}

#: SLO check name -> check.  Each appends its findings to the run's
#: violations.
CHECKS: Dict[str, _Hook] = {
    "failures_in_windows": _Run._check_failure_windows,
    "replicas_converged": _Run._check_replicas_converged,
    "agent_durable": _Run._check_agent_durable,
    "orphans_swept": _Run._check_orphans_swept,
    "array_optimal": _Run._check_array_optimal,
    "exhausted_array_refuses": _Run._check_exhausted_array_refuses,
    "bindings_converged": _Run._check_bindings_converged,
    "failover_exercised": _Run._check_failover_exercised,
    "scrub_bounded": _Run._check_scrub_bounded,
    "media_repaired": _Run._check_media_repaired,
}

MIXED_COUNTERS = (
    "cluster.volume_failures",
    "cluster.volume_restarts",
    "health.marked_down",
    "health.recoveries",
    "health.transient_errors",
    "recovery.crashes_injected",
    "recovery.restarts_injected",
    "replication.failovers",
    "replication.orphans_recorded",
    "replication.orphans_swept",
    "replication.reads_degraded",
    "replication.reads_skipped_down",
    "replication.resyncs",
    "replication.resyncs_verified",
    "replication.writes_skipped_down",
    "rpc.breaker_closes",
    "rpc.breaker_opens",
    "rpc.breaker_probes",
    "rpc.breaker_rejections",
    "rpc.reordered_executions",
    "rpc.requests_delayed",
    "rpc.retransmissions",
    "transactions.recoveries",
)
SCRUB_COUNTERS = (
    "disk_server.0.checksum_failures",
    "disk_server.0.read_repairs",
    "disk_server.0.stable_repairs",
    "replication.media_quarantines",
    "replication.quarantine_deferrals",
    "replication.resyncs",
    "replication.resyncs_verified",
    "scrub.0.cycles",
    "scrub.0.fragments_verified",
    "scrub.0.mirrors_verified",
    "scrub.0.repairs",
    "scrub.0.repair_failures",
)
RAID_COUNTERS = (
    "cluster.member_failures",
    "cluster.member_replacements",
    "health.marked_down",
    "health.recoveries",
    "health.transient_errors",
    "recovery.member_kills_injected",
    "recovery.member_replacements_injected",
    "raid.0.degraded_reads",
    "raid.0.degraded_writes",
    "raid.0.journal_arms",
    "raid.0.member_failures",
    "raid.0.member_replacements",
    "raid.0.parity_writes",
    "raid.0.rebuild.chunks",
    "raid.0.rebuild.steps_yielded",
    "raid.0.segments_reconstructed",
)
SHARD_COUNTERS = (
    "cluster.shard_failures",
    "cluster.shard_restarts",
    "cluster.shards_added",
    "health.marked_down",
    "health.recoveries",
    "naming_shard.failovers",
    "naming_shard.fan_outs",
    "naming_shard.migrations_aborted",
    "naming_shard.migrations_completed",
    "naming_shard.migrations_started",
    "naming_shard.redirects",
    "naming_shard.resyncs",
    "naming_shard.streamed_bindings",
    "recovery.shard_kills_injected",
    "recovery.shard_restarts_injected",
    "rpc.breaker_opens",
    "rpc.retransmissions",
)

# ------------------------------------------------------------ catalogue

#: Three volumes, replication degree two, write-through: every acked
#: write is on the platters of both replicas.
_REPLICATED = {
    "n_disks": 3,
    "replication_degree": 2,
    "write_policy": WritePolicy.WRITE_THROUGH,
}
_RETRY = {"rpc_backoff": BACKOFF, "rpc_breaker": BREAKER}
_CRASH_CHECKS = (
    "replicas_converged", "agent_durable", "orphans_swept", "failures_in_windows"
)

#: One RAID-5 volume of 64 MB members (long enough a rebuild to
#: overlap dozens of foreground steps, short enough to finish within
#: the run), every cache off so each read reaches the platters and
#: degraded reads really exercise XOR reconstruction.
_RAID5 = {
    "n_disks": 1,
    "geometry": DiskGeometry.small(),
    "replication_degree": 1,
    "fault_profile": FaultProfile.reliable(),
    "write_policy": WritePolicy.WRITE_THROUGH,
    "server_cache_blocks": 0,
    "disk_cache_tracks": 0,
    "disk_readahead": False,
    "raid_level": "raid5",
    "raid_members": 4,
    "raid_chunk_sectors": 64,
    "raid_rebuild_chunks": 32,
}

#: Crash volume 0 once, then volume 1, windows disjoint so one replica
#: of every replicated file is live at all times.
ALTERNATING = (
    FailureEvent(at_us=300_000, volume_id=0, down_us=400_000),
    FailureEvent(at_us=1_400_000, volume_id=1, down_us=400_000),
)

SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="clean_restarts",
        description="reliable bus; alternating single-volume crashes",
        workload="mixed",
        config={**_REPLICATED, **_RETRY, "fault_profile": FaultProfile.reliable()},
        events=ALTERNATING,
        steps=420,
        checks=_CRASH_CHECKS,
    ),
    Scenario(
        name="lossy_bus",
        description="message loss/duplication/reordering during the crashes",
        workload="mixed",
        config={
            **_REPLICATED,
            **_RETRY,
            "fault_profile": FaultProfile(
                request_loss=0.05, reply_loss=0.05, duplication=0.02, reorder=0.02
            ),
        },
        events=ALTERNATING,
        steps=420,
        checks=_CRASH_CHECKS,
    ),
    Scenario(
        name="reorder_heavy",
        description="heavy reordering; one crash window",
        workload="mixed",
        config={
            **_REPLICATED,
            **_RETRY,
            "fault_profile": FaultProfile(duplication=0.05, reorder=0.10),
        },
        events=(FailureEvent(at_us=500_000, volume_id=0, down_us=400_000),),
        steps=360,
        checks=_CRASH_CHECKS,
    ),
    Scenario(
        # The second crash hits while the breaker's memory of the first
        # is fresh.
        name="back_to_back",
        description="volume 0 crashes twice in quick succession",
        workload="mixed",
        config={
            **_REPLICATED,
            **_RETRY,
            "fault_profile": FaultProfile(request_loss=0.03, reply_loss=0.03),
        },
        events=(
            FailureEvent(at_us=300_000, volume_id=0, down_us=300_000),
            FailureEvent(at_us=1_000_000, volume_id=0, down_us=300_000),
        ),
        steps=420,
        checks=_CRASH_CHECKS,
    ),
    Scenario(
        name="scrub_latent_rot",
        description="silent at-rest byte flips; scrub + mirror/replica repair",
        workload="rot",
        config={**_REPLICATED, "fault_profile": FaultProfile.reliable()},
        checks=("scrub_bounded", "media_repaired"),
    ),
    Scenario(
        name="scrub_media_errors",
        description="latent unreadable sectors; scrub + rewrite repair",
        workload="media",
        config={**_REPLICATED, "fault_profile": FaultProfile.reliable()},
        checks=("scrub_bounded", "media_repaired"),
    ),
    Scenario(
        # One member dies at 300 ms; its blank replacement arrives
        # 400 ms later and rebuilds in the idle slots between operations.
        name="raid_member_loss",
        description="single member dies under mixed load; degraded "
        "service, background rebuild, zero unavailability",
        workload="raid",
        config=_RAID5,
        events=(
            MemberFailureEvent(
                at_us=300_000, volume_id=0, member_index=1, down_us=400_000
            ),
        ),
        steps=240,
        checks=("array_optimal", "agent_durable"),
    ),
    Scenario(
        # Member 2 dies, is replaced, then dies *again* 60 ms into its
        # own rebuild — the second kill must cancel the rebuild and drop
        # the array back to degraded, never to FAILED (three healthy
        # members remain).
        name="raid_rebuild_interrupted",
        description="rebuild target dies mid-rebuild (degrade, never "
        "fail); finale exhausts redundancy and demands loud refusal",
        workload="raid",
        config=_RAID5,
        events=(
            MemberFailureEvent(
                at_us=200_000, volume_id=0, member_index=2, down_us=300_000
            ),
            MemberFailureEvent(
                at_us=560_000, volume_id=0, member_index=2, down_us=340_000
            ),
        ),
        steps=240,
        checks=("array_optimal", "agent_durable", "exhausted_array_refuses"),
    ),
    Scenario(
        name="shard_death_metadata_storm",
        description="a shard server dies mid-metadata-storm over a lossy "
        "bus; resolves fail over to the replica, binds bounded to the "
        "window, restart resyncs every acked binding",
        workload="storm",
        config={
            **_RETRY,
            "n_disks": 1,
            "n_shards": 4,
            "fault_profile": FaultProfile(
                request_loss=0.03, reply_loss=0.03, duplication=0.02
            ),
        },
        events=(ShardFailureEvent(at_us=400_000, shard_id=1, down_us=400_000),),
        steps=360,
        checks=("bindings_converged", "failures_in_windows", "failover_exercised"),
    ),
    Scenario(
        # Direct calls: the interruption under test is the shard's, not
        # the bus's.
        name="rebalance_interrupted",
        description="the migration destination dies mid-stream; the "
        "migration aborts with zero resolve misses, then re-runs to "
        "completion after the restart",
        workload="rebalance",
        config={**_RETRY, "n_disks": 1, "n_shards": 2},
        checks=("bindings_converged",),
    ),
)

BY_NAME: Dict[str, Scenario] = {scenario.name: scenario for scenario in SCENARIOS}


def run_scenario(scenario: Scenario) -> Dict[str, object]:
    """Execute one scenario; returns its deterministic report dict."""
    return _Run(scenario).run()


def run_campaign(names: List[str]) -> Dict[str, object]:
    """Run the named scenarios; returns the full JSON document."""
    unknown = sorted(set(names) - set(BY_NAME))
    if unknown:
        raise SystemExit(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(BY_NAME))})"
        )
    return {
        "schema_version": 1,
        "suite": "repro-availability",
        "scenarios": {name: run_scenario(BY_NAME[name]) for name in names},
    }


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.availability",
        description=(
            "Availability campaign: workloads under scripted failures, "
            "SLO invariants, machine-readable report."
        ),
    )
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--all", action="store_true", help="run every scenario (default)"
    )
    scope.add_argument(
        "--only", nargs="+", metavar="NAME", help="run the named scenarios only"
    )
    parser.add_argument(
        "--out",
        default="AVAILABILITY_pr10.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenario names and exit"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.list:
        for scenario in SCENARIOS:
            print(f"{scenario.name:24s} {scenario.description}")
        return 0
    names = list(args.only) if args.only else list(BY_NAME)
    document = run_campaign(names)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    statuses = {
        name: str(report["status"])
        for name, report in document["scenarios"].items()  # type: ignore[union-attr]
    }
    for name, status in statuses.items():
        print(f"{name:20s} {status}", file=sys.stderr)
    passed = sum(1 for status in statuses.values() if status == "pass")
    print(
        f"{len(statuses)} scenario(s): {passed} pass, "
        f"{len(statuses) - passed} fail -> {out_path}",
        file=sys.stderr,
    )
    return 0 if passed == len(statuses) else 1


if __name__ == "__main__":
    raise SystemExit(main())
