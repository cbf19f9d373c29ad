"""The sharded namespace: attributed names partitioned across shard servers.

The paper's Figure-1 stack tops out at a single NAMING/DIRECTORY
SERVICE; this module scales that layer out.  The binding space is cut
into a fixed number of **hash slots**: every name has a canonical key
(the ``path`` attribute by convention, see :func:`canonical_key`),
CRC-32 of the key picks the slot, and an epoch-numbered
:class:`ShardMap` assigns each slot to one of N shard servers via a
consistent-hash ring of virtual-node tokens — so adding a shard moves
roughly ``1/(N+1)`` of the slots and nothing else.

Each :class:`NamingShard` wraps its own
:class:`~repro.naming.service.NamingService` and checks slot ownership
on every keyed operation, answering :class:`WrongShardError` (with its
current epoch) when a request arrives under a stale map.  The
:class:`ShardedNamespace` router on each client machine owns a cached
copy of the map, re-fetches it on ``WrongShardError``, fans subset
queries without a routable key out to every shard, and presents the
exact ``NamingService`` surface — agents, directories, and replication
cannot tell a sharded namespace from a flat one.

Failover: shard K's writes are mirrored synchronously to a **replica
peer** (its successor in shard-id order) over the intra-service
channel; when the primary dies mid-workload, the router fails reads
over to the peer's replica store, writes surface as bounded
unavailability, and restart resyncs the primary from the peer.

Rebalancing: :class:`ShardManager.begin_rebalance` moves slots to a
(possibly new) shard by streaming bindings in deterministic key order
behind a **write-through watermark** — from the instant a slot is
marked migrating, every write dual-applies to source and destination
(the PR 9 rebuilder discipline), while the stream copies the
still-live snapshot behind it.  Reads stay single-authority: the
destination redirects until the epoch cutover, which merges the
incoming set and bumps the map in one atomic instant — the
arbitration that makes a resolve miss structurally impossible.

Time: every shard operation charges ``service_us`` to the shard's
:class:`~repro.common.frames.BusyTimeline` — the shard server's
busy-until resource, the same class a disk reserves —
so concurrent metadata operations overlap across shards exactly as
disk requests overlap across spindles, and aggregate metadata
throughput scales with shard count under ``run_concurrent`` (E20).
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.common.clock import SimClock
from repro.common.errors import (
    CircuitOpenError,
    NameNotFoundError,
    NamingError,
    RpcTimeoutError,
    ShardDownError,
    WrongShardError,
)
from repro.common.frames import BusyTimeline
from repro.common.ids import SystemName, monotonic_id_factory
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName, ObjectType
from repro.naming.service import NamingService, Target
from repro.recovery.health import HealthRegistry

#: Hash slots per map.  Small enough to enumerate, large enough that a
#: rebalance moves load in fine grains; every map of a namespace must
#: use the same count.
DEFAULT_SLOTS = 64

#: Virtual-node tokens per shard on the consistent-hash ring.
_VNODES = 16


def shard_component(shard_id: int) -> str:
    """The health-registry component name of one shard server."""
    return f"shard.{shard_id}"


def canonical_key(name: AttributedName) -> str:
    """The partitioning key of a name.

    ``path`` wins when present (any subset query carrying the same
    ``path`` hashes identically, which is what makes path-keyed
    resolution single-shard); ``directory`` is the fallback for the
    rare path-less directory names; otherwise the sorted attribute
    items — still deterministic, but only exact-match routable.
    """
    path = name.get("path")
    if path is not None:
        return "p:" + path
    directory = name.get("directory")
    if directory is not None:
        return "d:" + directory
    return "a:" + ";".join(f"{key}={value}" for key, value in name)


def routing_key(query: AttributedName) -> Optional[str]:
    """The key a *subset* query can be routed by, or None (fan out).

    Only a ``path``-carrying query is routable: every binding whose
    attributes are a superset shares that path, hence the slot.  A
    query without ``path`` may match bindings that *do* have one —
    which live wherever their paths hash — so it must fan out.
    """
    if query.get("path") is not None:
        return canonical_key(query)
    return None


def slot_of(key: str, n_slots: int) -> int:
    """Deterministic slot of a canonical key (never builtin ``hash``,
    which is salted per process by PYTHONHASHSEED)."""
    return zlib.crc32(key.encode("utf-8")) % n_slots


def _ring_token(label: str) -> int:
    """A stable 64-bit ring position for a virtual node or a slot."""
    return int.from_bytes(hashlib.sha1(label.encode("utf-8")).digest()[:8], "big")


class ShardMap:
    """An epoch-numbered assignment of hash slots to shard ids.

    Immutable by convention: rebalancing produces a *new* map with
    ``epoch + 1`` (:meth:`moved`), never mutates one in place — the
    epoch is what lets a shard server prove a router's copy stale.
    """

    __slots__ = ("epoch", "owners")

    def __init__(self, epoch: int, owners: Tuple[int, ...]) -> None:
        if not owners:
            raise NamingError("a shard map needs at least one slot")
        self.epoch = epoch
        self.owners = tuple(owners)

    @property
    def n_slots(self) -> int:
        return len(self.owners)

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.owners)))

    def owner_of_slot(self, slot: int) -> int:
        return self.owners[slot]

    def owner_of(self, key: str) -> int:
        return self.owners[slot_of(key, len(self.owners))]

    def slots_of(self, shard_id: int) -> Tuple[int, ...]:
        return tuple(
            slot for slot, owner in enumerate(self.owners) if owner == shard_id
        )

    def moved(self, slots: Tuple[int, ...], destination: int) -> "ShardMap":
        """The successor map: ``slots`` reassigned, epoch bumped."""
        owners = list(self.owners)
        for slot in slots:
            owners[slot] = destination
        return ShardMap(self.epoch + 1, tuple(owners))

    @classmethod
    def assign(
        cls, shard_ids: Tuple[int, ...], *, n_slots: int = DEFAULT_SLOTS, epoch: int = 0
    ) -> "ShardMap":
        """Consistent-hash assignment of every slot to a shard.

        Each shard contributes :data:`_VNODES` tokens to a ring; a slot
        belongs to the first token clockwise of the slot's own hash.
        Tokens depend only on shard ids, so growing the set reassigns
        only the slots the new shard's tokens capture.
        """
        if not shard_ids:
            raise NamingError("need at least one shard")
        ring: List[Tuple[int, int]] = []
        for shard_id in sorted(shard_ids):
            for vnode in range(_VNODES):
                ring.append((_ring_token(f"shard:{shard_id}:v{vnode}"), shard_id))
        ring.sort()
        tokens = [token for token, _ in ring]
        owners = []
        for slot in range(n_slots):
            point = _ring_token(f"slot:{slot}")
            # first token clockwise (wrapping) of the slot's point
            lo, hi = 0, len(tokens)
            while lo < hi:
                mid = (lo + hi) // 2
                if tokens[mid] < point:
                    lo = mid + 1
                else:
                    hi = mid
            owners.append(ring[lo % len(ring)][1])
        return cls(epoch, tuple(owners))

    def __repr__(self) -> str:
        counts = {
            shard_id: len(self.slots_of(shard_id)) for shard_id in self.shard_ids
        }
        return f"ShardMap(epoch={self.epoch}, slots={counts})"


class NamingShard:
    """One shard server: a slot-checked ``NamingService`` plus a
    replica store for its ring predecessor.

    Args:
        shard_id: this server's id (stable across restarts).
        clock: the shared simulated clock.
        metrics: the shared registry (``naming.*`` and per-shard
            ``naming_shard.*`` counters).
        service_us: modelled service time charged per operation to the
            shard's timeline (0 = free, the flat-namespace default).
    """

    def __init__(
        self,
        shard_id: int,
        clock: SimClock,
        metrics: Metrics,
        *,
        service_us: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.clock = clock
        self.metrics = metrics
        self.service_us = service_us
        self.timeline = BusyTimeline(clock)
        self.service = NamingService(metrics)
        #: Replica copy of the ring predecessor's primary table.  Kept
        #: on a private registry so mirrored writes don't double the
        #: shared ``naming.*`` counters.
        self.replica = NamingService()
        #: Successor shard this primary mirrors its writes to.
        self.peer: Optional["NamingShard"] = None
        self.map: ShardMap = ShardMap(0, (shard_id,))
        self.crashed = False
        #: slot -> destination shard for slots migrating *out* (writes
        #: dual-apply behind the watermark).
        self._migrating_out: Dict[int, "NamingShard"] = {}
        #: Bindings streamed or written through while migrating *in*;
        #: merged into the primary table at the epoch cutover.
        self._incoming: Dict[AttributedName, Optional[Target]] = {}
        #: Codec snapshot taken at crash when no peer exists — the
        #: naming-DB-in-a-RHODOS-file durability path of the flat
        #: namespace (service.py's codec), modelled as a blob.
        self._stable: Optional[bytes] = None
        #: Reply cache for mutating ops, keyed by the router's per-call
        #: token (Birrell-Nelson at-most-once).  The bus may duplicate
        #: a request or re-deliver it after a lost reply; a cached
        #: token means "already applied — return the recorded answer".
        #: Modelled as riding the stable store, so it survives a crash
        #: (a straddling retransmission must not double-apply after
        #: the peer resync restored the binding).
        self._done: Dict[int, Any] = {}
        self._ops = metrics.counter(f"naming_shard.{shard_id}.ops")

    # --------------------------------------------------------- guards

    def _enter(self) -> None:
        if self.crashed:
            raise ShardDownError(f"shard {self.shard_id} is down")
        self._ops.add()
        # A free shard never touches its timeline: even a zero charge
        # would wait out the busy horizon in blocking mode.
        if self.service_us > 0:
            self.timeline.charge_ceiled(self.service_us)

    def _check_owner(self, key: str) -> int:
        slot = slot_of(key, self.map.n_slots)
        if self.map.owner_of_slot(slot) != self.shard_id:
            raise WrongShardError(
                f"shard {self.shard_id} does not own slot {slot} "
                f"(epoch {self.map.epoch})",
                epoch=self.map.epoch,
                slot=slot,
            )
        return slot

    # ------------------------------------------------------ keyed ops

    def bind(
        self, name: AttributedName, target: Target, token: Optional[int] = None
    ) -> None:
        self._enter()
        if token is not None and token in self._done:
            return self._done[token]
        slot = self._check_owner(canonical_key(name))
        self.service.bind(name, target)
        self._mirror("rebind", name, target)
        self._write_through(slot, name, target)
        if token is not None:
            self._done[token] = None

    def rebind(
        self, name: AttributedName, target: Target, token: Optional[int] = None
    ) -> None:
        self._enter()
        if token is not None and token in self._done:
            return self._done[token]
        slot = self._check_owner(canonical_key(name))
        self.service.rebind(name, target)
        self._mirror("rebind", name, target)
        self._write_through(slot, name, target)
        if token is not None:
            self._done[token] = None

    def unbind(
        self, name: AttributedName, token: Optional[int] = None
    ) -> Target:
        self._enter()
        if token is not None and token in self._done:
            return self._done[token]
        slot = self._check_owner(canonical_key(name))
        target = self.service.unbind(name)
        self._mirror("unbind", name, None)
        self._write_through(slot, name, None)
        if token is not None:
            self._done[token] = target
        return target

    def resolve(self, query: AttributedName) -> Target:
        """Keyed resolution: the whole match set lives on this shard."""
        self._enter()
        self._check_owner(canonical_key(query))
        return self.service.resolve(query)

    def contains(self, name: AttributedName) -> bool:
        self._enter()
        self._check_owner(canonical_key(name))
        return name in self.service

    def unbind_path(self, path: str, token: Optional[int] = None) -> Target:
        self._enter()
        if token is not None and token in self._done:
            return self._done[token]
        self._check_owner("p:" + NamingService._norm_path(path))
        target = self.service.unbind_path(path)
        # The exact unbound name is needed for mirroring; unbind_path
        # already removed it, so replay the removal on the mirrors by
        # path as well.
        if self.peer is not None and not self.peer.crashed:
            try:
                self.peer.replica.unbind_path(path)
            except NameNotFoundError:
                pass
        for destination in self._migrating_out.values():
            destination._incoming_unbind_path(path)
        if token is not None:
            self._done[token] = target
        return target

    # ---------------------------------------------------- fan-out ops

    def match(
        self, query: AttributedName
    ) -> List[Tuple[AttributedName, Target, bool]]:
        """Local matches of a subset query: ``(name, target, exact)``.

        Serves from the primary table only — bindings migrating *in*
        stay invisible until the cutover (single-authority reads).
        """
        self._enter()
        exact = query in self.service
        return [
            (name, target, exact and name == query)
            for name, target in self.service.lookup(query)
        ]

    def list_paths(self, prefix: str) -> List[str]:
        """This shard's contribution to ``list_directory(prefix)``."""
        self._enter()
        return self.service.list_directory(prefix)

    def size(self) -> int:
        self._enter()
        return len(self.service)

    def names(self) -> List[AttributedName]:
        self._enter()
        return list(self.service)

    def dump(self) -> bytes:
        """Codec snapshot of the primary table (satellite: partition
        round-trips are proven against the unsharded oracle)."""
        self._enter()
        return self.service.to_bytes()

    # ------------------------------------------------- replica reads

    def replica_resolve(self, query: AttributedName) -> Target:
        self._enter()
        return self.replica.resolve(query)

    def replica_match(
        self, query: AttributedName
    ) -> List[Tuple[AttributedName, Target, bool]]:
        self._enter()
        exact = query in self.replica
        return [
            (name, target, exact and name == query)
            for name, target in self.replica.lookup(query)
        ]

    def replica_contains(self, name: AttributedName) -> bool:
        self._enter()
        return name in self.replica

    def replica_list_paths(self, prefix: str) -> List[str]:
        self._enter()
        return self.replica.list_directory(prefix)

    def replica_size(self) -> int:
        self._enter()
        return len(self.replica)

    def replica_names(self) -> List[AttributedName]:
        self._enter()
        return list(self.replica)

    # ------------------------------------------------- mirror channel

    def _mirror(
        self, op: str, name: AttributedName, target: Optional[Target]
    ) -> None:
        """Write-through to the replica peer (intra-service channel).

        The channel is modelled reliable and synchronous — the paper's
        servers replicate over the same trusted interconnect the disk
        servers use — so a mirrored write costs no bus fault draws.  A
        crashed peer is skipped; its replica is rebuilt wholesale on
        restart (:meth:`ShardManager.restart_shard`).
        """
        peer = self.peer
        if peer is None or peer is self or peer.crashed:
            return
        if op == "unbind":
            try:
                peer.replica.unbind(name)
            except NameNotFoundError:
                pass
        else:
            assert target is not None
            peer.replica.rebind(name, target)

    # --------------------------------------------------- migration io

    def _write_through(
        self, slot: int, name: AttributedName, target: Optional[Target]
    ) -> None:
        """Dual-apply a write to the migration destination, if any.

        This is the watermark discipline: from ``begin_rebalance`` on,
        every write to a migrating slot lands on both sides, so the
        stream only has to copy the snapshot behind it.  A destination
        that died is skipped — the abort path discards its partial
        state, so nothing can be served from it.
        """
        destination = self._migrating_out.get(slot)
        if destination is None or destination.crashed:
            return
        destination._incoming[name] = target

    def _incoming_unbind_path(self, path: str) -> None:
        if self.crashed:
            return
        normalised = NamingService._norm_path(path)
        for name in list(self._incoming):
            if (
                name.object_type is ObjectType.FILE
                and name.get("path") == normalised
            ):
                self._incoming[name] = None

    # ----------------------------------------------------- lifecycle

    def crash(self) -> None:
        """Process death: volatile state (the in-memory tables) is lost.

        Without a peer the naming DB is recovered from its codec
        snapshot (the flat namespace's RHODOS-file path); with peers,
        restart streams from the replica — the point of the exercise.
        """
        if self.peer is None or self.peer is self:
            self._stable = self.service.to_bytes()
        self.crashed = True
        self.service = NamingService(self.metrics)
        self.replica = NamingService()
        self._incoming = {}
        self._migrating_out = {}

    def snapshot(self) -> bytes:
        """Control-plane copy of the primary table (no timeline charge)."""
        return self.service.to_bytes()

    def replica_dump(self) -> bytes:
        self._enter()
        return self.replica.to_bytes()

    def replica_snapshot(self) -> bytes:
        return self.replica.to_bytes()

    def __repr__(self) -> str:
        state = "down" if self.crashed else "up"
        return (
            f"NamingShard(id={self.shard_id}, {state}, "
            f"bindings={len(self.service)}, replica={len(self.replica)})"
        )


class _Migration:
    """One in-flight rebalance: slots streaming from sources to ``destination``."""

    __slots__ = ("destination", "slots", "sources", "stream", "watermark", "failed")

    def __init__(
        self,
        destination: NamingShard,
        slots: Tuple[int, ...],
        sources: Dict[int, NamingShard],
        stream: List[Tuple[int, AttributedName]],
    ) -> None:
        self.destination = destination
        self.slots = slots
        self.sources = sources  # slot -> source shard
        self.stream = stream  # deterministic (slot, name) order
        self.watermark = 0
        self.failed = False

    @property
    def done(self) -> bool:
        return self.watermark >= len(self.stream)


class ShardManager:
    """Owns the authoritative shard map, peer links, and rebalancing.

    The manager is control plane: it never sits on a data path, so its
    calls are direct (no bus) and charge no service time — exactly like
    the RAID tier's rebuild coordinator.
    """

    def __init__(
        self,
        shards: Dict[int, NamingShard],
        *,
        n_slots: int = DEFAULT_SLOTS,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if not shards:
            raise NamingError("need at least one shard")
        self.metrics = metrics or Metrics()
        self.shards: Dict[int, NamingShard] = dict(shards)
        self._map = ShardMap.assign(tuple(sorted(shards)), n_slots=n_slots)
        self._migration: Optional[_Migration] = None
        self._install_map(self._map)
        self._relink_peers()
        self.metrics.gauge("naming_shard.epoch", 0)

    # ------------------------------------------------------------ map

    @property
    def map(self) -> ShardMap:
        return self._map

    def get_map(self) -> ShardMap:
        """Router fetch: the authoritative current map."""
        return self._map

    def _install_map(self, shard_map: ShardMap) -> None:
        self._map = shard_map
        for shard in self.shards.values():
            shard.map = shard_map
        self.metrics.gauge("naming_shard.epoch", shard_map.epoch)

    def _relink_peers(self) -> None:
        """Ring the shards in id order; rebuild every replica wholesale.

        Wholesale rebuild keeps peer reassignment trivially correct
        (membership changes are rare control-plane events); the
        steady-state mirror is the incremental write-through.
        """
        ids = sorted(self.shards)
        for index, shard_id in enumerate(ids):
            shard = self.shards[shard_id]
            peer = self.shards[ids[(index + 1) % len(ids)]]
            shard.peer = None if peer is shard else peer
        for shard_id in ids:
            shard = self.shards[shard_id]
            if shard.peer is not None and not shard.peer.crashed and not shard.crashed:
                shard.peer.replica = NamingService.from_bytes(shard.snapshot())

    def peer_id_of(self, shard_id: int) -> Optional[int]:
        shard = self.shards.get(shard_id)
        if shard is None or shard.peer is None:
            return None
        return shard.peer.shard_id

    # ----------------------------------------------------- membership

    def add_shard(self, shard: NamingShard) -> None:
        """Register a spare shard: owns no slots until a rebalance."""
        if shard.shard_id in self.shards:
            raise NamingError(f"shard {shard.shard_id} already registered")
        self.shards[shard.shard_id] = shard
        shard.map = self._map
        self._relink_peers()
        self.metrics.add("naming_shard.shards_added")

    def restart_shard(self, shard_id: int) -> None:
        """Un-crash a shard and resync both its roles from the ring.

        The primary table streams back from the peer's replica copy
        (or, peerless, from the codec snapshot taken at crash); the
        shard's own replica store rebuilds from its predecessor.  An
        in-flight migration targeting the restarted shard was aborted
        at detection, so there is no partial incoming state to merge.
        """
        shard = self.shards[shard_id]
        shard.crashed = False
        if shard.peer is not None and shard.peer is not shard:
            shard.service = NamingService.from_bytes(
                shard.peer.replica_snapshot(), shard.metrics
            )
        elif shard._stable is not None:
            shard.service = NamingService.from_bytes(shard._stable, shard.metrics)
        self._relink_peers()
        self.metrics.add("naming_shard.resyncs")

    # ----------------------------------------------------- rebalancing

    def begin_rebalance(
        self, destination_id: int, slots: Optional[Tuple[int, ...]] = None
    ) -> Tuple[int, ...]:
        """Mark slots migrating to ``destination_id``; start the stream.

        With ``slots`` unset, the consistent-hash assignment over the
        *current* membership decides: the destination receives exactly
        the slots its ring tokens capture — which is how ``add_shard``
        followed by ``begin_rebalance`` implements ``split_shard``.
        Returns the slots chosen.
        """
        if self._migration is not None:
            raise NamingError("a rebalance is already in flight")
        destination = self.shards[destination_id]
        if destination.crashed:
            raise ShardDownError(f"shard {destination_id} is down")
        if slots is None:
            target = ShardMap.assign(
                tuple(sorted(self.shards)), n_slots=self._map.n_slots
            )
            slots = tuple(
                slot
                for slot in range(self._map.n_slots)
                if target.owner_of_slot(slot) == destination_id
                and self._map.owner_of_slot(slot) != destination_id
            )
        slots = tuple(sorted(slots))
        sources: Dict[int, NamingShard] = {}
        stream: List[Tuple[int, AttributedName]] = []
        for slot in slots:
            source = self.shards[self._map.owner_of_slot(slot)]
            if source is destination:
                continue
            sources[slot] = source
            slot_names = [
                name
                for name in source.service
                if slot_of(canonical_key(name), self._map.n_slots) == slot
            ]
            slot_names.sort(key=lambda name: (canonical_key(name), repr(name)))
            stream.extend((slot, name) for name in slot_names)
            source._migrating_out[slot] = destination
        self._migration = _Migration(destination, slots, sources, stream)
        self.metrics.add("naming_shard.migrations_started")
        return slots

    def step_rebalance(self, max_bindings: int = 64) -> int:
        """Stream up to ``max_bindings`` snapshot entries; returns the count.

        Entries unbound since the snapshot are skipped (the
        write-through already propagated the removal).  A destination
        found dead aborts the whole migration — the source keeps sole
        ownership, so nothing is lost and nothing was ever served from
        the partial copy.
        """
        migration = self._migration
        if migration is None:
            return 0
        if migration.destination.crashed:
            self.abort_rebalance()
            return 0
        streamed = 0
        while streamed < max_bindings and not migration.done:
            slot, name = migration.stream[migration.watermark]
            migration.watermark += 1
            source = migration.sources[slot]
            if name not in source.service:
                continue  # unbound behind the watermark; removal already forwarded
            if name in migration.destination._incoming:
                continue  # write-through got there first; it is newer
            migration.destination._incoming[name] = source.service.resolve(name)
            streamed += 1
        self.metrics.add("naming_shard.streamed_bindings", streamed)
        return streamed

    @property
    def rebalance_in_flight(self) -> bool:
        return self._migration is not None

    @property
    def rebalance_done(self) -> bool:
        return self._migration is not None and self._migration.done

    def abort_rebalance(self) -> None:
        """Discard the migration: destination state dropped, map unchanged."""
        migration = self._migration
        if migration is None:
            return
        for source in migration.sources.values():
            for slot in migration.slots:
                source._migrating_out.pop(slot, None)
        migration.destination._incoming = {}
        self._migration = None
        self.metrics.add("naming_shard.migrations_aborted")

    def complete_rebalance(self) -> ShardMap:
        """The atomic cutover: merge, transfer ownership, bump the epoch.

        Requires the stream drained.  In one instant of simulated time
        the destination merges its incoming set into the primary table,
        every source drops the moved bindings, and the new map installs
        everywhere the manager reaches — routers with the old epoch get
        ``WrongShardError`` from the sources and re-fetch.
        """
        migration = self._migration
        if migration is None:
            raise NamingError("no rebalance in flight")
        if not migration.done:
            raise NamingError(
                f"stream not drained: watermark {migration.watermark}"
                f"/{len(migration.stream)}"
            )
        destination = migration.destination
        if destination.crashed:
            self.abort_rebalance()
            raise ShardDownError("migration destination died before cutover")
        new_map = self._map.moved(migration.slots, destination.shard_id)
        self._install_map(new_map)
        for name, target in destination._incoming.items():
            if target is None:
                continue
            destination.service.rebind(name, target)
        destination._incoming = {}
        slot_set = set(migration.slots)
        unique_sources = {
            source.shard_id: source for source in migration.sources.values()
        }
        for source_id in sorted(unique_sources):
            source = unique_sources[source_id]
            for slot in migration.slots:
                source._migrating_out.pop(slot, None)
            for name in list(source.service):
                if slot_of(canonical_key(name), new_map.n_slots) in slot_set:
                    source.service.unbind(name)
        self._migration = None
        self._relink_peers()
        self.metrics.add("naming_shard.migrations_completed")
        return new_map

    def __repr__(self) -> str:
        return (
            f"ShardManager({len(self.shards)} shards, epoch={self._map.epoch}, "
            f"migration={'yes' if self._migration else 'no'})"
        )


#: How a router invokes one shard op: ``caller(op, args_tuple)``.
ShardCaller = Callable[[str, tuple], Any]

#: Errors that mean "this shard is unreachable" — fail reads over.
_DOWN_ERRORS = (ShardDownError, RpcTimeoutError, CircuitOpenError)


class PlacementPolicy:
    """Chunk→volume write placement for creates without a volume hint.

    ``fixed`` reproduces the historical choice (first volume);
    ``round_robin`` cycles; ``least_loaded`` reads the live
    ``disk.N.queue_depth`` and ``disk.N.utilization`` gauges the
    pipelines and disks already publish — the clusterIO discipline of
    steering new chunks at the coldest spindle.
    """

    def __init__(
        self,
        volume_ids: List[int],
        policy: str = "fixed",
        metrics: Optional[Metrics] = None,
    ) -> None:
        if not volume_ids:
            raise NamingError("placement needs at least one volume")
        if policy not in ("fixed", "round_robin", "least_loaded"):
            raise NamingError(f"unknown placement policy {policy!r}")
        self.volume_ids = sorted(volume_ids)
        self.policy = policy
        self.metrics = metrics or Metrics()
        self._next = 0

    def place(self) -> int:
        if self.policy == "fixed":
            return self.volume_ids[0]
        if self.policy == "round_robin":
            volume_id = self.volume_ids[self._next % len(self.volume_ids)]
            self._next += 1
            return volume_id
        return min(self.volume_ids, key=self._load)

    def _load(self, volume_id: int) -> Tuple[int, int, int]:
        queue = self.metrics.get_gauge(f"disk.{volume_id}.queue_depth") or 0
        utilization = self.metrics.get_gauge(f"disk.{volume_id}.utilization") or 0
        return (queue, utilization, volume_id)  # volume id breaks ties


class ShardedNamespace:
    """The client-side router: a ``NamingService``-shaped view over shards.

    Owns a cached :class:`ShardMap` (re-fetched on
    :class:`WrongShardError`), routes keyed operations to the owning
    shard, fans un-routable subset queries out to every shard and
    arbitrates exactly like the flat service (exact match wins, zero
    matches raise ``NameNotFoundError``, several raise ambiguity), and
    fails reads over to the replica peer when a primary is dead.

    Args:
        callers: shard id -> transport (direct closure or RPC stub).
        fetch_map: the manager's authoritative-map fetch.
        peer_of: shard id -> replica peer id (None = no failover).
        metrics: shared registry.
        health: optional failure detector fed with shard evidence.
        placement: optional chunk→volume policy (:meth:`place_volume`).
    """

    def __init__(
        self,
        callers: Dict[int, ShardCaller],
        fetch_map: Callable[[], ShardMap],
        *,
        peer_of: Optional[Callable[[int], Optional[int]]] = None,
        metrics: Optional[Metrics] = None,
        health: Optional[HealthRegistry] = None,
        placement: Optional[PlacementPolicy] = None,
        max_redirects: int = 4,
    ) -> None:
        if not callers:
            raise NamingError("router needs at least one shard caller")
        self._callers = dict(callers)
        self._fetch_map = fetch_map
        self._peer_of = peer_of
        self.metrics = metrics or Metrics()
        self.health = health
        self.placement = placement
        self.max_redirects = max_redirects
        self._map = fetch_map()
        #: Per-call token for mutating ops — the shard's reply cache
        #: dedupes retransmitted/duplicated deliveries against it.
        self._next_token = monotonic_id_factory()

    # --------------------------------------------------------- wiring

    def add_caller(self, shard_id: int, caller: ShardCaller) -> None:
        """Register the transport of a shard added after construction."""
        self._callers[shard_id] = caller

    @property
    def map_epoch(self) -> int:
        return self._map.epoch

    def place_volume(self) -> int:
        """Pick the volume for a new file's chunks (write placement)."""
        if self.placement is None:
            raise NamingError("no placement policy configured")
        return self.placement.place()

    # ------------------------------------------------------ transport

    def _invoke(self, shard_id: int, op: str, args: tuple) -> Any:
        caller = self._callers.get(shard_id)
        if caller is None:
            raise NamingError(f"no transport for shard {shard_id}")
        return caller(op, args)

    def _note_down(self, shard_id: int) -> None:
        self.metrics.add("naming_shard.failovers")
        if self.health is not None:
            self.health.note_error(shard_component(shard_id), permanent=True)

    def _call_keyed(self, key: str, op: str, args: tuple) -> Any:
        """Route a keyed op to the slot owner; chase epoch bumps."""
        for _attempt in range(self.max_redirects + 1):
            shard_id = self._map.owner_of(key)
            try:
                return self._invoke(shard_id, op, args)
            except WrongShardError:
                self.metrics.add("naming_shard.redirects")
                self._map = self._fetch_map()
        raise NamingError(
            f"shard map did not converge after {self.max_redirects} redirects"
        )

    def _read_keyed(self, key: str, op: str, args: tuple) -> Any:
        """A keyed *read*: on a dead primary, serve from the peer replica."""
        for _attempt in range(self.max_redirects + 1):
            shard_id = self._map.owner_of(key)
            try:
                return self._invoke(shard_id, op, args)
            except WrongShardError:
                self.metrics.add("naming_shard.redirects")
                self._map = self._fetch_map()
            except _DOWN_ERRORS:
                self._note_down(shard_id)
                return self._failover_read(shard_id, op, args)
        raise NamingError(
            f"shard map did not converge after {self.max_redirects} redirects"
        )

    def _failover_read(self, shard_id: int, op: str, args: tuple) -> Any:
        peer_id = self._peer_of(shard_id) if self._peer_of is not None else None
        if peer_id is None:
            raise ShardDownError(
                f"shard {shard_id} is down and has no replica peer"
            )
        return self._invoke(peer_id, "replica_" + op, args)

    def _read_all(self, op: str, args: tuple) -> Iterator[Tuple[int, Any]]:
        """Fan a read out to every shard, replica-failing-over per shard."""
        for shard_id in sorted(self._callers):
            try:
                yield shard_id, self._invoke(shard_id, op, args)
            except _DOWN_ERRORS:
                self._note_down(shard_id)
                yield shard_id, self._failover_read(shard_id, op, args)

    # -------------------------------------------- NamingService surface

    def bind(self, name: AttributedName, target: Target) -> None:
        self._call_keyed(
            canonical_key(name), "bind", (name, target, self._next_token())
        )

    def rebind(self, name: AttributedName, target: Target) -> None:
        self._call_keyed(
            canonical_key(name), "rebind", (name, target, self._next_token())
        )

    def unbind(self, name: AttributedName) -> Target:
        return self._call_keyed(
            canonical_key(name), "unbind", (name, self._next_token())
        )

    def resolve(self, query: AttributedName) -> Target:
        key = routing_key(query)
        if key is not None:
            return self._read_keyed(key, "resolve", (query,))
        self.metrics.add("naming_shard.fan_outs")
        matches: List[Tuple[int, AttributedName, Target, bool]] = []
        for shard_id, local in self._read_all("match", (query,)):
            matches.extend(
                (shard_id, name, target, exact) for name, target, exact in local
            )
        exacts = [entry for entry in matches if entry[3]]
        if exacts:
            return exacts[0][2]
        if not matches:
            raise NameNotFoundError(f"nothing matches {query}")
        if len(matches) > 1:
            raise NamingError(
                f"{query} is ambiguous: matches "
                f"{[str(name) for _, name, _, _ in matches]}"
            )
        return matches[0][2]

    def resolve_file(self, query: AttributedName) -> SystemName:
        if query.object_type is not ObjectType.FILE:
            raise NamingError(f"{query} is not a FILE name")
        target = self.resolve(query)
        if not isinstance(target, SystemName):
            raise NamingError(f"{query} resolved to a device, not a file")
        return target

    def lookup(self, query: AttributedName) -> List[Tuple[AttributedName, Target]]:
        results: List[Tuple[AttributedName, Target]] = []
        for _shard_id, local in self._read_all("match", (query,)):
            results.extend((name, target) for name, target, _exact in local)
        return results

    def __contains__(self, name: AttributedName) -> bool:
        return bool(self._read_keyed(canonical_key(name), "contains", (name,)))

    def __len__(self) -> int:
        return sum(count for _sid, count in self._read_all("size", ()))

    def __iter__(self) -> Iterator[AttributedName]:
        names: List[AttributedName] = []
        for _shard_id, local in self._read_all("names", ()):
            names.extend(local)
        return iter(names)

    # ------------------------------------------------- path helpers

    def bind_path(self, path: str, target: SystemName, **attrs: str) -> AttributedName:
        name = AttributedName.file(path=NamingService._norm_path(path), **attrs)
        self.bind(name, target)
        return name

    def resolve_path(self, path: str) -> SystemName:
        return self.resolve_file(
            AttributedName.file(path=NamingService._norm_path(path))
        )

    def unbind_path(self, path: str) -> Target:
        key = "p:" + NamingService._norm_path(path)
        return self._call_keyed(
            key, "unbind_path", (path, self._next_token())
        )

    def list_directory(self, prefix: str) -> List[str]:
        seen = set()
        for _shard_id, local in self._read_all("list_paths", (prefix,)):
            seen.update(local)
        return sorted(seen)

    # ----------------------------------------------------- inspection

    def shard_dumps(self) -> Dict[int, bytes]:
        """Per-shard codec snapshots (partition/round-trip checks)."""
        return {shard_id: blob for shard_id, blob in self._read_all("dump", ())}

    def to_bytes(self) -> bytes:
        """Serialise the *whole* namespace through the flat codec.

        The union of the shard tables round-trips through
        :meth:`NamingService.from_bytes` unchanged — sharding is a
        partition of the binding set, not a different data model — so
        the naming database stays storable in a RHODOS file exactly as
        before.  Shards are merged in id order for byte determinism.
        """
        merged = NamingService()
        for shard_id in sorted(self._callers):
            try:
                blob = self._invoke(shard_id, "dump", ())
            except _DOWN_ERRORS:
                self._note_down(shard_id)
                blob = self._failover_read(shard_id, "dump", ())
            part = NamingService.from_bytes(blob)
            for name in part:
                merged._install(name, part.resolve(name))
        return merged.to_bytes()

    def __repr__(self) -> str:
        return (
            f"ShardedNamespace({len(self._callers)} shards, "
            f"epoch={self._map.epoch})"
        )


Shardable = Union[NamingService, ShardedNamespace]
