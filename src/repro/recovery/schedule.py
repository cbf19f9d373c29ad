"""Deterministic crash/restart scripts in simulated time.

A :class:`FailureSchedule` is a list of scripted events — "at simulated
time *t*, take component *c* down for *d* microseconds" — polled from a
workload loop.  Three event types exist: a volume crash/restart
(:class:`FailureEvent`), a RAID member kill/replace
(:class:`MemberFailureEvent`) and a naming-shard kill/restart
(:class:`ShardFailureEvent`).  Each supplies its overlap key, its host
fail/repair calls, its counter names and its log text, so the schedule
has one overlap check, one pending queue and one fire path for all of
them.

Because the simulation is single-threaded, crashes land *between*
operations, never inside a physical write; the sub-write crash
atomicity story belongs to the crash-point sweep
(:mod:`repro.chaos.scheduler`).  What the schedule adds is the other
half of the reliability claim: recovery running **concurrently with
traffic** — the workload keeps issuing operations while a component is
down and while its restart/resync is in progress.

The schedule is pure bookkeeping: the actual crash and restart are
performed by a :class:`LifecycleHost` (in practice
:class:`~repro.cluster.system.RhodosCluster`), so this module depends
only on :mod:`repro.common`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Protocol, Sequence, Tuple, Union

from repro.common.clock import SimClock
from repro.common.metrics import Metrics


class LifecycleHost(Protocol):
    """What a schedule drives: something that can fail and repair
    every kind of component an event can name (in practice
    :class:`~repro.cluster.system.RhodosCluster`)."""

    def fail_volume(self, volume_id: int) -> None: ...

    def restart_volume(self, volume_id: int) -> None: ...

    def fail_member(self, volume_id: int, member_index: int) -> None: ...

    def replace_member(self, volume_id: int, member_index: int) -> object: ...

    def fail_shard(self, shard_id: int) -> None: ...

    def restart_shard(self, shard_id: int) -> None: ...


class _Scripted:
    """What every event type supplies to the schedule's one code path.

    Subclasses are frozen dataclasses with ``at_us`` and ``down_us``
    fields and set the class constants below.
    """

    __slots__ = ()

    #: Same-instant firing order among event types (repairs of every
    #: type still precede every failure at one instant).
    RANK: ClassVar[int]
    #: Log verbs of the failure and the repair.
    VERBS: ClassVar[Tuple[str, str]]
    #: ``recovery.*`` counters bumped by the failure and the repair.
    COUNTERS: ClassVar[Tuple[str, str]]

    at_us: int
    down_us: int

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError(f"{self.VERBS[0]} time cannot be negative")
        if self.down_us <= 0:
            raise ValueError("downtime must be positive")
        if min(self.key) < 0:
            raise ValueError(f"{self.target}: ids cannot be negative")

    @property
    def key(self) -> Tuple[int, ...]:
        """The failing component; windows of one key must not overlap."""
        raise NotImplementedError

    @property
    def target(self) -> str:
        """The component as the lifecycle log names it."""
        raise NotImplementedError

    def fail(self, host: LifecycleHost) -> None:
        raise NotImplementedError

    def repair(self, host: LifecycleHost) -> None:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class FailureEvent(_Scripted):
    """One crash/restart pair: down at ``at_us``, back ``down_us`` later."""

    RANK = 0
    VERBS = ("crash", "restart")
    COUNTERS = ("recovery.crashes_injected", "recovery.restarts_injected")

    at_us: int
    volume_id: int
    down_us: int

    @property
    def restart_at_us(self) -> int:
        return self.at_us + self.down_us

    @property
    def key(self) -> Tuple[int, ...]:
        return (self.volume_id,)

    @property
    def target(self) -> str:
        return f"volume {self.volume_id}"

    def fail(self, host: LifecycleHost) -> None:
        host.fail_volume(self.volume_id)

    def repair(self, host: LifecycleHost) -> None:
        host.restart_volume(self.volume_id)


@dataclass(frozen=True, slots=True)
class MemberFailureEvent(_Scripted):
    """One member-disk kill/replace pair for a RAID-backed volume.

    "Disk ``member_index`` of volume ``volume_id`` dies at ``at_us``;
    a blank replacement arrives ``down_us`` later" — the scripted form
    of the RAID tier's degraded/rebuild scenarios.  Unlike a
    :class:`FailureEvent` the *volume keeps serving* throughout: the
    kill drops the array to degraded mode, the replacement starts a
    background rebuild.
    """

    RANK = 1
    VERBS = ("kill", "replace")
    COUNTERS = (
        "recovery.member_kills_injected",
        "recovery.member_replacements_injected",
    )

    at_us: int
    volume_id: int
    member_index: int
    down_us: int

    @property
    def replace_at_us(self) -> int:
        return self.at_us + self.down_us

    @property
    def key(self) -> Tuple[int, ...]:
        return (self.volume_id, self.member_index)

    @property
    def target(self) -> str:
        return f"member {self.member_index} of volume {self.volume_id}"

    def fail(self, host: LifecycleHost) -> None:
        host.fail_member(self.volume_id, self.member_index)

    def repair(self, host: LifecycleHost) -> None:
        host.replace_member(self.volume_id, self.member_index)


@dataclass(frozen=True, slots=True)
class ShardFailureEvent(_Scripted):
    """One naming-shard kill/restart pair.

    "Shard server ``shard_id`` crashes at ``at_us`` and restarts
    ``down_us`` later" — the scripted form of the sharded namespace's
    failover scenarios.  While the shard is down its keyed operations
    fail over to the replica held by its ring successor; the restart
    resyncs the primary from that replica.
    """

    RANK = 2
    VERBS = ("kill", "restart")
    COUNTERS = (
        "recovery.shard_kills_injected",
        "recovery.shard_restarts_injected",
    )

    at_us: int
    shard_id: int
    down_us: int

    @property
    def restart_at_us(self) -> int:
        return self.at_us + self.down_us

    @property
    def key(self) -> Tuple[int, ...]:
        return (self.shard_id,)

    @property
    def target(self) -> str:
        return f"shard {self.shard_id}"

    def fail(self, host: LifecycleHost) -> None:
        host.fail_shard(self.shard_id)

    def repair(self, host: LifecycleHost) -> None:
        host.restart_shard(self.shard_id)


#: Anything a schedule can script.
ScheduledEvent = Union[FailureEvent, MemberFailureEvent, ShardFailureEvent]


class FailureSchedule:
    """Polls the clock and fires due failure/repair actions, in order.

    Args:
        events: the script — volume crash/restart pairs, RAID member
            kill/replace pairs, and naming-shard kill/restart pairs,
            freely mixed; windows of the same component (one volume,
            one member of one volume, one shard) must not overlap.
        clock: the shared simulated clock the script reads.
        metrics: optional registry (``recovery.*`` counters).
    """

    def __init__(
        self,
        events: Sequence[ScheduledEvent],
        clock: SimClock,
        *,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics or Metrics()
        self._events: Tuple[ScheduledEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.RANK, e.at_us, e.key))
        )
        #: Actions not yet fired: (time, failing, rank, key, seq, event).
        #: The sort puts every repair before every failure due at the
        #: same instant, then orders by event type and component.
        pending = []
        last_repair: dict[tuple, int] = {}
        for seq, event in enumerate(self._events):
            component = (event.RANK, event.key)
            previous = last_repair.get(component)
            if previous is not None and event.at_us < previous:
                raise ValueError(
                    f"{event.target}: {event.VERBS[0]} at {event.at_us}us "
                    f"overlaps the window ending at {previous}us"
                )
            repair_at = event.at_us + event.down_us
            last_repair[component] = repair_at
            pending.append((event.at_us, True, event.RANK, event.key, seq, event))
            pending.append((repair_at, False, event.RANK, event.key, seq, event))
        self._pending = sorted(pending)
        self._down_since: dict[tuple, int] = {}
        #: Completed (event type, key, down_at, repaired_at) windows.
        self._windows: List[Tuple[type, Tuple[int, ...], int, int]] = []

    # ----------------------------------------------------------- api

    @property
    def events(self) -> Tuple[ScheduledEvent, ...]:
        return self._events

    def done(self) -> bool:
        return not self._pending

    def next_event_us(self) -> Optional[int]:
        """Simulated time of the next unfired action (None when done)."""
        return self._pending[0][0] if self._pending else None

    def poll(self, host: LifecycleHost) -> List[str]:
        """Fire every action due at the current clock; returns a log.

        Call between workload operations.  Actions fire in scripted
        time order even when the clock jumped past several of them, so
        a repair always precedes a later failure of the same component.
        """
        actions: List[str] = []
        now = self.clock.now_us
        while self._pending and self._pending[0][0] <= now:
            at_us, failing, rank, key, _seq, event = self._pending.pop(0)
            if failing:
                self._down_since[(rank, key)] = at_us
                event.fail(host)
            else:
                started = self._down_since.pop((rank, key), at_us)
                self._windows.append((type(event), key, started, at_us))
                event.repair(host)
            step = 0 if failing else 1
            self.metrics.add(event.COUNTERS[step])
            actions.append(f"t={at_us}us {event.VERBS[step]} {event.target}")
        return actions

    def run_out(self, host: LifecycleHost) -> List[str]:
        """Advance the clock through every remaining action and fire it.

        Used at end-of-workload so a run always converges to a fully
        restarted system before the final invariant checks.
        """
        actions: List[str] = []
        while self._pending:
            self.clock.advance_to(self._pending[0][0])
            actions.extend(self.poll(host))
        return actions

    def _windows_of(self, kind: type) -> List[Tuple[int, ...]]:
        return [
            (*key, start, end)
            for event_type, key, start, end in self._windows
            if event_type is kind
        ]

    def downtime_windows(self) -> List[Tuple[int, ...]]:
        """Completed (volume_id, down_at_us, restarted_at_us) windows."""
        return self._windows_of(FailureEvent)

    def member_windows(self) -> List[Tuple[int, ...]]:
        """Completed (volume, member, killed_at, replaced_at) windows."""
        return self._windows_of(MemberFailureEvent)

    def shard_windows(self) -> List[Tuple[int, ...]]:
        """Completed (shard_id, killed_at, restarted_at) windows."""
        return self._windows_of(ShardFailureEvent)

    def __repr__(self) -> str:
        return (
            f"FailureSchedule({len(self._events)} events, "
            f"{len(self._pending)} actions pending)"
        )
