"""Deferred-time service frames: the overlapped-operation time context.

Historically every modelled delay — a disk reference, an RPC hop, a
port transfer — advanced the one shared
:class:`~repro.common.clock.SimClock` inline, which serializes the
whole simulated world: two operations on two different disks cost the
*sum* of their service times instead of the max.

A :class:`ServiceFrame` is the deferred-time context one overlapped
operation runs inside.  While a frame is open, components charge their
delays to the frame's *cursor* (via :func:`charge_elapsed` or a
:class:`BusyTimeline`) instead of the global clock.  On exit the
cursor is the operation's completion time; the caller (a request
pipeline or the cluster's concurrent driver) schedules the completion
on the event loop, and the loop advances the clock event-to-event.
With no frame open, charging falls back to inline clock advancement —
bit-identical to the historical blocking semantics, which is what
keeps every sequential test and benchmark byte-stable.

Frames nest (the innermost wins) and are keyed by clock instance, so
independent simulated systems in one process never share a frame
stack.  :class:`FrameFork` expresses fan-out *within* an operation —
e.g. a replicated write updating all replicas in parallel: branches
replay from the fork point and the join advances the cursor to the
slowest branch.

A :class:`BusyTimeline` is a serial resource's busy-until horizon —
one per disk, one per naming shard server.  It splits the two meanings
an inline clock advance conflated: service time *charged* to the
resource (``busy_until_us`` moves by every reservation) and the global
clock *advanced* (only when somebody waits: blocking mode waits
inline, a frame defers the wait to the event loop).

Everything here is deterministic: time is integer microseconds, state
is explicit, and nothing consults wall clock, dict order, or object
identity.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional

from repro.analysis import monitor as _monitor
from repro.common.clock import SimClock

#: Active frame stacks, keyed by ``id(clock)``.  The simulation is
#: single-threaded by construction (DESIGN.md §2), and the context
#: manager below pops eagerly, so entries never outlive their block.
_FRAMES: Dict[int, List["ServiceFrame"]] = {}


class ServiceFrame:
    """Deferred-time context for one overlapped operation.

    The frame's ``cursor_us`` starts at the global now and advances by
    every charge the operation performs, sequencing the operation's own
    delays while leaving the global clock — and therefore every *other*
    operation — untouched.
    """

    __slots__ = ("clock", "cursor_us", "waited_us", "charged_us")

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.cursor_us = clock.now_us
        #: Total time this operation's charges spent queued behind
        #: other operations' reservations (start - cursor, summed).
        self.waited_us = 0
        #: Total service time charged through this frame.
        self.charged_us = 0

    def __repr__(self) -> str:
        return (
            f"ServiceFrame(cursor_us={self.cursor_us}, "
            f"waited_us={self.waited_us}, charged_us={self.charged_us})"
        )


def active_frame(clock: SimClock) -> Optional[ServiceFrame]:
    """The innermost frame open for ``clock``, or None (blocking mode)."""
    stack = _FRAMES.get(id(clock))
    return stack[-1] if stack else None


def frame_now(clock: SimClock) -> int:
    """The operation-local now: frame cursor if one is open, else clock."""
    frame = active_frame(clock)
    return frame.cursor_us if frame is not None else clock.now_us


@contextlib.contextmanager
def service_frame(clock: SimClock) -> Iterator[ServiceFrame]:
    """Open a deferred-time frame: charges inside move the frame cursor.

    On exit the frame's ``cursor_us`` is the operation's completion
    time; the caller (a pipeline or driver) schedules the completion on
    the event loop instead of advancing the clock inline.
    """
    frame = ServiceFrame(clock)
    stack = _FRAMES.setdefault(id(clock), [])
    stack.append(frame)
    try:
        yield frame
    finally:
        stack.pop()
        if not stack:
            del _FRAMES[id(clock)]


def ceil_us(delta_us: float) -> int:
    """Round a delay up to whole microseconds.

    Mirrors :meth:`SimClock.advance_us` so a frame charge and the old
    inline advancement account for identical integer time.
    """
    return int(-(-delta_us // 1))


def charge_elapsed(clock: SimClock, delta_us: float) -> None:
    """Charge a plain (non-disk) delay — RPC latency, port transfer.

    Inside a frame the delay extends the frame cursor; otherwise the
    clock advances inline, exactly as ``clock.advance_us`` always did.
    Components with a busy-until resource of their own (disks) charge
    through their timeline instead.
    """
    frame = active_frame(clock)
    if frame is None:
        clock.advance_us(delta_us)
        return
    charged = ceil_us(delta_us)
    frame.cursor_us += charged
    frame.charged_us += charged


class FrameFork:
    """Fan one frame out into parallel branches, then join at the max.

    With no frame open every branch is a no-op passthrough (the
    operations run sequentially, as blocking mode always did), so
    callers fan out unconditionally::

        fork = FrameFork(clock)
        for replica in replicas:
            with fork.branch():
                replica.write(...)
        fork.join()

    Branches replay from the fork-point cursor; ``join`` advances the
    cursor to the slowest branch.  Per-disk ``busy_until`` ordering
    still applies inside each branch, so two branches on one disk
    serialize while branches on different disks overlap.
    """

    __slots__ = ("frame", "start_us", "end_us", "_branch_tasks")

    def __init__(self, clock: SimClock) -> None:
        self.frame = active_frame(clock)
        self.start_us = self.frame.cursor_us if self.frame is not None else 0
        self.end_us = self.start_us
        self._branch_tasks: List[int] = []

    @contextlib.contextmanager
    def branch(self) -> Iterator[None]:
        if self.frame is None:
            # Passthrough: blocking mode runs branches sequentially, so
            # program order already covers them — no monitor task.
            yield
            return
        self.frame.cursor_us = self.start_us
        mon = _monitor.active()
        tid = mon.open_task("fork.branch") if mon.enabled else 0
        try:
            yield
        finally:
            if mon.enabled:
                mon.close_task()
                self._branch_tasks.append(tid)
            self.end_us = max(self.end_us, self.frame.cursor_us)

    def join(self) -> None:
        if self.frame is not None:
            self.frame.cursor_us = max(self.end_us, self.frame.cursor_us)
            mon = _monitor.active()
            if mon.enabled and self._branch_tasks:
                # The joiner sees every branch's effects; branches stay
                # mutually unordered (that is the fork's whole point).
                mon.rejoin("fork.join", after=tuple(self._branch_tasks))
                self._branch_tasks = []


class BusyTimeline:
    """One serial resource's busy-until timeline (a disk, a shard server).

    Args:
        clock: the shared simulated clock the timeline waits against.

    Attributes:
        busy_until_us: absolute time the resource finishes its last
            accepted reservation; new charges start at
            ``max(now, busy_until_us)``.
        busy_total_us: cumulative service time ever charged — the
            numerator of the utilization gauge.
        last_wait_us: queue wait of the most recent charge (how long it
            sat behind earlier reservations).
    """

    __slots__ = ("clock", "busy_until_us", "busy_total_us", "last_wait_us")

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.busy_until_us = 0
        self.busy_total_us = 0
        self.last_wait_us = 0

    def charge(self, elapsed_us: float) -> tuple[int, int]:
        """Charge one reservation's service time; returns ``(start, end)``.

        With no frame active this blocks in simulated time — the global
        clock advances to ``end`` exactly as an inline ``advance_us``
        did for sequential callers.  Inside a :func:`service_frame`
        only the frame cursor moves; the global clock is left for the
        event loop to advance.
        """
        return self.charge_ceiled(ceil_us(elapsed_us))

    def charge_ceiled(self, busy: int) -> tuple[int, int]:
        """:meth:`charge` for a service time already in whole us.

        The disk's service-time memo caches the ceiled integer next to
        the raw float, so repeat references skip the rounding too.
        """
        # Reservation order is a real synchronization point: the
        # resource serves charges in the order they reserved it.
        # (Guarded so the no-monitor common case pays two attribute
        # reads instead of a no-op method call.)
        mon = _monitor.active()
        if mon.enabled:
            mon.chain(self)
        frame = active_frame(self.clock)
        now = frame.cursor_us if frame is not None else self.clock.now_us
        start = max(now, self.busy_until_us)
        end = start + busy
        self.busy_until_us = end
        self.busy_total_us += busy
        self.last_wait_us = start - now
        if frame is not None:
            frame.cursor_us = end
            frame.waited_us += start - now
            frame.charged_us += busy
        else:
            self.clock.advance_to(end)
        return start, end

    def utilization_percent(self) -> int:
        """Busy time as an integer percentage of elapsed simulated time.

        Measured against the later of the global clock and the
        timeline's own horizon, so deferred-mode reservations count as
        elapsed time instead of inflating the ratio past 100.
        """
        horizon = max(self.clock.now_us, self.busy_until_us)
        if horizon <= 0:
            return 0
        return min(100, self.busy_total_us * 100 // horizon)

    def __repr__(self) -> str:
        return (
            f"BusyTimeline(busy_until_us={self.busy_until_us}, "
            f"busy_total_us={self.busy_total_us})"
        )
