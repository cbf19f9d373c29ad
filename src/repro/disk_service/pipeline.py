"""The overlapped request pipeline of one disk server.

``DiskPipeline`` turns the disk server's blocking ``get``/``put`` into
a queued, schedulable service: ``submit_get``/``submit_put`` enqueue a
:class:`~repro.disk_service.queue.DiskRequest` and return a
:class:`~repro.simkernel.future.Completion`; whenever the drive is
idle the pluggable :class:`~repro.disk_service.scheduler.DiskScheduler`
picks the next request (or coalesced batch), the pipeline executes it
inside a deferred-time :func:`~repro.common.frames.service_frame`
(charging the disk's timeline, not the global clock), and the
completion is delivered by the shared event loop at the modelled
finish time.  Because every disk has its own timeline, requests to
different disks overlap: N drives draining N queues cost the max of
their busy periods, not the sum.

Determinism: requests are numbered at submission; schedulers break
ties by that number; completions of one batch settle in ascending
sequence order; the event loop orders equal-time events by scheduling
order.  Nothing consults wall clock or dict order.

Crash semantics: physical writes still happen at queue-drain time
through the same ``note_write``-hooked primitives, so every crash
point the chaos sweep enumerates keeps firing — a crash mid-batch
tears the one merged reference and fails every rider's completion.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis import monitor as _monitor
from repro.disk_service.addresses import Extent
from repro.disk_service.queue import DiskRequest, RequestQueue
from repro.disk_service.scheduler import DiskScheduler, FcfsScheduler
from repro.disk_service.server import DiskServer, Source, Stability, SyncMode
from repro.common.frames import service_frame
from repro.simkernel.future import Completion
from repro.simkernel.loop import EventLoop

#: One request's service outcome: ("ok", value) or ("error", exception).
Outcome = Tuple[str, object]


class _PriorityView:
    """One priority class of a queue, presented as a queue.

    Exposes exactly the surface schedulers use — ``pending()`` and
    ``remove()`` — filtered to one class; removals fall through to the
    real queue.  ``__bool__`` answers "does this class have work".
    """

    def __init__(self, queue: RequestQueue, *, low_priority: bool) -> None:
        self._queue = queue
        self._low_priority = low_priority

    def pending(self) -> Tuple[DiskRequest, ...]:
        return tuple(
            request
            for request in self._queue.pending()
            if request.low_priority == self._low_priority
        )

    def remove(self, request: DiskRequest) -> None:
        self._queue.remove(request)

    def __len__(self) -> int:
        return len(self.pending())

    def __bool__(self) -> bool:
        return any(
            request.low_priority == self._low_priority
            for request in self._queue.pending()
        )


class DiskPipeline:
    """Queue + scheduler + deferred completion for one disk server.

    Args:
        server: the disk server whose operations are queued.
        loop: shared event loop delivering completions in time order.
        scheduler: service-order policy (FCFS when omitted).

    Attaching a pipeline registers it on the server, enabling
    ``server.submit_get`` / ``server.submit_put``.
    """

    def __init__(
        self,
        server: DiskServer,
        loop: EventLoop,
        scheduler: Optional[DiskScheduler] = None,
    ) -> None:
        self.server = server
        self.loop = loop
        self.scheduler = scheduler or FcfsScheduler()
        self.queue = RequestQueue()
        self.clock = server.clock
        self.metrics = server.metrics
        self._seq = 0
        self._in_service = False
        self._disk_prefix = f"disk.{server.disk.disk_id}"
        self._server_prefix = f"disk_server.{server.disk.disk_id}"
        # Pre-bound instrument handles: submission and drain run once
        # per request, so none of them may format metric names.
        self._c_submissions = self.metrics.counter(
            f"{self._server_prefix}.submissions"
        )
        self._c_coalesced_requests = self.metrics.counter(
            f"{self._server_prefix}.coalesced_requests"
        )
        self._g_queue_depth = self.metrics.gauge_handle(
            f"{self._disk_prefix}.queue_depth"
        )
        self._h_queue_wait_us = self.metrics.histogram_handle(
            "disk_service.queue_wait_us"
        )
        # Analysis-monitor bookkeeping (idle outside analysis runs):
        # the previous service batch's task (scheduler dequeue-order
        # chain) and the finish tasks drain() must rejoin against.
        self._last_batch_task = 0
        self._finish_tasks: List[int] = []
        server.pipeline = self

    # ----------------------------------------------------- submission

    def submit_get(
        self,
        extent: Extent,
        *,
        source: Source = Source.MAIN,
        use_cache: bool = True,
        low_priority: bool = False,
    ) -> Completion:
        """Enqueue a read; the completion resolves to its bytes."""
        return self._submit(
            DiskRequest(
                seq=self._next_seq(),
                kind="get",
                extent=extent,
                enqueued_at_us=self.clock.now_us,
                source=source,
                use_cache=use_cache,
                low_priority=low_priority,
            )
        )

    def submit_put(
        self,
        extent: Extent,
        data: bytes,
        *,
        stability: Stability = Stability.ORIGINAL_ONLY,
        sync: SyncMode = SyncMode.AFTER_STABLE,
    ) -> Completion:
        """Enqueue a write; the completion resolves to None."""
        return self._submit(
            DiskRequest(
                seq=self._next_seq(),
                kind="put",
                extent=extent,
                enqueued_at_us=self.clock.now_us,
                data=data,
                stability=stability,
                sync=sync,
            )
        )

    @property
    def depth(self) -> int:
        """Requests currently queued (the one in service excluded)."""
        return len(self.queue)

    @property
    def busy(self) -> bool:
        """Whether any request is queued or in service.

        The scrubber's idle gate: a ``step()`` only proceeds when this
        is False, so background verification never delays foreground
        traffic that is already waiting.
        """
        return self._in_service or bool(self.queue)

    def drain(self) -> None:
        """Run the loop until this pipeline is fully idle (test helper)."""
        self.loop.run_until(lambda: not self.queue and not self._in_service)
        mon = _monitor.active()
        if mon.enabled and self._finish_tasks:
            # The drainer sees every batch this pipeline finished.
            mon.rejoin("pipeline.drain", after=tuple(self._finish_tasks))
            self._finish_tasks = []

    # ------------------------------------------------------- internal

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _submit(self, request: DiskRequest) -> Completion:
        self.queue.push(request)
        self._c_submissions.add()
        self._g_queue_depth.set(len(self.queue))
        self._pump()
        return request.completion

    def _pump(self) -> None:
        if self._in_service or not self.queue:
            return
        disk = self.server.disk
        # Two-class priority: whenever any foreground request is
        # pending the scheduler only sees the foreground view, so
        # low-priority (scrub) requests are served strictly from the
        # leftover idle slots and the two classes never share a batch.
        foreground = _PriorityView(self.queue, low_priority=False)
        view = foreground if foreground else _PriorityView(
            self.queue, low_priority=True
        )
        mon = _monitor.active()
        if mon.enabled:
            # Submit -> drain: the batch is ordered after every pending
            # submitter (the scheduler observes their queue entries) and
            # after the previous batch (dequeue order is a promise), but
            # NOT after the stack frame that happened to pump — bind is
            # False so a settle-time re-pump stays concurrent with
            # whatever its callbacks did.
            afters = {request.submit_task for request in self.queue.pending()}
            if self._last_batch_task:
                afters.add(self._last_batch_task)
            self._last_batch_task = mon.open_task(
                f"{self._server_prefix}.batch",
                after=sorted(afters),
                bind=False,
            )
        try:
            batch = self.scheduler.take(
                view,
                head_cylinder=disk.head_cylinder,
                now_us=self.clock.now_us,
                cylinder_of=disk.geometry.cylinder_of,
            )
            self._g_queue_depth.set(len(self.queue))
            now_us = self.clock.now_us
            for request in batch:
                self._h_queue_wait_us.observe(request.wait_us(now_us))
            if len(batch) > 1:
                self._c_coalesced_requests.add(len(batch) - 1)
            self._in_service = True
            with service_frame(self.clock) as frame:
                outcomes = self._execute(batch)
                end_us = max(frame.cursor_us, now_us)
            self.loop.call_at(end_us, lambda: self._finish(batch, outcomes))
        finally:
            if mon.enabled:
                mon.close_task()

    def _execute(self, batch: List[DiskRequest]) -> List[Outcome]:
        """Serve a batch as one disk reference; outcomes align to batch."""
        queued_since = min(request.enqueued_at_us for request in batch)
        try:
            if len(batch) == 1:
                request = batch[0]
                if request.kind == "get":
                    value: object = self.server._do_get(
                        request.extent,
                        source=request.source,
                        use_cache=request.use_cache,
                        queued_since=queued_since,
                    )
                else:
                    value = self.server._do_put(
                        request.extent,
                        request.data or b"",
                        stability=request.stability,
                        sync=request.sync,
                        queued_since=queued_since,
                    )
                return [("ok", value)]
            ordered = sorted(batch, key=lambda request: request.extent.start)
            merged = ordered[0].extent
            for request in ordered[1:]:
                merged = merged.merge(request.extent)
            if batch[0].kind == "get":
                blob = self.server._do_get(
                    merged,
                    source=Source.MAIN,
                    use_cache=batch[0].use_cache,
                    queued_since=queued_since,
                )
                by_seq = {
                    request.seq: merged.slice_bytes(blob, request.extent)
                    for request in batch
                }
                return [("ok", by_seq[request.seq]) for request in batch]
            payload = b"".join(request.data or b"" for request in ordered)
            self.server._do_put(
                merged,
                payload,
                stability=Stability.ORIGINAL_ONLY,
                sync=SyncMode.AFTER_STABLE,
                queued_since=queued_since,
            )
            return [("ok", None) for _ in batch]
        except Exception as error:  # noqa: BLE001 - delivered via completions
            # One reference, one fate: every rider of the batch fails.
            return [("error", error) for _ in batch]

    def _finish(self, batch: List[DiskRequest], outcomes: List[Outcome]) -> None:
        mon = _monitor.active()
        if mon.enabled:
            self._finish_tasks.append(mon.current())
        # Completions settle in ascending sequence order while the
        # pipeline still reads busy, so a callback that immediately
        # resubmits only enqueues; one pump then picks the next batch.
        for request, (status, value) in sorted(
            zip(batch, outcomes), key=lambda pair: pair[0].seq
        ):
            if status == "ok":
                request.completion.resolve(value)
            else:
                assert isinstance(value, BaseException)
                request.completion.fail(value)
        self._in_service = False
        self._pump()

    def __repr__(self) -> str:
        return (
            f"DiskPipeline(disk={self.server.disk.disk_id!r}, "
            f"policy={self.scheduler.name}, depth={len(self.queue)})"
        )
