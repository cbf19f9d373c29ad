"""Span tracing of the Figure-1 layers, installed from outside the program.

The traced run wraps the public methods of each layer's classes (see
``LAYERS``) before the cluster is built, so every call into a layer
records a span: layer, method, start, end, parent span and op id.  A
layer's self time is its span time minus the time of its child spans;
the recorder sums self time and boundary crossings per (phase, layer)
as spans close, and keeps the first ``span_cap`` spans in memory to be
written out when the run ends.  Within the timed windows it also sums
the time during which no span is open (``idle_ns``): the unattributed
time, measured directly rather than as the remainder of the window
after the layers' self times, so the two can be checked against each
other.

Wrappers read only the host clock (and, for flushes, the program's own
``Metrics`` counters), so the simulation is not perturbed: the
determinism guard in ``run.py`` compares the traced run's simulated
results with the untraced run's and flags any difference.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Every public function defined on the class itself.
PUBLIC = None

#: layer -> [(module, class, methods or PUBLIC)].  The layer names are
#: the per-layer metric prefixes (``metrics.json`` maps each to the
#: end-to-end metrics and workloads it should, and should not, move).
LAYERS: Dict[str, List[tuple]] = {
    "agents": [("repro.agents.file_agent", "FileAgent", PUBLIC)],
    "naming": [
        (
            "repro.naming.shard",
            "ShardedNamespace",
            ("bind", "unbind", "resolve", "resolve_file", "lookup"),
        )
    ],
    "rpc": [
        ("repro.rpc.endpoint", "RpcClient", ("call",)),
        ("repro.rpc.bus", "MessageBus", ("transmit",)),
    ],
    "file_service": [("repro.file_service.server", "FileServer", PUBLIC)],
    "disk_alloc": [
        (
            "repro.disk_service.server",
            "DiskServer",
            ("allocate", "allocate_block", "try_allocate_at", "free"),
        )
    ],
    "disk_flush": [
        (
            "repro.disk_service.server",
            "DiskServer",
            ("flush", "checkpoint_free_space", "checkpoint_protection"),
        )
    ],
    "disk_io": [
        (
            "repro.disk_service.server",
            "DiskServer",
            ("get", "put", "submit_get", "submit_put"),
        ),
        (
            "repro.disk_service.pipeline",
            "DiskPipeline",
            ("submit_get", "submit_put", "drain"),
        ),
    ],
    "simdisk": [
        ("repro.simdisk.disk", "SimDisk", ("read_sectors", "write_sectors")),
        ("repro.simdisk.stable", "StableStore", ("put", "get", "delete")),
    ],
    "transactions": [
        ("repro.transactions.agent", "TransactionAgentHost", PUBLIC),
        ("repro.transactions.coordinator", "TransactionCoordinator", ("commit", "abort")),
    ],
    "replication": [("repro.replication.service", "ReplicationService", ("read", "write"))],
    "simkernel": [
        ("repro.simkernel.loop", "EventLoop", ("run_until_idle",)),
        ("repro.simkernel.runner", "InterleavedRunner", ("run",)),
        ("repro.cluster.system", "RhodosCluster", ("run_concurrent",)),
    ],
    "recovery": [
        ("repro.cluster.system", "RhodosCluster", ("fail_volume", "restart_volume")),
        ("repro.transactions.coordinator", "TransactionCoordinator", ("recover_volume",)),
    ],
    # fsck_volume is a module function the workloads call directly;
    # they route the call through SpanRecorder.wrap_function("verify").
    "verify": [],
    # The benchmark's own op bodies (input generation, model checks).
    "bench": [],
}


def _stable_sectors_written(server) -> int:
    """Sectors written so far to both stable mirrors of one disk server."""
    stable = server.stable
    metrics = server.metrics
    return sum(
        metrics.get(f"disk.{mirror.disk_id}.sectors_written")
        for mirror in (stable.mirror_a, stable.mirror_b)
    )


#: (layer, method) -> counter read before and after each boundary call;
#: the difference is summed into the layer's ``counted`` total.
COUNTED = {
    ("disk_flush", "flush"): _stable_sectors_written,
    ("disk_flush", "checkpoint_free_space"): _stable_sectors_written,
    ("disk_flush", "checkpoint_protection"): _stable_sectors_written,
}


def _call(body: Callable):
    return body()


class LayerTotals:
    """Self time, calls and boundary crossings of one layer in one phase."""

    __slots__ = ("self_ns", "calls", "entries", "counted", "results")

    def __init__(self) -> None:
        self.self_ns = 0
        self.calls = 0
        #: Calls entered from another layer (or from no span at all).
        self.entries = 0
        self.counted = 0
        self.results: List = []


class SpanRecorder:
    """Collects spans and per-(phase, layer) totals for one traced run."""

    def __init__(self, span_cap: int = 20_000) -> None:
        self.span_cap = span_cap
        self.spans: List[Optional[tuple]] = []
        self.op_id = -1
        self.totals: Dict[str, Dict[str, LayerTotals]] = {}
        self._stack: List[list] = []
        #: Host ns in timed windows with no span open, kernels excluded.
        self.idle_ns = 0
        #: Start of the current span-free stretch of an open window.
        self._idle_since: Optional[int] = None
        self._current = self.phase_totals("setup")
        self._originals: List[tuple] = []
        self._bench = self.wrap_function("bench", _call, "op")

    # ------------------------------------------------------- phases

    def phase_totals(self, phase: str) -> Dict[str, LayerTotals]:
        if phase not in self.totals:
            self.totals[phase] = {layer: LayerTotals() for layer in LAYERS}
        return self.totals[phase]

    def set_phase(self, phase: str) -> None:
        """Attribute spans closing from now on to ``phase``."""
        self._current = self.phase_totals(phase)

    # ------------------------------------------------------ wrapping

    def wrap_function(self, layer: str, fn: Callable, name: Optional[str] = None) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        method = name or fn.__name__
        counter = COUNTED.get((layer, method))
        keep_result = (layer, method) == ("recovery", "recover_volume")
        perf = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != layer
            index = -1
            if len(spans) < cap:
                index = len(spans)
                spans.append(None)
            before = counter(args[0]) if counter is not None and boundary else 0
            frame = [layer, 0, 0, index]
            stack.append(frame)
            frame[1] = start = perf()
            if parent is None and recorder._idle_since is not None:
                recorder.idle_ns += start - recorder._idle_since
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                totals = recorder._current[layer]
                totals.self_ns += elapsed - frame[2]
                totals.calls += 1
                if boundary:
                    totals.entries += 1
                if parent is not None:
                    parent[2] += elapsed
                elif recorder._idle_since is not None:
                    recorder._idle_since = end
                if index >= 0:
                    spans[index] = (
                        layer,
                        method,
                        start,
                        end,
                        parent[3] if parent is not None else -1,
                        recorder.op_id,
                    )
            if counter is not None and boundary:
                totals.counted += counter(args[0]) - before
            if keep_result:
                totals.results.append(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every method named in ``LAYERS`` (before the cluster is built)."""
        for layer, targets in LAYERS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name), class_name)
                if methods is PUBLIC:
                    methods = tuple(
                        name
                        for name, value in vars(cls).items()
                        if not name.startswith("_") and inspect.isfunction(value)
                    )
                for method in methods:
                    original = vars(cls)[method]
                    self._originals.append((cls, method, original))
                    setattr(cls, method, self.wrap_function(layer, original, method))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def open_window(self, now: int) -> None:
        """A timed window opens at ``now`` (no span may be open)."""
        assert not self._stack, "a timed window opened inside a span"
        self._idle_since = now

    def close_window(self, now: int) -> None:
        """The timed window closes at ``now``."""
        assert not self._stack, "a timed window closed inside a span"
        self.idle_ns += now - self._idle_since
        self._idle_since = None

    def exclude(self, ns: int) -> None:
        """Keep ``ns`` of benchmark work out of the innermost open span's
        self time, or out of the idle time if no span is open."""
        if self._stack:
            self._stack[-1][2] += ns
        elif self._idle_since is not None:
            self.idle_ns -= ns

    # ----------------------------------------------------- ops

    def run_op(self, op_id: int, body: Callable):
        """Run one op body inside the benchmark's own span; returns its result."""
        self.op_id = op_id
        return self._bench(body)

    # ------------------------------------------------------ output

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        kept = [span for span in self.spans if span is not None]
        origin = min((span[2] for span in kept), default=0)
        events = [
            {
                "name": f"{span[0]}.{span[1]}",
                "cat": span[0],
                "ph": "X",
                "ts": (span[2] - origin) / 1000.0,
                "dur": (span[3] - span[2]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": span[4], "op": span[5]},
            }
            for index, span in enumerate(self.spans)
            if span is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class NullRecorder:
    """The untraced run's stand-in: every hook is a no-op."""

    def set_phase(self, phase: str) -> None:
        pass

    def run_op(self, op_id: int, body: Callable):
        return body()

    def open_window(self, now: int) -> None:
        pass

    def close_window(self, now: int) -> None:
        pass

    def exclude(self, ns: int) -> None:
        pass

    def wrap_function(self, layer: str, fn: Callable, name: Optional[str] = None) -> Callable:
        return fn
