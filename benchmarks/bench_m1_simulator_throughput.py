"""M1 — simulator fast-path throughput (PR 8 meta-benchmark).

Unlike E1..E18, which regenerate the *paper's* tables in simulated
time, M1 measures the *simulator itself*: how many disk references per
host-second the hot path sustains.  Million-reference campaigns (the
chaos sweep, the scheduling grids) are bounded by this number, so PR 8
tracks it the same way the repo tracks every other claim — as a
benchmark with an asserted floor.

Three loads:

* **sequential** — one disk, alternating extent writes and reads
  sweeping the platter.  Run twice: once on today's :class:`SimDisk`
  (chunked :class:`~repro.simdisk.store.SectorStore`, pre-bound metric
  handles, guarded spans) and once on an in-file *legacy lane* that
  reproduces the pre-PR-8 hot path statement for statement
  (per-sector dict store, f-string metric names on every reference,
  span kwargs built even while tracing is disabled, unconditional
  media scans, property-recomputed geometry sizes, and the old
  per-sector-validating timing walk).  Both lanes execute the identical operation sequence,
  so their simulated counters agree exactly; only the host cost
  differs.  The PR's acceptance floor — the new lane is **>= 5x**
  faster — is asserted here.
* **overlapped** — the 4-disk pipelined request grid (submit, drain,
  settle), the shape the scheduling experiments stress.
* **chaos-shaped** — small writes through an armed fault injector with
  scheduled crashes, repairs, and rewrites, the shape the crash sweep
  generates.

Wall-clock results are recorded as gauges whose final name segment
starts with ``wall_`` — ``python -m repro.tools.bench --strip-wall``
removes exactly those, which is how the committed ``BENCH_pr10.json``
and the CI determinism diff stay byte-identical across machines.
Everything else in this file is simulated time and fully deterministic.
"""

from __future__ import annotations

import time
from typing import Dict

from _helpers import print_table
from repro.common.clock import SimClock
from repro.common.errors import (
    BadAddressError,
    BadSectorError,
    DiskCrashedError,
    MediaError,
)
from repro.common.frames import BusyTimeline
from repro.common.metrics import Metrics
from repro.common.trace import NULL_TRACER
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import make_scheduler
from repro.disk_service.server import DiskServer
from repro.simdisk.disk import SimDisk
from repro.simdisk.faults import FaultInjector
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore
from repro.simdisk.timing import DiskTimingModel
from repro.simkernel.loop import EventLoop

#: References per lane in the sequential load.  Large enough that
#: per-call overhead dominates interpreter warm-up and that the sweep
#: wraps the platter several times — campaign steady state, where the
#: service-time memo actually earns its keep — while the slow (legacy)
#: lane stays under a few seconds on any host.
SEQUENTIAL_REFERENCES = 180_000

#: Extent size of the sequential load, in sectors (one 4 KB fragment
#: run on the small geometry).
SEQUENTIAL_EXTENT_SECTORS = 8

OVERLAPPED_DISKS = 4
OVERLAPPED_OPS = 2_000

CHAOS_WRITES = 20_000
CHAOS_CRASH_PERIOD = 997  # prime, so crashes drift across the region


class _LegacyGeometry:
    """The pre-PR-8 geometry surface: derived sizes as properties.

    Before PR 8 ``DiskGeometry`` recomputed ``sectors_per_cylinder``
    and ``total_sectors`` on every property read, and every mapping
    helper re-validated its sector.  The legacy lane pins that cost.
    """

    def __init__(self, base: DiskGeometry) -> None:
        self.cylinders = base.cylinders
        self.heads = base.heads
        self.sectors_per_track = base.sectors_per_track
        self.sector_size = base.sector_size

    @property
    def sectors_per_cylinder(self) -> int:
        return self.heads * self.sectors_per_track

    @property
    def total_sectors(self) -> int:
        return self.cylinders * self.sectors_per_cylinder

    @property
    def total_tracks(self) -> int:
        return self.cylinders * self.heads

    def check_sector(self, sector: int) -> None:
        if not 0 <= sector < self.total_sectors:
            raise BadAddressError(
                f"sector {sector} outside disk of {self.total_sectors} sectors"
            )

    def cylinder_of(self, sector: int) -> int:
        self.check_sector(sector)
        return sector // self.sectors_per_cylinder

    def track_of(self, sector: int) -> int:
        self.check_sector(sector)
        return sector // self.sectors_per_track

    def track_bounds(self, track: int) -> tuple:
        first = track * self.sectors_per_track
        return first, first + self.sectors_per_track

    def rotational_position(self, sector: int) -> int:
        self.check_sector(sector)
        return sector % self.sectors_per_track


def _legacy_service_time_us(
    timing: DiskTimingModel,
    geometry: _LegacyGeometry,
    current_cylinder: int,
    angular_now: float,
    start_sector: int,
    n_sectors: int,
):
    """The pre-PR-8 ``DiskTimingModel.service_time_us`` walk, verbatim.

    Same floating-point terms in the same order as today's fast walk,
    so both lanes model bit-equal service times — but every step goes
    through the old re-validating geometry helpers.
    """
    geometry.check_sector(start_sector)
    geometry.check_sector(start_sector + n_sectors - 1)
    total = timing.controller_overhead_us
    cylinder = geometry.cylinder_of(start_sector)
    total += timing.seek_time_us(current_cylinder, cylinder)
    target_slot = geometry.rotational_position(start_sector)
    total += timing.rotational_latency_us(geometry, angular_now, target_slot)
    slot = timing.slot_time_us(geometry)
    remaining = n_sectors
    sector = start_sector
    angular = float(target_slot)
    while remaining > 0:
        track = geometry.track_of(sector)
        _, track_end = geometry.track_bounds(track)
        in_track = min(remaining, track_end - sector)
        total += in_track * slot
        angular = (angular + in_track) % geometry.sectors_per_track
        sector += in_track
        remaining -= in_track
        if remaining > 0:
            next_cylinder = geometry.cylinder_of(sector)
            if next_cylinder != cylinder:
                total += timing.seek_time_us(cylinder, next_cylinder)
                cylinder = next_cylinder
            else:
                total += timing.head_switch_us
    return total, cylinder, angular


class _LegacyDisk:
    """The pre-PR-8 ``SimDisk`` hot path, kept as the baseline lane.

    A statement-for-statement reproduction of the old ``read_sectors``
    / ``write_sectors``: a per-sector ``Dict[int, bytes]`` store, an
    f-string metric name formatted on every counter touch, span kwargs
    built before the disabled tracer discards them, and an
    unconditional per-sector media scan.  Same timing model, same
    timeline, same fault injector — identical simulated behaviour,
    legacy host cost.
    """

    def __init__(
        self,
        disk_id: str,
        geometry: DiskGeometry,
        clock: SimClock,
        metrics: Metrics,
    ) -> None:
        self.disk_id = disk_id
        self.geometry = geometry
        self.clock = clock
        self.metrics = metrics
        self.tracer = NULL_TRACER
        self.timing = DiskTimingModel()
        self.faults = FaultInjector()
        self.timeline = BusyTimeline(clock)
        self._legacy_geometry = _LegacyGeometry(geometry)
        self._by_sector: Dict[int, bytes] = {}
        self._head_cylinder = 0
        self._head_angular = 0.0
        self._prefix = f"disk.{disk_id}"
        self._zero = bytes(geometry.sector_size)

    def read_sectors(self, start: int, n_sectors: int) -> bytes:
        with self.tracer.span(
            "simdisk", "read", disk=self.disk_id, sector=start, n_sectors=n_sectors
        ):
            self._check_alive()
            self._check_range(start, n_sectors)
            self._check_media(start, n_sectors)
            self._charge(start, n_sectors)
            self.metrics.add(f"{self._prefix}.reads")
            self.metrics.add(f"{self._prefix}.references")
            self.metrics.add(f"{self._prefix}.sectors_read", n_sectors)
            return b"".join(
                self._by_sector.get(sector, self._zero)
                for sector in range(start, start + n_sectors)
            )

    def write_sectors(self, start: int, data: bytes) -> None:
        with self.tracer.span("simdisk", "write", disk=self.disk_id, sector=start):
            self._check_alive()
            size = self.geometry.sector_size
            n_sectors = len(data) // size
            self._check_range(start, n_sectors)
            torn_at = self.faults.note_write(
                n_sectors, disk_id=self.disk_id, start=start
            )
            written = n_sectors if torn_at is None else torn_at
            for index in range(written):
                offset = index * size
                self._by_sector[start + index] = bytes(data[offset : offset + size])
            self.faults.heal_range(start, written)
            self._charge(start, n_sectors)
            self.metrics.add(f"{self._prefix}.writes")
            self.metrics.add(f"{self._prefix}.references")
            self.metrics.add(f"{self._prefix}.sectors_written", written)
            if torn_at is not None:
                raise DiskCrashedError(f"{self.disk_id}: crashed during write")

    def _check_alive(self) -> None:
        if self.faults.crashed:
            raise DiskCrashedError(f"{self.disk_id}: disk is crashed")

    def _check_range(self, start: int, n_sectors: int) -> None:
        if n_sectors <= 0:
            raise BadAddressError("request must cover at least one sector")
        self._legacy_geometry.check_sector(start)
        self._legacy_geometry.check_sector(start + n_sectors - 1)

    def _check_media(self, start: int, n_sectors: int) -> None:
        faults = self.faults
        for sector in range(start, start + n_sectors):
            if faults.is_bad(sector):
                raise BadSectorError(f"{self.disk_id}: sector {sector} unreadable")
        if faults.latent_media_errors:
            for sector in range(start, start + n_sectors):
                if faults.media_failing(sector):
                    self.metrics.add(f"{self._prefix}.media_errors")
                    raise MediaError(
                        f"{self.disk_id}: latent media error at sector {sector}"
                    )

    def _charge(self, start: int, n_sectors: int) -> None:
        elapsed, cylinder, angular = _legacy_service_time_us(
            self.timing,
            self._legacy_geometry,
            self._head_cylinder,
            self._head_angular,
            start,
            n_sectors,
        )
        self._head_cylinder = cylinder
        self._head_angular = angular
        self.timeline.charge(elapsed)
        self.metrics.add(f"{self._prefix}.busy_us", int(elapsed))
        self.metrics.observe(f"{self._prefix}.service_us", int(elapsed))
        self.metrics.gauge(
            f"{self._prefix}.utilization", self.timeline.utilization_percent()
        )


def _drive_sequential(disk, geometry: DiskGeometry) -> None:
    """The identical operation sequence both lanes execute."""
    extent = SEQUENTIAL_EXTENT_SECTORS
    slots = geometry.total_sectors // extent
    payload = bytes(range(256)) * (extent * geometry.sector_size // 256)
    for index in range(SEQUENTIAL_REFERENCES // 2):
        start = (index % slots) * extent
        disk.write_sectors(start, payload)
        disk.read_sectors(start, extent)


def run_sequential():
    geometry = DiskGeometry.small()
    results = {}
    for lane in ("legacy", "new"):
        clock, metrics = SimClock(), Metrics()
        if lane == "legacy":
            disk = _LegacyDisk("l0", geometry, clock, metrics)
        else:
            disk = SimDisk("n0", geometry, clock, metrics)
        started = time.perf_counter_ns()
        _drive_sequential(disk, geometry)
        wall_ns = time.perf_counter_ns() - started
        prefix = f"disk.{disk.disk_id}"
        results[lane] = {
            "references": metrics.get(f"{prefix}.references"),
            "sim_busy_us": metrics.get(f"{prefix}.busy_us"),
            "wall_us": max(1, wall_ns // 1000),
            "metrics": metrics,
        }
    # The two lanes must have simulated *exactly* the same campaign —
    # otherwise the wall-clock ratio compares different work.
    assert results["new"]["references"] == results["legacy"]["references"]
    assert results["new"]["sim_busy_us"] == results["legacy"]["sim_busy_us"]
    metrics = results["new"]["metrics"]
    metrics.gauge("bench.m1_sequential.wall_us_new", results["new"]["wall_us"])
    metrics.gauge("bench.m1_sequential.wall_us_legacy", results["legacy"]["wall_us"])
    speedup_pct = results["legacy"]["wall_us"] * 100 // results["new"]["wall_us"]
    metrics.gauge("bench.m1_sequential.wall_speedup_pct", speedup_pct)
    return results


def run_overlapped():
    clock, metrics = SimClock(), Metrics()
    loop = EventLoop(clock)
    servers = []
    for volume in range(OVERLAPPED_DISKS):
        disk = SimDisk(str(volume), DiskGeometry.small(), clock, metrics)
        stable = StableStore(
            SimDisk(f"{volume}.sa", DiskGeometry.small(), clock, metrics),
            SimDisk(f"{volume}.sb", DiskGeometry.small(), clock, metrics),
        )
        server = DiskServer(disk, stable, clock, metrics)
        DiskPipeline(server, loop, make_scheduler("scan+coalesce"))
        servers.append((server, server.allocate(server.n_fragments // 2)))
    payload = b"\x5a" * Extent(0, 1).byte_size
    started = time.perf_counter_ns()
    completions = []
    for index in range(OVERLAPPED_OPS):
        server, region = servers[index % OVERLAPPED_DISKS]
        slot = (index * 17) % region.length
        extent = Extent(region.start + slot, 1)
        if index % 3 == 0:
            completions.append(server.submit_put(extent, payload))
        else:
            completions.append(server.submit_get(extent))
    loop.run_until_idle()
    wall_ns = time.perf_counter_ns() - started
    assert all(completion.done for completion in completions)
    metrics.gauge("bench.m1_overlapped.wall_us", max(1, wall_ns // 1000))
    references = sum(
        metrics.get(f"disk.{volume}.references")
        for volume in range(OVERLAPPED_DISKS)
    )
    return {"references": references, "wall_us": max(1, wall_ns // 1000)}


def run_chaos_shaped():
    clock, metrics = SimClock(), Metrics()
    faults = FaultInjector(seed=7)
    geometry = DiskGeometry.small()
    disk = SimDisk("c0", geometry, clock, metrics, faults=faults)
    payload = b"\xa5" * geometry.sector_size
    crashes = 0
    started = time.perf_counter_ns()
    faults.crash_after_writes(CHAOS_CRASH_PERIOD)
    for index in range(CHAOS_WRITES):
        sector = (index * 13) % geometry.total_sectors
        try:
            disk.write_sectors(sector, payload)
        except DiskCrashedError:
            crashes += 1
            disk.repair()
            faults.crash_after_writes(CHAOS_CRASH_PERIOD)
            disk.write_sectors(sector, payload)  # the sweep's re-run
    wall_ns = time.perf_counter_ns() - started
    metrics.gauge("bench.m1_chaos.wall_us", max(1, wall_ns // 1000))
    return {
        "references": metrics.get("disk.c0.references"),
        "crashes": crashes,
        "wall_us": max(1, wall_ns // 1000),
    }


def _rate(references: int, wall_us: int) -> str:
    return f"{references * 1_000_000 // wall_us:,}/s"


def test_m1_sequential_throughput(benchmark):
    results = benchmark.pedantic(run_sequential, rounds=1, iterations=1)
    new, legacy = results["new"], results["legacy"]
    speedup = legacy["wall_us"] / new["wall_us"]
    print_table(
        f"M1  Sequential load: {SEQUENTIAL_REFERENCES:,} disk references",
        ["lane", "references", "host time (ms)", "refs/host-second"],
        [
            ("legacy (pre-PR8)", f"{legacy['references']:,}",
             f"{legacy['wall_us'] / 1000:.0f}",
             _rate(legacy["references"], legacy["wall_us"])),
            ("new", f"{new['references']:,}",
             f"{new['wall_us'] / 1000:.0f}",
             _rate(new["references"], new["wall_us"])),
            ("speedup", "", "", f"{speedup:.1f}x"),
        ],
    )
    # PR 8's acceptance floor.  Measured headroom is well above 5x, so
    # a noisy CI host does not flap this assertion.
    assert speedup >= 5.0, f"fast path is only {speedup:.1f}x the legacy lane"


def test_m1_overlapped_throughput(benchmark):
    result = benchmark.pedantic(run_overlapped, rounds=1, iterations=1)
    print_table(
        f"M1  Overlapped load: {OVERLAPPED_OPS:,} ops over {OVERLAPPED_DISKS} disks",
        ["references", "host time (ms)", "refs/host-second"],
        [(f"{result['references']:,}", f"{result['wall_us'] / 1000:.0f}",
          _rate(result["references"], result["wall_us"]))],
    )
    # Coalescing merges adjacent singles, so references < ops; but every
    # op was served: the grid settled and referenced every spindle.
    assert result["references"] > 0


def test_m1_chaos_shaped_throughput(benchmark):
    result = benchmark.pedantic(run_chaos_shaped, rounds=1, iterations=1)
    print_table(
        f"M1  Chaos-shaped load: {CHAOS_WRITES:,} armed writes",
        ["references", "crashes survived", "host time (ms)", "refs/host-second"],
        [(f"{result['references']:,}", result["crashes"],
          f"{result['wall_us'] / 1000:.0f}",
          _rate(result["references"], result["wall_us"]))],
    )
    assert result["crashes"] == CHAOS_WRITES // CHAOS_CRASH_PERIOD
