"""The three benchmark workloads and the gates that check their outputs.

Each workload is a closed loop generated in one process on one thread;
simulated clients share that thread.  Every input comes from the
workload seed, and run length is an operation count derived from the
``--seconds`` argument by a fixed rate, so two commits run with the
same arguments do identical simulated work.

* ``file_churn`` puts the allocator, FIT create/delete, naming
  bind/unbind and the per-close flush/checkpoint on the critical path.
* ``mixed_rw`` loads all three cache levels, RPC retransmission, the
  event loop, shard timelines and replication; its timed phase never
  allocates, so the allocator shows only in set-up.
* ``txn_crash`` is the only workload on the transactions layer, and it
  crashes and recovers its volume after every round.

Every workload ends (``txn_crash``: every round ends) with fail/restart
cycles, untimed as ops, which give the recovery metrics.  ``setup``
calls its ``tick`` argument between steps, so the host clock can
recalibrate during a long set-up.

Gates (any failure makes the run incorrect):

* byte-exact read-back against the workload's model of acknowledged
  writes, during the run and again after a crash/restart of every
  volume (``file_churn``, ``mixed_rw``);
* ``fsck_volume`` clean after every crash, every balance equal to the
  model and the total conserved (``txn_crash``);
* ops that raise are counted as failed.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import random
import statistics
import struct
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.runner import InterleavedRunner
from repro.verify.fsck import fsck_volume
from repro.workloads.transactions import ACCOUNT_BYTES, ACCOUNT_RECORD, make_accounts_file

from hostclock import HostClock

BLOCK = 8192
#: Histograms whose timed-window samples the per-layer report reads.
WINDOW_HISTOGRAMS = ("disk_service.queue_wait_us", "transactions.commit_us")


def nearest_rank(values, percentile: float):
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1]


class Meter:
    """What one run measures, accumulated by the workload as it runs.

    Counters and histogram samples are read from the cluster's own
    ``Metrics`` registry as deltas over *windows*: the timed phase,
    plus any flush that makes the timed phase's writes durable.  Host
    times are in reference nanoseconds (see ``hostclock``).
    """

    def __init__(self, cluster: RhodosCluster, recorder, clock: HostClock) -> None:
        self.cluster = cluster
        self.recorder = recorder
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.timed_ns = 0.0
        self.raw_timed_ns = 0
        self.op_wall_ns: List[float] = []
        self.sim_op_us: List[int] = []
        self.sim_elapsed_us = 0
        self.user_bytes = 0
        self.counters: Dict[str, int] = {}
        #: Every counter at the end of the run, set-up included.
        self.run_counters: Dict[str, int] = {}
        self.samples: Dict[str, List[int]] = {name: [] for name in WINDOW_HISTOGRAMS}
        self.recovery_wall_ns: List[float] = []
        self.sim_recovery_us: List[int] = []
        self.fsck_wall_ns: List[float] = []
        self.fsck_disk_gets: List[int] = []
        self.orphaned_fragments = 0
        self.lock_waits = 0
        self.gate_failures: List[str] = []
        self.errors: List[str] = []

    def gate(self, ok: bool, message: str) -> None:
        """Record a gate failure; the first 20 messages are kept."""
        if not ok and len(self.gate_failures) < 20:
            self.gate_failures.append(message)

    def tick(self, *, force: bool = False) -> None:
        """Let the host clock calibrate (now, if ``force``); keep the
        kernel out of every span."""
        kernel_ns = self.clock.calibrate() if force else self.clock.tick()
        if kernel_ns:
            self.recorder.exclude(kernel_ns)

    def host_ns(self, start_ns: int) -> float:
        """Reference ns since ``start_ns`` (a ``perf_counter_ns`` reading)."""
        return self.clock.scaled(time.perf_counter_ns() - start_ns)

    @contextmanager
    def window(self, *, timed: bool):
        """Count the cluster's counters over the block; time it if ``timed``."""
        metrics = self.cluster.metrics
        before = metrics.snapshot()
        lengths = {name: len(metrics.histogram_samples(name)) for name in self.samples}
        if timed:
            gc.collect()
            self.recorder.set_phase("timed")
            now = time.perf_counter_ns()
            self.clock.begin_window(now)
            self.recorder.open_window(now)
        try:
            yield
        finally:
            if timed:
                now = time.perf_counter_ns()
                self.recorder.close_window(now)
                scaled, raw = self.clock.end_window(now)
                self.timed_ns += scaled
                self.raw_timed_ns += raw
                self.recorder.set_phase("other")
            for name, delta in metrics.diff(before).items():
                self.counters[name] = self.counters.get(name, 0) + delta
            for name, samples in self.samples.items():
                samples.extend(metrics.histogram_samples(name)[lengths[name]:])

    def crash_cycle(self, volume_id: int) -> None:
        """Fail and restart one volume, timing both clocks."""
        cluster = self.cluster
        gc.collect()
        self.tick(force=True)
        self.recorder.set_phase("recovery")
        sim_start = cluster.clock.now_us
        start = time.perf_counter_ns()
        cluster.fail_volume(volume_id)
        cluster.restart_volume(volume_id)
        self.recovery_wall_ns.append(self.host_ns(start))
        self.sim_recovery_us.append(cluster.clock.now_us - sim_start)
        self.recorder.set_phase("other")

    def fsck(self, volume_id: int) -> None:
        """Run ``fsck_volume`` on one volume; it must report no errors."""
        cluster = self.cluster
        check = self.recorder.wrap_function("verify", fsck_volume)
        gc.collect()
        self.tick(force=True)
        self.recorder.set_phase("recovery")
        gets_before = cluster.metrics.total(f"disk_server.{volume_id}.gets")
        start = time.perf_counter_ns()
        report = check(cluster.file_servers[volume_id])
        self.fsck_wall_ns.append(self.host_ns(start))
        self.recorder.set_phase("other")
        self.fsck_disk_gets.append(
            cluster.metrics.total(f"disk_server.{volume_id}.gets") - gets_before
        )
        self.orphaned_fragments = report.orphaned_fragments
        self.gate(report.clean, f"fsck volume {volume_id}: {report.errors[:3]}")

    def device_bytes(self) -> int:
        """Bytes written to data disks and both stable mirrors in the windows."""
        return 512 * sum(
            value
            for name, value in self.counters.items()
            if name.startswith("disk.") and name.endswith(".sectors_written")
        )

    def summary(self, setup_ns: List[int]) -> dict:
        """The end-to-end metrics, plus what the per-layer report needs."""
        completed = self.attempted - self.failed
        timed_s = self.timed_ns / 1e9
        walls_us = [ns / 1000.0 for ns in self.op_wall_ns]
        tenth = max(1, len(walls_us) // 10)
        e2e = {
            "ops_per_s": completed / timed_s if timed_s else 0.0,
            "op_wall_p50_us": nearest_rank(walls_us, 50),
            "op_wall_p99_us": nearest_rank(walls_us, 99),
            "setup_s": statistics.median(setup_ns) / 1e9,
            "sim_ops_per_s": completed * 1e6 / self.sim_elapsed_us
            if self.sim_elapsed_us
            else 0.0,
            "sim_op_p50_us": nearest_rank(self.sim_op_us, 50),
            "sim_op_p99_us": nearest_rank(self.sim_op_us, 99),
            "disk_refs_per_op": self.data_disk_references() / completed
            if completed
            else 0.0,
            "device_bytes_per_user_byte": self.device_bytes() / self.user_bytes
            if self.user_bytes
            else 0.0,
            "recovery_wall_ms": statistics.median(self.recovery_wall_ns) / 1e6,
            "sim_recovery_ms": statistics.median(self.sim_recovery_us) / 1000.0,
        }
        extra = {
            "failed_op_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "fsck_wall_ms": statistics.median(self.fsck_wall_ns) / 1e6
            if self.fsck_wall_ns
            else None,
            "op_wall_growth": statistics.median(walls_us[-tenth:])
            / statistics.median(walls_us[:tenth])
            if walls_us
            else 0.0,
            "op_samples": len(walls_us),
            "raw_ops_per_s": completed / (self.raw_timed_ns / 1e9) if self.raw_timed_ns else 0.0,
            "calibrations": self.clock.kernels,
        }
        return {"e2e": e2e, "extra": extra}

    def data_disk_references(self) -> int:
        """Data-disk references in the windows (stable mirrors excluded)."""
        return sum(
            value
            for name, value in self.counters.items()
            if name.startswith("disk.")
            and name.endswith(".references")
            and ".stable_" not in name
        )

    def sim_digest(self) -> str:
        """A digest of every simulated quantity the run produced."""
        digest = hashlib.sha256()
        digest.update(repr(sorted(self.counters.items())).encode())
        digest.update(repr(self.sim_op_us).encode())
        digest.update(repr(self.sim_recovery_us).encode())
        digest.update(repr(self.samples).encode())
        digest.update(repr(self.cluster.clock.now_us).encode())
        return digest.hexdigest()[:24]


def _no_tick() -> None:
    pass


def _timed_op(meter: Meter, op_id: int, body):
    """Run one op body, timed on the host clock; returns what it returns.

    An op that raises is counted as failed (and returns None): the run
    goes on, and the gates judge whatever state it left behind.
    """
    start = time.perf_counter_ns()
    result = None
    try:
        result = meter.recorder.run_op(op_id, body)
    except Exception as exc:
        meter.failed += 1
        if len(meter.errors) < 5:
            meter.errors.append(f"op {op_id}: {exc!r}")
    meter.op_wall_ns.append(meter.host_ns(start))
    meter.tick()
    return result


# ======================================================== file_churn


class FileChurn:
    """create → 9 KB pwrite → close; every fourth op also reads back and
    deletes a random file among the 64 most recent live ones."""

    name = "file_churn"
    setup_repeats = 9
    #: Ops per ``--seconds`` of run length; 1,400 ops at the default 10
    #: take the live population past 1,000 files.
    ops_per_second = 140
    file_bytes = 9 * 1024
    recent = 64

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.n_ops = max(8, seconds * self.ops_per_second)
        rng = random.Random(f"file_churn:pool:{seed}")
        self._pool = rng.randbytes(65536)
        self.live: List[int] = []

    def payload(self, index: int) -> bytes:
        """The bytes file ``index`` is written with (the model)."""
        offset = (index * 4099) % (len(self._pool) - self.file_bytes)
        header = struct.pack("<QQ", self.seed, index)
        return header + self._pool[offset : offset + self.file_bytes - len(header)]

    def name_of(self, index: int) -> AttributedName:
        return AttributedName.file(f"/churn/f{index}")

    def setup(self, tick=_no_tick) -> None:
        self.cluster = RhodosCluster(ClusterConfig(seed=self.seed))
        self.agent = self.cluster.machine.file_agent
        tick()

    def run(self, meter: Meter) -> None:
        agent = self.agent
        clock = self.cluster.clock
        rng = random.Random(f"file_churn:ops:{self.seed}")
        live = self.live

        def churn(index: int) -> None:
            descriptor = agent.create(self.name_of(index))
            agent.pwrite(descriptor, self.payload(index), 0)
            agent.close(descriptor)
            live.append(index)
            if index % 4 == 3 and len(live) > 1:
                recent = live[-self.recent - 1 : -1]
                victim = recent[rng.randrange(len(recent))]
                descriptor = agent.open(self.name_of(victim))
                data = agent.pread(descriptor, self.file_bytes, 0)
                agent.close(descriptor)
                meter.gate(
                    data == self.payload(victim),
                    f"file_churn: read-back of f{victim} differs from the model",
                )
                agent.delete(self.name_of(victim))
                live.remove(victim)

        with meter.window(timed=True):
            sim_start = clock.now_us
            for index in range(self.n_ops):
                before = clock.now_us
                _timed_op(meter, index, lambda: churn(index))
                meter.sim_op_us.append(clock.now_us - before)
            meter.sim_elapsed_us += clock.now_us - sim_start
        meter.attempted += self.n_ops
        meter.user_bytes += (self.n_ops - meter.failed) * self.file_bytes

    def finish(self, meter: Meter) -> None:
        for _ in range(11):
            meter.crash_cycle(0)
        agent = self.agent
        for index in self.live:
            descriptor = agent.open(self.name_of(index))
            data = agent.pread(descriptor, self.file_bytes, 0)
            agent.close(descriptor)
            meter.gate(
                data == self.payload(index),
                f"file_churn: f{index} differs from the model after restart",
            )


# ========================================================== mixed_rw


class MixedRW:
    """16 closed-loop clients over 128 preloaded 512 KB files on 4 volumes."""

    name = "mixed_rw"
    setup_repeats = 3
    ops_per_second = 9000
    n_clients = 16
    n_files = 128
    file_blocks = 64
    n_replicated = 8
    replicated_blocks = 8
    zipf_exponent = 0.8

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.ops_per_client = max(2, seconds * self.ops_per_second // self.n_clients)
        rng = random.Random(f"mixed_rw:pool:{seed}")
        self._pool = rng.randbytes(65536 + BLOCK)
        # Zipf popularity over a seeded permutation of the files.  Ranks
        # deal round-robin over the volumes (file i lives on volume i % 4)
        # so every seed loads the volumes alike: with hot files placed at
        # random, sim_op_p99_us spread 7-9% across seeds; dealt, under 3%.
        per_volume = self.n_files // 4
        slots = [rng.sample(range(per_volume), per_volume) for _ in range(4)]
        self._by_rank = [
            4 * slots[rank % 4][rank // 4] + rank % 4 for rank in range(self.n_files)
        ]
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(self.n_files)]
        total = sum(weights)
        running = 0.0
        self._cdf = []
        for weight in weights:
            running += weight / total
            self._cdf.append(running)
        self.versions: Dict[tuple, int] = {}

    def block(self, file_index: int, block_index: int, version: int) -> bytes:
        """Content of one 8 KB block of the model."""
        offset = ((file_index * 64 + block_index) * 7919 + version * 104729) % 65536
        header = struct.pack("<IIII", self.seed & 0xFFFFFFFF, file_index, block_index, version)
        return header + self._pool[offset : offset + BLOCK - len(header)]

    def file_bytes(self, file_index: int) -> bytes:
        return b"".join(
            self.block(file_index, b, self.versions.get((file_index, b), 0))
            for b in range(self.file_blocks)
        )

    def replicated_bytes(self, index: int) -> bytes:
        return b"".join(
            self.block(self.n_files + index, b, 0) for b in range(self.replicated_blocks)
        )

    def setup(self, tick=_no_tick) -> None:
        self.cluster = cluster = RhodosCluster(
            ClusterConfig(
                n_disks=4,
                n_shards=4,
                shard_service_us=200,
                disk_scheduler="scan",
                fault_profile=FaultProfile(request_loss=0.01, reply_loss=0.01),
                geometry=DiskGeometry.small(),
                seed=self.seed,
            )
        )
        self.agent = agent = cluster.machine.file_agent
        self.names = [AttributedName.file(f"/mixed/f{i}") for i in range(self.n_files)]
        tick()
        for index, name in enumerate(self.names):
            descriptor = agent.create(name, volume_id=index % 4)
            agent.pwrite(descriptor, self.file_bytes(index), 0)
            agent.close(descriptor)
            tick()
        self.replicated = [
            AttributedName.file(f"/mixed/replicated{i}") for i in range(self.n_replicated)
        ]
        for index, name in enumerate(self.replicated):
            cluster.replication.create(name, degree=2)
            cluster.replication.write(name, 0, self.replicated_bytes(index))
            tick()
        self.descriptors = [agent.open(name) for name in self.names]

    def run(self, meter: Meter) -> None:
        agent = self.agent
        cluster = self.cluster
        rngs = [
            random.Random(f"mixed_rw:client:{self.seed}:{client}")
            for client in range(self.n_clients)
        ]
        cdf = self._cdf
        by_rank = self._by_rank
        versions = self.versions
        file_size = self.file_blocks * BLOCK

        def op(cluster, client, op_index):
            rng = rngs[client]
            choice = rng.random()
            file_index = by_rank[min(bisect.bisect_left(cdf, rng.random()), self.n_files - 1)]
            block_index = rng.randrange(self.file_blocks)
            descriptor = self.descriptors[file_index]

            def body():
                if choice < 0.70:
                    data = agent.pread(descriptor, BLOCK, block_index * BLOCK)
                    expected = self.block(
                        file_index, block_index, versions.get((file_index, block_index), 0)
                    )
                    meter.gate(data == expected, f"mixed_rw: f{file_index} block {block_index}")
                    return "read"
                if choice < 0.85:
                    version = versions.get((file_index, block_index), 0) + 1
                    agent.pwrite(
                        descriptor, self.block(file_index, block_index, version), block_index * BLOCK
                    )
                    versions[(file_index, block_index)] = version
                    meter.user_bytes += BLOCK
                    return "write"
                if choice < 0.90:
                    index = block_index % self.n_replicated
                    inner = block_index % self.replicated_blocks
                    data = cluster.replication.read(self.replicated[index], inner * BLOCK, BLOCK)
                    meter.gate(
                        data == self.block(self.n_files + index, inner, 0),
                        f"mixed_rw: replicated{index} block {inner}",
                    )
                    return "replicated"
                target = cluster.naming.resolve(self.names[file_index])
                size = agent.get_attribute(descriptor).file_size
                meter.gate(
                    target == agent.system_name(descriptor) and size == file_size,
                    f"mixed_rw: metadata of f{file_index}",
                )
                return "metadata"

            return _timed_op(meter, client * self.ops_per_client + op_index, body)

        with meter.window(timed=True):
            report = cluster.run_concurrent(
                op, n_clients=self.n_clients, ops_per_client=self.ops_per_client
            )
        meter.attempted += self.n_clients * self.ops_per_client
        meter.sim_op_us.extend(report.op_latencies_us)
        meter.sim_elapsed_us += report.elapsed_us
        # Acknowledged writes reach the devices when the files close.
        with meter.window(timed=False):
            for descriptor in self.descriptors:
                agent.close(descriptor)
            cluster.flush_all()

    def finish(self, meter: Meter) -> None:
        cluster = self.cluster
        for volume_id in range(4):
            for _ in range(5):
                meter.crash_cycle(volume_id)
        agent = self.agent
        for index, name in enumerate(self.names):
            descriptor = agent.open(name)
            data = agent.pread(descriptor, self.file_blocks * BLOCK, 0)
            agent.close(descriptor)
            meter.gate(
                data == self.file_bytes(index),
                f"mixed_rw: f{index} differs from the model after restart",
            )
        for index, name in enumerate(self.replicated):
            data = cluster.replication.read(name, 0, self.replicated_blocks * BLOCK)
            meter.gate(
                data == self.replicated_bytes(index),
                f"mixed_rw: replicated{index} differs from the model after restart",
            )


# ========================================================= txn_crash


class TxnCrash:
    """Bank transfers by 8 interleaved clients, a crash after every round."""

    name = "txn_crash"
    setup_repeats = 9
    #: Committed transfers per ``--seconds``.
    ops_per_second = 36
    n_accounts = 2048
    initial_balance = 1000
    n_clients = 8
    per_client = 8
    crash_cycles_per_round = 3
    account_name = AttributedName.file("/bank/accounts")

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        per_round = self.n_clients * self.per_client
        self.rounds = max(1, round(seconds * self.ops_per_second / per_round))
        self.model = [self.initial_balance] * self.n_accounts

    def setup(self, tick=_no_tick) -> None:
        self.cluster = RhodosCluster(ClusterConfig(seed=self.seed))
        self.host = self.cluster.machine.transactions
        tick()
        make_accounts_file(
            self.host,
            self.account_name,
            self.n_accounts,
            initial_balance=self.initial_balance,
        )

    def _runner(self) -> InterleavedRunner:
        coordinator = self.cluster.coordinator
        clock = self.cluster.clock

        def on_stall(now: int) -> bool:
            next_expiry = coordinator.next_expiry_us()
            if next_expiry is None:
                return False
            clock.advance_to(next_expiry)
            coordinator.expire_locks(clock.now_us)
            return True

        return InterleavedRunner(
            clock,
            think_time_us=100,
            on_stall=on_stall,
            on_step=lambda now: coordinator.expire_locks(now),
        )

    def _script(self, meter: Meter, first_op: int, transfers: List[tuple]):
        """One client's transfers; an op runs from its first tbegin to its
        successful tend, retries included."""
        host = self.host
        clock = self.cluster.clock
        name = self.account_name
        recorder = meter.recorder
        state = {"done": 0, "start_us": None, "wall_ns": 0}

        def timed(thunk):
            def run():
                start = time.perf_counter_ns()
                try:
                    return recorder.run_op(first_op + state["done"], thunk)
                finally:
                    state["wall_ns"] += meter.host_ns(start)
                    meter.tick()

            return run

        def begin():
            if state["start_us"] is None:
                state["start_us"] = clock.now_us
            return host.tbegin()

        def script():
            source, target, amount = transfers[state["done"]]
            tid = yield timed(begin)
            descriptor = yield timed(lambda: host.topen(tid, name))
            raw_source = yield timed(
                lambda: host.tpread(
                    tid, descriptor, ACCOUNT_BYTES, source * ACCOUNT_BYTES, for_update=True
                )
            )
            raw_target = yield timed(
                lambda: host.tpread(
                    tid, descriptor, ACCOUNT_BYTES, target * ACCOUNT_BYTES, for_update=True
                )
            )
            new_source = ACCOUNT_RECORD.unpack(raw_source)[0] - amount
            new_target = ACCOUNT_RECORD.unpack(raw_target)[0] + amount
            yield timed(
                lambda: host.tpwrite(
                    tid, descriptor, ACCOUNT_RECORD.pack(new_source), source * ACCOUNT_BYTES
                )
            )
            yield timed(
                lambda: host.tpwrite(
                    tid, descriptor, ACCOUNT_RECORD.pack(new_target), target * ACCOUNT_BYTES
                )
            )
            yield timed(lambda: host.tend(tid))
            # Committed: the model applies the transfer exactly once.
            self.model[source] -= amount
            self.model[target] += amount
            meter.sim_op_us.append(clock.now_us - state["start_us"])
            meter.op_wall_ns.append(state["wall_ns"])
            meter.user_bytes += 2 * ACCOUNT_BYTES
            state.update(done=state["done"] + 1, start_us=None, wall_ns=0)

        return script, state

    def run(self, meter: Meter) -> None:
        rng = random.Random(f"txn_crash:{self.seed}")
        for round_index in range(self.rounds):
            runner = self._runner()
            states = []
            for client in range(self.n_clients):
                transfers = []
                for _ in range(self.per_client):
                    source, target = rng.sample(range(self.n_accounts), 2)
                    transfers.append((source, target, rng.randint(1, 50)))
                first_op = (round_index * self.n_clients + client) * self.per_client
                script, state = self._script(meter, first_op, transfers)
                runner.add_client(script, repeats=self.per_client)
                states.append(state)
            with meter.window(timed=True):
                report = runner.run()
            meter.sim_elapsed_us += report.elapsed_us
            meter.lock_waits += report.total_lock_waits
            meter.attempted += self.n_clients * self.per_client
            meter.failed += sum(self.per_client - state["done"] for state in states)
            for _ in range(self.crash_cycles_per_round):
                meter.crash_cycle(0)
            meter.fsck(0)
            self.check_balances(meter)

    def balances(self) -> List[int]:
        """Every balance as the system reports it, read in one transaction."""
        host = self.host
        tid = host.tbegin()
        descriptor = host.topen(tid, self.account_name)
        raw = host.tpread(tid, descriptor, self.n_accounts * ACCOUNT_BYTES, 0)
        host.tend(tid)
        return [
            ACCOUNT_RECORD.unpack_from(raw, index * ACCOUNT_BYTES)[0]
            for index in range(self.n_accounts)
        ]

    def check_balances(self, meter: Meter) -> None:
        balances = self.balances()
        wrong = [index for index, value in enumerate(balances) if value != self.model[index]]
        meter.gate(not wrong, f"txn_crash: {len(wrong)} balances differ from the model, e.g. {wrong[:5]}")
        meter.gate(
            sum(balances) == self.n_accounts * self.initial_balance,
            f"txn_crash: total balance {sum(balances)} is not conserved",
        )

    def finish(self, meter: Meter) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (FileChurn, MixedRW, TxnCrash)}
