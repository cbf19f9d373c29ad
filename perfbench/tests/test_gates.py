"""Every correctness gate fires on a planted fault, and only then.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import pytest

from hostclock import HostClock
from layers import NullRecorder
from repro.disk_service.addresses import Extent
from repro.workloads.transactions import ACCOUNT_BYTES, ACCOUNT_RECORD
from workloads import WORKLOADS, Meter


def prepared(name, seed=3, seconds=1):
    workload = WORKLOADS[name](seed, seconds)
    workload.setup()
    meter = Meter(workload.cluster, NullRecorder(), HostClock())
    return workload, meter


def flip_model_byte(workload):
    """Corrupt the model's idea of what was written, not the system."""
    pool = bytearray(workload._pool)
    pool[100] ^= 0x01
    workload._pool = bytes(pool)


@pytest.mark.parametrize("name", ["file_churn", "mixed_rw", "txn_crash"])
def test_clean_run_passes_every_gate(name):
    workload, meter = prepared(name)
    workload.run(meter)
    workload.finish(meter)
    assert meter.gate_failures == []
    assert meter.failed == 0
    assert meter.attempted > 0


@pytest.mark.parametrize("name", ["file_churn", "mixed_rw"])
def test_read_back_gate_fires_on_a_flipped_model_byte(name):
    workload, meter = prepared(name)
    workload.run(meter)
    assert meter.gate_failures == []
    flip_model_byte(workload)
    workload.finish(meter)
    assert any("differs from the model after restart" in f for f in meter.gate_failures)


def test_balance_gates_fire_on_a_skewed_balance():
    workload, meter = prepared("txn_crash")
    host = workload.host
    # A rogue update the model never sees: account 7 gains one unit.
    tid = host.tbegin()
    descriptor = host.topen(tid, workload.account_name)
    raw = host.tpread(tid, descriptor, ACCOUNT_BYTES, 7 * ACCOUNT_BYTES, for_update=True)
    skewed = ACCOUNT_RECORD.pack(ACCOUNT_RECORD.unpack(raw)[0] + 1)
    host.tpwrite(tid, descriptor, skewed, 7 * ACCOUNT_BYTES)
    host.tend(tid)
    workload.run(meter)
    assert any("balances differ from the model" in f for f in meter.gate_failures)
    assert any("is not conserved" in f for f in meter.gate_failures)


def test_fsck_gate_fires_on_a_block_freed_while_referenced():
    workload, meter = prepared("txn_crash")
    workload.run(meter)
    assert meter.gate_failures == []
    cluster = workload.cluster
    system_name = cluster.naming.resolve_file(workload.account_name)
    block = cluster.file_servers[0].load_fit(system_name).direct[0]
    # The bitmap loses a fragment the accounts file still maps.
    cluster.disk_servers[0].free(Extent(block.address, 1))
    meter.fsck(0)
    assert any(f.startswith("fsck volume 0") for f in meter.gate_failures)


def test_an_op_that_raises_is_counted_failed():
    workload, meter = prepared("file_churn")
    agent = workload.agent
    original = agent.pwrite
    calls = []

    def failing_once(descriptor, data, offset):
        calls.append(offset)
        if len(calls) == 5:
            raise OSError("planted write failure")
        return original(descriptor, data, offset)

    agent.pwrite = failing_once
    workload.run(meter)
    assert meter.failed == 1
    assert meter.errors and "planted write failure" in meter.errors[0]
    assert 4 not in workload.live
