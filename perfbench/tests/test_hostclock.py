"""The calibration kernel does not respond to what the program did to memory.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import statistics

from hostclock import HostClock

ROUNDS = 60


def copy_64_mib(buffer: bytearray) -> None:
    """A large memory sweep, as a program with a big working set makes."""
    buffer[:] = buffer


def churn_small_objects() -> list:
    """Allocate and free small objects all over the allocator's arenas."""
    objects = [(index, str(index)) for index in range(200_000)]
    del objects[::2]
    return objects


def test_calibration_is_insensitive_to_the_programs_memory_behaviour():
    clock = HostClock()
    buffer = bytearray(64 << 20)
    ratios = {"copy": [], "churn": []}
    for _ in range(ROUNDS):
        # Each disturbed calibration is compared with idle ones taken
        # just before and after it, so drift in machine speed cancels.
        clock.calibrate()
        before = clock.factor
        copy_64_mib(buffer)
        clock.calibrate()
        copied = clock.factor
        kept = churn_small_objects()
        clock.calibrate()
        churned = clock.factor
        del kept
        clock.calibrate()
        idle = (before + clock.factor) / 2
        ratios["copy"].append(copied / idle)
        ratios["churn"].append(churned / idle)
    for disturbance, values in ratios.items():
        assert abs(statistics.median(values) - 1) < 0.06, (disturbance, sorted(values))
