"""Host-speed calibration: report host time in calibrated seconds.

The boxes this benchmark runs on are small shared VMs.  A fixed
interpreter-bound loop takes 1.9 ms or 3.0 ms there depending on what the
neighbours are doing, the mix drifts over seconds to minutes, and whole
runs of identical work come out 20-40 % apart.  No statistic over a run's
own timings removes that, because the whole run is slowed.

So the benchmark times a fixed kernel of its own, :func:`_kernel`, in
between the pieces of measured work — one sample per 10 ms of measured
time — and divides every host-time figure by how much slower than
:data:`NOMINAL_S` the kernel ran over the same period.  The kernel mixes
what the code under test does in CPython: small-object allocation, method
calls, dictionary updates, and reads scattered over a pool larger than
the L2 cache.  Slow-downs act on the kernel and on the measured code
nearly alike, so their ratio holds much stiller than either: over five
sets of ten runs the quartile spread of ``ops_per_s`` was 10-21 % raw and
3-9 % calibrated.  What is left is mostly the kernel's own sampling
error and host states that slow the two unequally.

Both sides of the ratio are *means* over the period (work done / time
taken).  A mean is linear in the share of time the host spent slowed, so
the share cancels; a median is not, and does not.

Calibrated seconds are what the work would take on a host where the
kernel takes :data:`NOMINAL_S`.  That constant only fixes the scale — it
is this kernel's usual time on the box the benchmark was written on — and
cancels out of every comparison between two commits.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

#: seconds one kernel sample takes on the reference host
NOMINAL_S = 0.0020
#: one kernel sample per this many seconds of measured work
SAMPLE_EVERY_S = 0.01
POOL_CELLS = 150_000
KERNEL_STEPS = 1_500
#: an odd stride far from any power of two walks the whole pool
STRIDE = 104_729


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def bump(self, table: dict) -> int:
        key = (self.a ^ self.b) & 1023
        table[key] = table.get(key, 0) + 1
        return key


def _kernel(pool: List[_Cell], position: int) -> int:
    table: dict = {}
    total = 0
    size = len(pool)
    for index in range(KERNEL_STEPS):
        total += _Cell(index, (index * 31) & 0xFFFF).bump(table)
        position = (position + STRIDE) % size
        other = pool[position]
        total += other.a ^ other.b
    return position


class HostSpeed:
    """Kernel samples taken alongside one phase of measured work."""

    _pool: List[_Cell] = []

    def __init__(self) -> None:
        if not HostSpeed._pool:
            # Shared by every instance of the process; build it before
            # gc.freeze() so collections never rescan it.
            HostSpeed._pool = [
                _Cell(index, index ^ 0x5555) for index in range(POOL_CELLS)
            ]
        self.samples: List[float] = []
        self._position = 0

    def sample(self, count: int = 1) -> None:
        pool = HostSpeed._pool
        for _ in range(count):
            started = perf_counter()
            self._position = _kernel(pool, self._position)
            self.samples.append(perf_counter() - started)

    def cover(self, seconds: float) -> None:
        """Sample in proportion to ``seconds`` of work just measured."""
        self.sample(max(1, round(seconds / SAMPLE_EVERY_S)))

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this phase ran."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S

    def seconds(self, measured: float) -> float:
        """``measured`` host seconds as calibrated seconds."""
        return measured / self.slowdown

    def rate(self, measured: float) -> float:
        """A measured per-second rate as a per-calibrated-second rate."""
        return measured * self.slowdown
