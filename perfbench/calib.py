"""Calibration kernel: tracks the speed drift of the machine.

On a small shared VM the same batch of operations can take twice as long
a few seconds later, with CPU time tracking wall time. A fixed
pure-Python kernel run next to each operation slows down with it, so
every timing is scaled by the calibration measured beside it:

    scaled = raw * REF_S / calibration

The kernel does integer and string arithmetic only. It imports nothing,
allocates no containers (so it never triggers the garbage collector) and
never calls the program under test. `REF_S` is the kernel's time at the
benchmark's reference speed; scaled figures are seconds at that speed.
"""

import time

REF_S = 0.00055
_ROUNDS = 600
_BIG = 3 ** 200
_MOD = (1 << 181) - 1


def kernel(n: int = _ROUNDS) -> int:
    x = 0x9E3779B97F4A7C15
    acc = 0
    i = 0
    while i < n:
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc = (acc + x * _BIG) % _MOD
        s = str(x & 0xFFFFF)
        acc += len(s) + ord(s[0])
        i += 1
    return acc


def measure() -> float:
    """One calibration: the kernel's wall time in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def measure_median(k: int = 5) -> float:
    """Median of k calibrations, for timings taken between two of them."""
    vals = sorted(measure() for _ in range(k))
    return vals[k // 2]
