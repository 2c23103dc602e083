"""Host-speed calibration for the benchmark's timings.

The host's CPU speed changes by tens of percent within seconds, for
process CPU time as much as for wall time, so raw pass times follow the
host.  ``run.py`` times a fixed pure-Python loop before and after every
pass and set-up probe and scales the pass's CPU time, and the probe's wall
time, to a host on which the loop takes ``CAL_REF_S`` seconds.  The loop
runs no program code, so a change to the program cannot move it.

A workload that keeps several CPUs busy is calibrated on as many: the
loop runs here and, at the same moment, in helper processes started as
``python3 perfbench/calibrate.py``, which time one loop per line read
from standard input and exit at its end.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

CAL_ITERATIONS = 40000
CAL_REF_S = 0.04


def loop_s() -> float:
    """Seconds for a fixed loop of heap and dict operations, the
    interpreter work the simulation engine is made of."""
    start = time.perf_counter()
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(CAL_ITERATIONS):
        push(heap, ((i * 7919) % 10007, i))
        table[i & 1023] = table.get((i * 31) & 1023, 0) + 1
        if len(heap) > 256:
            pop(heap)
    return time.perf_counter() - start


def scaled(wall_s: float, cal_before: float, cal_after: float) -> float:
    """``wall_s`` on the reference host, from the calibrations around it."""
    return wall_s * CAL_REF_S / ((cal_before + cal_after) / 2)


class Calibrator:
    """Times the loop on ``width`` CPUs at once; ``close`` stops the
    helpers and waits for them."""

    def __init__(self, width: int):
        self.helpers = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(width - 1)
        ]

    def measure(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [loop_s()] + [float(helper.stdout.readline()) for helper in self.helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
        self.helpers = []


def main() -> int:
    for _ in sys.stdin:
        print(repr(loop_s()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
