"""Host probe: the wall time of a fixed interpreter workload.

    python3 perfbench/probe.py [CPU]  # prints the probe's wall time in s

With ``CPU`` the probe first pins itself to that CPU.

Heap and dict work like the routing kernels', and random reads over
64 MB like the validator's walks over large tables, in the benchmark's
own code.  It runs in a fresh interpreter that imports nothing from
``src/``, started only after the operation before it has returned, so
no change to the program, and no state the program left behind, can
move it (see README.md, "Host-normalised seconds").
"""

import gc
import heapq
import os
import sys
import time


def probe() -> float:
    mem = bytes(range(256)) * (1 << 18)
    gc.disable()
    t0 = time.perf_counter()
    heap = []
    table = {}
    for i in range(150_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i % 4093] = table.get(i % 4093, 0) + i
    while heap:
        heapq.heappop(heap)
    mask = len(mem) - 1
    idx = acc = 0
    for _ in range(750_000):
        idx = (idx * 1103515245 + 12345) & mask
        acc += mem[idx]
    return time.perf_counter() - t0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    print(repr(probe()))
