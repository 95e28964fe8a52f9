"""Set-up probe: import the library, build one workload's operators and
inputs, then print the monotonic clock.

    python3 perfbench/probe.py <workload> <seed> <full|tiny>

``run.py`` starts it as a fresh process and takes the time from spawning it
to the printed clock reading as one set-up sample.
"""

import sys
import time

from run import import_library

if __name__ == "__main__":
    name, seed, size_name = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import_library()
    import workloads as wl

    wl.WORKLOADS[name].setup(seed, wl.SIZES[size_name])
    print(time.monotonic())
