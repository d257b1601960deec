"""Hypervisor steal time of the CPU the benchmark runs on.

On a shared virtual machine the host can take a vCPU away for a while.
Wall-clock time then includes stretches in which no code of the guest ran;
on a 2-vCPU machine (Intel Xeon) this was 1-30% of a multi-second call. The
benchmark pins its processes to one CPU and subtracts that CPU's steal time,
read from ``/proc/stat``, from every wall-clock interval it reports, which
leaves the wall time the call would take on a machine of its own.  Where the
kernel reports no steal time, nothing is subtracted.
"""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def pin() -> int:
    """Pin this process, and the processes it starts, to one CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_s(cpu: int) -> float:
    """Cumulative steal time of ``cpu`` in seconds (0 where not reported)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0
