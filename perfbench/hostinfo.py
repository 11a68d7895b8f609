"""Host CPU accounting, to tell a slow program from a busy host.

On a shared VM the hypervisor may run other tenants on our CPUs; the
guest sees that time as *steal*.  Records carry the steal share of each
measured window so that an outlier run can be told apart from a
regression.
"""

from __future__ import annotations


def host_cpu_jiffies() -> tuple[int, int]:
    """(total, steal) CPU time of all CPUs since boot, in jiffies.

    The share of steal between two readings says how much of the
    measured window the hypervisor gave to other tenants.
    """
    with open("/proc/stat", "rb") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7]


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0
