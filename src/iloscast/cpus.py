"""How many CPUs this process may run on."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
