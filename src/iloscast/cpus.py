"""How many CPUs this process may run on, and whether BLAS leaves room
for more threads or processes beside it."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_pinned() -> bool:
    """Whether BLAS is pinned to one thread: ``OPENBLAS_NUM_THREADS``, else
    ``OMP_NUM_THREADS``, is ``1``. Otherwise its own threads compete with
    a second thread of ours, or share the one CPU of a pinned child.

    The variable is read here, when called, but OpenBLAS sizes its thread
    pool when numpy is imported: it only counts if it was set before
    that import. Set after it, this reports BLAS pinned while its pool
    still has a thread per CPU."""
    return os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"
