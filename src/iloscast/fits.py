"""Independent fits on up to two pinned forked children.

A stage that fits several models which do not depend on each other hands
them to :func:`run`. With two or more fits, two or more usable CPUs and
BLAS pinned to one thread, each fit runs in a forked child pinned to one
CPU of this process's affinity mask, two children at a time. A pinned
child sees one usable CPU, so the booster's split worker and the
recurrent step thread stay off inside it, and each fit computes the same
bits as in-process. Children only fit and send back the pickled result;
every write stays with the caller, which takes the results in job order.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import traceback
import warnings
from contextlib import suppress
from typing import Any, Callable, Sequence

from .cpus import blas_pinned, usable_cpus
from .errors import IloscastError

#: A named zero-argument fit; the name appears in errors about its child.
Job = tuple[str, Callable[[], Any]]


def run(jobs: Sequence[Job], take: Callable[[Any], object] = lambda result: None) -> list:
    """The results of ``jobs`` in job order; ``take`` is called on each in
    job order as soon as it and every earlier one are in.

    With one job, one usable CPU, BLAS not pinned to one thread
    (``cpus.blas_pinned``; BLAS's own threads would share a child's one
    CPU, where a matrix product measured 16 times slower) or no
    ``os.sched_setaffinity``, the jobs run here one after the other.
    Otherwise each free CPU's child takes the next job. A job that raises
    an :class:`IloscastError` re-raises it here, with the same class and
    message, once every earlier job has been taken; no later job is
    taken. A child that dies raises an :class:`IloscastError` naming the
    job. Every child is reaped on return, on error and on interrupt.
    """
    workers = min(2, len(jobs), usable_cpus()) if blas_pinned() and hasattr(os, "sched_setaffinity") else 1
    results: list = []
    if workers < 2:
        for _, fit in jobs:
            results.append(fit())
            take(results[-1])
        return results
    free = sorted(os.sched_getaffinity(0))[:workers]
    running: dict[int, tuple[int, int, int]] = {}  # read end of the child's pipe -> (job, pid, cpu)
    outcomes: dict[int, tuple[bool, Any]] = {}  # job -> (ok, result or exception), not yet taken
    started = 0
    try:
        while len(results) < len(jobs):
            while free and started < len(jobs) and all(ok for ok, _ in outcomes.values()):
                cpu = free.pop(0)
                fd, pid = _fork(jobs[started][1], cpu)
                running[fd] = (started, pid, cpu)
                started += 1
            for fd in select.select(list(running), [], [])[0]:
                k, pid, cpu = running[fd]
                outcomes[k] = _receive(fd, pid, jobs[k][0])
                del running[fd]
                os.close(fd)
                free.append(cpu)
            while len(results) in outcomes:
                ok, value = outcomes.pop(len(results))
                if not ok:
                    raise value
                results.append(value)
                take(value)
    finally:
        for fd, (_, pid, _) in running.items():
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)
    return results


def _fork(fit: Callable[[], Any], cpu: int) -> tuple[int, int]:
    """Fork a child pinned to ``cpu`` that runs ``fit``, writes the pickled
    ``(True, result)``, ``(False, (class, message))`` for an
    :class:`IloscastError` or ``(False, traceback text)`` for any other
    error to a pipe, and exits 0; return the pipe's read end and the
    child's pid."""
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
            os.close(read_end)
            os.sched_setaffinity(0, {cpu})
            try:
                reply = pickle.dumps((True, fit()), pickle.HIGHEST_PROTOCOL)
            except IloscastError as exc:
                reply = pickle.dumps((False, (type(exc), str(exc))))
            except Exception:
                reply = pickle.dumps((False, traceback.format_exc()))
            with open(write_end, "wb") as pipe:
                pipe.write(reply)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return read_end, pid


def _receive(fd: int, pid: int, name: str) -> tuple[bool, Any]:
    """Read the child's reply to the end and reap the child; ``(True,
    result)`` or ``(False, the exception to raise)``."""
    with open(fd, "rb", closefd=False) as pipe:
        reply = pipe.read()
    status = os.waitpid(pid, 0)[1]
    if status:  # anything but a normal exit with status 0
        if os.WIFSIGNALED(status):
            how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        return False, IloscastError(f"fit {name!r}: its child process {pid} {how} before returning a result")
    ok, value = pickle.loads(reply)
    if ok:
        return True, value
    if isinstance(value, tuple):
        cls, message = value
        return False, cls(message)
    return False, RuntimeError(f"fit {name!r} failed in its child process {pid}:\n{value}")
