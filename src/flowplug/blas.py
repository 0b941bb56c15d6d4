"""Who owns the box's CPUs: the thread count of the OpenBLAS that numpy runs
on, set through stdlib ``ctypes`` with the thread-count calls of the
scipy-openblas build that numpy wheels ship, and the one rule that decides
whether work is shared with a second, forked process."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import threading
from collections.abc import Callable, Iterator


@functools.cache
def _thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    loaded library exports them (another BLAS build, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except (OSError, IndexError):
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_thread() -> Iterator[bool]:
    """BLAS on one thread inside the block, with the caller's count restored
    on the way out, errors included. Yields whether the count could be set;
    when it could not, nothing is changed."""
    calls = _thread_calls()
    if calls is None:
        yield False
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may fork a second one to share its work."""
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1  # fork copies only the calling thread
        and not multiprocessing.current_process().daemon  # which may not have children
        and _usable_cpus() > 1  # on one CPU the two processes only take turns
    )


@contextlib.contextmanager
def two_processes() -> Iterator[bool]:
    """Yields whether a process forked inside the block may share the work.
    It may where ``may_fork()`` holds and the BLAS thread count can be set;
    BLAS then runs on one thread in this process, and so in the child, until
    the block ends: two processes each driving a multithreaded BLAS on two
    CPUs ran about four times slower than two single-threaded ones. Where
    the answer is no, nothing is changed."""
    if not may_fork():
        yield False
        return
    with one_thread() as settable:
        yield settable


def balanced_halves(sizes: list[int]) -> list[int]:
    """Side 0 or 1 for each item, so that each side holds about half of the
    total size: items largest first, each to the side holding less so far,
    ties to side 0 and equal sizes in their given order."""
    load, sides = [0, 0], [0] * len(sizes)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        sides[i] = side = int(load[1] < load[0])
        load[side] += sizes[i]
    return sides
