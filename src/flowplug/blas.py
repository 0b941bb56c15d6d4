"""The thread count of the OpenBLAS that numpy runs on, set through stdlib
``ctypes`` with the thread-count calls of the scipy-openblas build that
numpy wheels ship."""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
