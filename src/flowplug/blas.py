"""Who owns the box's CPUs: the thread count of the OpenBLAS that numpy runs
on, set through stdlib ``ctypes`` with the thread-count calls of the
scipy-openblas build that numpy wheels ship, the one rule that decides
whether work is shared with a second, forked process, the one helper that
runs that process (``SecondProcess``) and the memory it shares."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
import threading
import time
import warnings
from collections.abc import Callable, Iterator
from multiprocessing.connection import wait

import numpy as np

from .errors import FlowplugError, WorkerError

# how long closing waits for an idle second process to exit before killing
# it; an idle one exits at once on pipe EOF
_EXIT_SECONDS = 5.0
# how long each side polls for the other's message before it blocks: on a
# virtual machine, waking a process whose CPU went idle cost 0.1-2 ms per
# message, against gaps of about a millisecond between training's messages
_SPIN_SECONDS = 0.005


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


def shared_zeros(n: int) -> np.ndarray:
    """``n`` zeroed float64 entries in one anonymous shared mapping, which a
    process forked later shares with this one."""
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), np.float64, n)


def _await(conn, *also) -> None:
    """Return once ``conn`` has a message or EOF, or one of the ``also``
    handles is ready: polling first, for up to ``_SPIN_SECONDS``, then
    blocking."""
    deadline = time.perf_counter() + _SPIN_SECONDS
    while time.perf_counter() < deadline:
        if conn.poll(0):
            return
    wait([conn, *also])


class SecondProcess:
    """Runs ``serve(op, *args)``, the caller's or a subclass's, on a forked
    second process where ``two_processes()`` allows one (decided on
    entering: ``forked``), else here, in turn, when its result is read;
    ``name`` names it in errors.
    The child ignores SIGINT and exits on pipe EOF. Its warnings are issued
    again here, its ``FlowplugError`` raises here with its type, and any
    other error, its death or a failed fork raises ``WorkerError``. Closing
    joins it, and kills it if a call is still pending (an error path)."""

    def __init__(self, name: str, serve: Callable | None = None):
        self.name, self._serve = name, serve
        self._stack = contextlib.ExitStack()
        self._conn = self._proc = None
        self._pending: tuple | None = None
        self._warned: dict = {}

    @property
    def forked(self) -> bool:
        return self._proc is not None

    def serve(self, op: str, *args):
        return self._serve(op, *args)

    def __enter__(self) -> "SecondProcess":
        with contextlib.ExitStack() as stack:
            if stack.enter_context(two_processes()):
                ctx = multiprocessing.get_context("fork")
                self._conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=self._loop, args=(child_conn,), name="flowplug-second", daemon=True)
                try:
                    proc.start()
                except OSError as exc:  # fork failed, e.g. at a process limit
                    self._conn.close()
                    raise WorkerError(f"cannot start {self.name}: {exc}") from exc
                finally:
                    child_conn.close()
                self._proc = proc
            self._stack = stack.pop_all()
        return self

    def _loop(self, conn) -> None:
        """The second process: one reply per call, until EOF."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self._conn.close()
        while True:
            _await(conn)
            try:
                op, *args = conn.recv()
            except (EOFError, OSError):  # the caller closed its end, or died
                return
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome = self.serve(op, *args)
                except FlowplugError as exc:
                    outcome = exc
                except Exception as exc:  # reported to the caller, which raises it
                    outcome = WorkerError(f"{op} failed on {self.name}: {type(exc).__name__}: {exc}")
            try:
                conn.send((outcome, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]))
            except OSError:  # the caller died
                return

    def call(self, op: str, *args) -> None:
        """Hand over ``serve(op, *args)``; one call is pending at a time."""
        if self._pending is not None:
            raise WorkerError(f"{self.name} still has a {self._pending[0]} call pending")
        if self._proc is not None:
            try:
                self._conn.send((op, *args))
            except OSError as exc:
                raise WorkerError(f"{self.name} is gone ({exc})") from exc
        self._pending = (op, args)

    def result(self):
        """The pending call's outcome, once it has run."""
        if self._pending is None:
            raise WorkerError(f"no call is pending on {self.name}")
        (op, args), self._pending = self._pending, None
        if self._proc is None:
            return self.serve(op, *args)
        _await(self._conn, self._proc.sentinel)
        try:
            if not self._conn.poll():
                raise EOFError
            outcome, caught = self._conn.recv()
        except (EOFError, OSError):  # OSError: reset by a killed peer
            self._close()
            raise WorkerError(f"{self.name} exited (code {self._proc.exitcode}) before sending its {op}") from None
        # the second process's warnings, such as numpy's overflow, surface here
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=self._warned)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def alongside(self, run_first: Callable):
        """``run_first()`` here while the pending call runs: both results.
        If ``run_first`` raises, the pending call is left unread."""
        first = run_first()
        return first, self.result()

    def _close(self) -> None:
        """Join the second process, or kill it if a call is still pending."""
        if self._proc is not None and not self._conn.closed:
            self._conn.close()
            self._proc.join(0 if self._pending is not None else _EXIT_SECONDS)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join()

    def __exit__(self, *exc) -> None:
        try:
            self._close()
        finally:
            self._stack.close()
