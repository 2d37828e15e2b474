"""An ordered map over forked worker processes, shared by the LOSO folds and
flow extraction.

``forked_map(fn, tasks, workers, name_of)`` yields ``fn(task)`` for every
task in task order, each as soon as it and all earlier ones are done.  It
pulls tasks lazily from ``tasks`` in this process and hands each to an idle
worker, so at most one task is in flight per worker.  A worker is forked only
when a task waits and every worker forked so far is busy: no work means no
fork, and there are never more workers than tasks.  Workers are forked, not
spawned, so ``fn`` and whatever it reads are inherited without pickling; only
the tasks go out and the results come back, over one pipe per worker.

Each worker ignores SIGINT and takes SIGTERM's default action (the parent
ends its workers, also when it is interrupted), is killed when the parent dies
without ending it (SIGKILL, the OOM killer; Linux only), closes the parent's
ends of the pipes it inherited, and pins the loaded OpenBLAS to one thread, so
that N workers share N cores instead of oversubscribing them.  Its
``ahmsa.*`` log records reach the parent's handlers as they are emitted, with
``args`` intact.  A worker that dies or raises becomes an ``AhmsaError``
naming its task, and the other workers are killed.  With one worker, or where
no OpenBLAS thread setter can be found, the tasks run in this process.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
import pickle
import signal
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from multiprocessing.connection import Connection, wait
from typing import TypeVar

from .errors import AhmsaError, ConfigError, is_int

logger = logging.getLogger(__name__)

THREAD_ENV_VAR = "AHMSA_THREADS"

Task = TypeVar("Task")
Result = TypeVar("Result")

_END = object()  # the task iterator is exhausted


def worker_count(requested: int | None = None) -> int:
    """``requested`` workers, by default the CPUs this process may use, capped
    by ``AHMSA_THREADS`` (``forked_map`` caps them by the tasks)."""
    if requested is None:
        requested = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    env_cap = os.environ.get(THREAD_ENV_VAR)
    if env_cap is not None:
        try:
            cap = int(env_cap)
        except ValueError:
            cap = 0  # reported below, with the non-positive values
        if cap < 1:
            raise ConfigError(
                f"{THREAD_ENV_VAR} must be a positive integer, got {env_cap!r}")
        requested = min(requested, cap)
    return requested


# (set, get) thread-count functions of the OpenBLAS numpy wheels bundle, then
# of a plain OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

BlasThreadControl = tuple[Callable[[int], None], Callable[[], int]]


def openblas_thread_controls() -> list[BlasThreadControl]:
    """(set, get) thread-count functions of every OpenBLAS loaded in this
    process, found through ``/proc/self/maps``; empty where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    controls = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
            setter = getattr(handle, set_name, None)
            getter = getattr(handle, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


class _ForwardRecords(logging.Handler):
    """Sends a worker's records to the parent, which hands each to its own
    logger of the same name."""

    def __init__(self, conn: Connection):
        super().__init__()
        self.conn = conn

    def emit(self, record: logging.LogRecord) -> None:
        try:
            pickle.loads(pickle.dumps(record))
        except Exception:  # args that do not survive pickling travel as text
            record.msg, record.args = record.getMessage(), None
        self.conn.send(("log", record))


def _worker(conn: Connection, parent_ends: list[Connection],
            controls: list[BlasThreadControl], fn: Callable, parent: int) -> None:
    """Body of a forked worker: runs the tasks it is sent until its pipe closes."""
    if sys.platform == "linux":  # SIGKILL once the parent process ``parent`` dies
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:  # it died before the call
            os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends its workers
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's handler
    for parent_end in parent_ends:  # so that EOF on a pipe means its peer is gone
        parent_end.close()
    for set_threads, _ in controls:
        set_threads(1)
    forward = _ForwardRecords(conn)
    for name in {"ahmsa", *(name for name in logging.root.manager.loggerDict
                            if name.startswith("ahmsa."))}:
        worker_logger = logging.getLogger(name)
        worker_logger.handlers = [forward]
        worker_logger.propagate = False
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            result = fn(task)
        except Exception as exc:  # the parent raises it, naming the task
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("result", result))


def forked_map(fn: Callable[[Task], Result], tasks: Iterable[Task], workers: int,
               name_of: Callable[[Task], str]) -> Iterator[Result]:
    """``fn(task)`` for every task, in task order, from up to ``workers``
    forked processes; ``name_of(task)`` names a task in the error that a
    dead or raising worker becomes.  ``ConfigError`` unless ``workers`` is a
    positive integer."""
    if not is_int(workers) or workers < 1:
        raise ConfigError(f"worker count must be a positive integer, got {workers!r}")
    if workers == 1:
        return map(fn, tasks)
    return _forked_map(fn, iter(tasks), workers, name_of)


def _forked_map(fn: Callable[[Task], Result], tasks: Iterator[Task], workers: int,
                name_of: Callable[[Task], str]) -> Iterator[Result]:
    pending = next(tasks, _END)
    if pending is _END:
        return
    controls = openblas_thread_controls()
    if not controls:
        # unpinned workers oversubscribe the cores and run slower than one
        logger.warning("no OpenBLAS thread setter found: running the tasks "
                       "sequentially in this process")
        yield from map(fn, chain([pending], tasks))
        return

    context = multiprocessing.get_context("fork")
    conns: list[Connection] = []
    procs = []
    idle: list[Connection] = []
    running: dict[Connection, tuple[int, str]] = {}  # pipe -> (position, name)
    ahead: dict[int, Result] = {}  # results waiting for an earlier one
    handed_out = yielded = 0
    finished = False

    def fork() -> Connection:
        sys.stdout.flush()  # or each worker flushes a copy of the buffer on exit
        sys.stderr.flush()
        conn, child_conn = context.Pipe()
        proc = context.Process(target=_worker, daemon=True,
                               args=(child_conn, [*conns, conn], controls, fn,
                                     os.getpid()))
        proc.start()
        child_conn.close()
        conns.append(conn)
        procs.append(proc)
        return conn

    try:
        while True:
            while pending is not _END and (idle or len(conns) < workers):
                conn = idle.pop() if idle else fork()
                conn.send(pending)
                running[conn] = (handed_out, name_of(pending))
                handed_out += 1
                pending = next(tasks, _END)
            while yielded in ahead:
                yield ahead.pop(yielded)
                yielded += 1
            if not running:
                break
            for conn in wait(list(running)):
                position, name = running[conn]
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    proc = procs[conns.index(conn)]
                    proc.join(timeout=5)
                    raise AhmsaError(f"{name}: its worker process died "
                                     f"(exit code {proc.exitcode})") from None
                if kind == "log":
                    logging.getLogger(payload.name).handle(payload)
                elif kind == "error":
                    raise AhmsaError(f"{name} failed in its worker process: {payload}")
                else:
                    ahead[position] = payload
                    del running[conn]
                    idle.append(conn)
        finished = True
    finally:
        for conn in conns:
            conn.close()  # an idle worker's recv() ends
        if not finished:  # a failure, an interrupt or an early close: no task is wanted
            for proc in procs:
                proc.kill()
        for proc in procs:
            proc.join()
