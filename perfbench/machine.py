"""The machine block recorded with every result: cores, BLAS and its thread
setting, library versions and the program's identity.  Settings are recorded,
never pinned."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import common

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "AHMSA_THREADS")
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(common.ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(common.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime_threads": _openblas_threads(),
                 "env": {var: os.environ.get(var, "unset") for var in _THREAD_VARS}},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        # content hash of the program's sources, for checkouts without git
        "src_sha256": common.file_sha256(sorted(common.SRC.rglob("*.py"))),
    }
