"""Cores and BLAS threads: the thread budget of forked workers.

NumPy's bundled OpenBLAS starts one thread per core in every process.  A
path that forks ``N`` compute workers therefore runs ``N × cores`` BLAS
threads on ``cores`` cores, and the hand-offs between oversubscribed
threads cost more than the GEMMs they split.  Each forked worker (and the
data-parallel master while it computes shards) instead takes an equal
share of the cores: ``max(1, usable_cores() // N)`` threads, set through
:func:`budget_blas_threads`.

Single-process paths keep the library default: there the other BLAS
threads use cores that would otherwise idle.

The thread count is read and set through ctypes on the OpenBLAS library
numpy loaded (``threadpoolctl`` is not a dependency).  The library is
located on first use, never at import time; when numpy's BLAS is not
OpenBLAS, :func:`blas_threads` returns ``None`` and setting is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import os

#: Thread-count entry points by OpenBLAS build: the 64-bit-integer
#: builds numpy wheels bundle (``scipy_openblas64_`` today), then the
#: 32-bit-integer builds, such as a distribution's ``libopenblas``.
_SYMBOL_STEMS = ("scipy_openblas_{}_num_threads64_",
                 "openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads")


def usable_cores() -> int:
    """CPU cores this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas():
    """``(get, set)`` ctypes functions of the loaded OpenBLAS, or ``None``."""
    import numpy  # noqa: F401  (loads numpy's BLAS, if not yet loaded)

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:  # pragma: no cover - no procfs
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # pragma: no cover - mapped but not loadable
            continue
        for stem in _SYMBOL_STEMS:
            getter = getattr(lib, stem.format("get"), None)
            setter = getattr(lib, stem.format("set"), None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count in this process, or ``None``."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def set_blas_threads(threads: int) -> int | None:
    """Set OpenBLAS's thread count; returns the previous one, or ``None``."""
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    functions = _openblas()
    if functions is None:
        return None
    previous = int(functions[0]())
    functions[1](int(threads))
    return previous


def budget_blas_threads(processes: int) -> int | None:
    """Give this process its share of the cores among ``processes`` peers.

    Sets ``max(1, usable_cores() // processes)`` BLAS threads and returns
    the previous count, for a caller that restores it afterwards.
    """
    return set_blas_threads(max(1, usable_cores() // processes))
