"""One BLAS thread per process for the ML tier.

numpy and scipy each bring an OpenBLAS, and each OpenBLAS keeps a pool
of worker threads, one per core. The bundled apps' kernels are small:
the pools buy them no wall time, yet their workers spin on the other
cores after every call that woke them, so a process running the apps
read 13-36 % more CPU than wall time on a 2-core VM. Importing
:mod:`repro.ml` runs :func:`one_blas_thread` once, so every BLAS call of
the apps runs on the calling thread. Results do not depend on it: the
apps give the same bytes and scores at one thread and at one per core
(``tests/ml/test_blas_threads.py``). A thread count the environment
sets (``OPENBLAS_NUM_THREADS`` and the others OpenBLAS reads) wins: the
helper then leaves every pool as OpenBLAS set it.

Stdlib only, so a process that has loaded no numpy can call it too.
"""

from __future__ import annotations

import os

#: The thread-count setter of each OpenBLAS build: numpy's (64-bit
#: ints), scipy's, a system library. Each getter is named alike.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)

#: The variables OpenBLAS reads its thread count from when it loads.
THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _mapped_openblas() -> list[str]:
    """The path of every OpenBLAS mapped into this process, in map order."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split(maxsplit=5)[5].rstrip("\n") for line in maps if "openblas" in line]
    except (OSError, IndexError):
        return []
    return [path for path in dict.fromkeys(paths) if "openblas" in os.path.basename(path)]


def openblas_pools() -> list[tuple[str, object, object]]:
    """``(path, set_num_threads, get_num_threads)`` for every OpenBLAS
    this process has mapped. A library is opened only if it is mapped
    already (``RTLD_NOLOAD``): this loads nothing."""
    import ctypes

    pools = []
    for path in _mapped_openblas():
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            getter = getattr(library, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                pools.append((path, setter, getter))
                break
    return pools


def blas_threads() -> dict[str, int]:
    """How many threads each mapped OpenBLAS runs a call on, by path."""
    return {path: get() for path, _, get in openblas_pools()}


def one_blas_thread() -> int:
    """Run every BLAS call of this process on the calling thread; return
    how many OpenBLAS libraries now run one thread (0, and nothing
    changed, where none is mapped or the environment sets a thread
    count, which OpenBLAS has applied already).

    A process policy, as :func:`~repro.remote.server.share_one_heap` is
    for serving processes: it acts on the libraries mapped when it runs,
    so :mod:`repro.ml` calls it after its imports have loaded numpy's and
    scipy's.
    """
    if any(name in os.environ for name in THREAD_SETTINGS):
        return 0
    took = 0
    for _, set_threads, get_threads in openblas_pools():
        set_threads(1)
        took += get_threads() == 1
    return took
