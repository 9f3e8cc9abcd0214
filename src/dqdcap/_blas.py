"""Run the loaded OpenBLAS libraries on one thread for the span of a block.

numpy and scipy each bundle their own threaded OpenBLAS.  A sweep runs its
cells on a thread pool of its own, and each cell's small solves lose more to
BLAS worker threads competing for the same cores than they gain from them.
"""

import ctypes
import os
from contextlib import contextmanager


def _openblas_setters():
    """openblas_set_num_threads_local of each OpenBLAS mapped into this process.

    The libraries are found by name in /proc/self/maps and opened with
    RTLD_NOLOAD, so nothing new is loaded.  Elsewhere (another OS, MKL, an
    OpenBLAS older than 0.3.27) the list is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            fields = [line.split(maxsplit=5) for line in f]
    except OSError:
        return []
    paths = {fs[5].rstrip("\n") for fs in fields
             if len(fs) == 6 and "openblas" in os.path.basename(fs[5])}
    setters = []
    for path in sorted(paths):
        try:
            set_threads = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = ctypes.c_int
        setters.append(set_threads)
    return setters


@contextmanager
def single_threaded_blas():
    """Set every loaded OpenBLAS to one thread, and restore each count on exit.

    The call sets the count for the whole process, not for the calling
    thread, so it wraps a whole thread pool: entered before the pool starts
    and left after it has joined.  Two such blocks that overlap in different
    threads can leave the count at one.
    """
    setters = _openblas_setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, n in zip(setters, previous):
            set_threads(n)
