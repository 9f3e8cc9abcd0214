"""The process's numeric threads: thread_map, the package's one way of going parallel.

thread_map runs its items on at most one thread per core (worker_count), and
inside single_threaded_blas.  numpy bundles a threaded OpenBLAS, and so does
scipy, whose copy is mapped only once dense mode imports scipy.linalg; each
by default runs on every core, and item threads that each start BLAS threads
on the same cores lose more than they gain.  Inside the block every mapped
library runs on one thread and worker_count() reads 1, so a map inside an
item runs inline.  It pins only the libraries mapped when it is entered.
"""

import ctypes
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager

# OpenBLAS thread counts belong to the whole process, so the blocks that set
# them share one count of open blocks and one record of the counts to restore.
_lock = threading.Lock()
_open_blocks = 0
_restore = []


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


def worker_count():
    """Threads a numeric step may run on: 1 inside single_threaded_blas, else one per core.

    The cores are those this process may run on, the count OpenBLAS starts
    with, so an assembly and the LU that follows it use the same cores.
    """
    with _lock:
        if _open_blocks:
            return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


@contextmanager
def single_threaded_blas():
    """Set every loaded OpenBLAS to one thread, and restore each count on exit.

    The call sets the count for the whole process, not for the calling
    thread, so it wraps a whole thread pool: entered before the pool starts
    and left after it has joined.  Blocks may overlap in different threads:
    the first to enter saves and sets the counts, and the last to leave
    restores them.
    """
    global _open_blocks, _restore
    with _lock:
        if not _open_blocks:
            _restore = [(set_threads, set_threads(1)) for set_threads in _openblas_setters()]
        _open_blocks += 1
    try:
        yield
    finally:
        with _lock:
            _open_blocks -= 1
            if not _open_blocks:
                for set_threads, n in _restore:
                    set_threads(n)
                _restore = []


def thread_map(fn, items, limit=None):
    """[fn(x) for x in items], in item order, on min(limit, worker_count(), len(items)) threads.

    At width 1 the items run in the calling thread; otherwise on a pool
    whose first error cancels the items not yet started and is raised once
    the pool has joined.  Either way they run inside single_threaded_blas.
    """
    items = list(items)
    width = min(worker_count(), len(items), len(items) if limit is None else limit)
    with single_threaded_blas():
        if width <= 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=width) as pool:
            futures = [pool.submit(fn, x) for x in items]
            try:
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:
                pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]
