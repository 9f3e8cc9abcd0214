"""The process's numeric library: thread_map, the package's one way of going
parallel, and lapack, the LAPACK routines of dense mode's LU.

thread_map runs its items on at most one thread per core (worker_count), and
inside single_threaded_blas.  numpy bundles a threaded OpenBLAS, which by
default runs on every core, and item threads that each start BLAS threads on
the same cores lose more than they gain.  Inside the block every mapped
OpenBLAS (numpy's, and scipy's where something imported scipy) runs on one
thread and worker_count() reads 1, so a map inside an item runs inline.  It
pins only the libraries mapped when it is entered.

lapack() gives dense mode's four LAPACK routines (dlange, dgetrf, dgecon,
dgetrs) from numpy's own OpenBLAS, called through ctypes, so dense mode
imports no scipy: scipy.linalg would cost a fresh process about 0.08 s and
23 MB on a 2-core box, and map a second OpenBLAS.
"""

import ctypes
import functools
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

# OpenBLAS thread counts belong to the whole process, so the blocks that set
# them share one count of open blocks and one record of the counts to restore.
_lock = threading.Lock()
_open_blocks = 0
_restore = []


def _mapped_openblas():
    """(path, library) of each OpenBLAS mapped into this process, in path order.

    The libraries are found by name in /proc/self/maps and opened with
    RTLD_NOLOAD, so nothing new is loaded.  Elsewhere (another OS) the list
    is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {fs[5].rstrip("\n") for fs in (line.split(maxsplit=5) for line in f)
                     if len(fs) == 6 and "openblas" in os.path.basename(fs[5])}
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append((path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD)))
        except OSError:
            continue
    return libs


def _openblas_setters():
    """openblas_set_num_threads_local of each mapped OpenBLAS that has it (0.3.27 and later)."""
    setters = []
    for _, lib in _mapped_openblas():
        try:
            set_threads = lib.openblas_set_num_threads_local
        except AttributeError:
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


# ---------------------------------------------------------------------------
# LAPACK for dense mode
# ---------------------------------------------------------------------------

_ROUTINES = ("dlange", "dgetrf", "dgecon", "dgetrs")


def _int(n):
    return ctypes.byref(ctypes.c_int64(n))


def _fortran_matrix(a, square=False):
    """a's data address, once a is checked to be a column-major float64 matrix
    (and square, for a factor)."""
    if (a.dtype != np.float64 or a.ndim != 2 or not a.flags.f_contiguous
            or square and a.shape[0] != a.shape[1]):
        raise ValueError(f"LAPACK needs a Fortran-ordered float64 {'square ' * square}matrix, "
                         f"got {a.dtype} {a.shape}")
    return a.ctypes.data


def _aligned_empty(n, dtype):
    """An uninitialised length-n array whose data starts on a 64-byte boundary.

    OpenBLAS's vector kernels round differently with the alignment of their
    operands: dgecon's rcond moved in its last 1-3 bits with where the heap
    put its work array, so the same factor gave different rcond bits in
    different processes.
    """
    size = np.dtype(dtype).itemsize
    buf = np.empty(n + 64 // size, dtype)
    start = (-buf.ctypes.data % 64) // size
    return buf[start:start + n]


class _OpenblasLapack:
    """dlange, dgetrf, dgecon and dgetrs of an ILP64 OpenBLAS, called through ctypes.

    Integers are int64 and pivots 1-based, as LAPACK gives them.  ctypes
    releases the GIL for each call, so solves on several threads run at once.
    """

    def __init__(self, lib):
        i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        array, char, length = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
        # name: (restype, argtypes).  Fortran takes every argument by reference,
        # and the length of each character argument by value after all the others.
        signatures = {
            "dlange": (ctypes.c_double, [char, i64, i64, array, i64, array, length]),
            "dgetrf": (None, [i64, i64, array, i64, array, i64]),
            "dgecon": (None, [char, i64, array, i64, f64, f64, array, array, i64, length]),
            "dgetrs": (None, [char, i64, i64, array, i64, array, array, i64, i64, length]),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, f"scipy_{name}_64_")
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, f"_{name}", fn)

    def dlange(self, a):
        """The 1-norm of a (NaN or Inf whenever an entry is)."""
        m, n = a.shape
        return self._dlange(b"1", _int(m), _int(n), _fortran_matrix(a), _int(max(m, 1)), None, 1)

    def dgetrf(self, a):
        """(lu, piv, info), a factored in place: lu is a."""
        m, n = a.shape
        piv = np.empty(min(m, n), dtype=np.int64)
        info = ctypes.c_int64()
        self._dgetrf(_int(m), _int(n), _fortran_matrix(a), _int(max(m, 1)), piv.ctypes.data,
                     ctypes.byref(info))
        return a, piv, info.value

    def dgecon(self, lu, anorm):
        """(rcond, info): the reciprocal 1-norm condition number of the factored matrix."""
        n = lu.shape[0]
        rcond, info = ctypes.c_double(), ctypes.c_int64()
        work, iwork = _aligned_empty(4 * n, np.float64), _aligned_empty(n, np.int64)
        self._dgecon(b"1", _int(n), _fortran_matrix(lu, square=True), _int(max(n, 1)),
                     ctypes.byref(ctypes.c_double(anorm)), ctypes.byref(rcond),
                     work.ctypes.data, iwork.ctypes.data, ctypes.byref(info), 1)
        return rcond.value, info.value

    def dgetrs(self, lu, piv, b):
        """A^-1 b from A's factor, as a new column-major array; b is left as it is."""
        n = lu.shape[0]
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or len(x) != n or piv.shape != (n,) or piv.dtype != np.int64:
            raise ValueError(f"cannot solve a factor of order {n} with {piv.dtype} pivots "
                             f"{piv.shape} for b of shape {x.shape}")
        info = ctypes.c_int64()
        self._dgetrs(b"N", _int(n), _int(x.size // max(n, 1)), _fortran_matrix(lu, square=True),
                     _int(max(n, 1)), piv.ctypes.data, x.ctypes.data, _int(max(n, 1)),
                     ctypes.byref(info), 1)
        return x


class _ScipyLapack:
    """The same four routines from scipy.linalg.lapack; its pivots are scipy's, 0-based int32."""

    def __init__(self):
        from scipy.linalg import lapack

        self._lapack = lapack

    def dlange(self, a):
        return self._lapack.dlange("1", a)

    def dgetrf(self, a):
        return self._lapack.dgetrf(a, overwrite_a=True)

    def dgecon(self, lu, anorm):
        return self._lapack.dgecon(lu, anorm, norm="1")

    def dgetrs(self, lu, piv, b):
        # the wrapper shifts piv in place while it runs, so concurrent solves on
        # one factor would see a half-shifted pivot vector: each call gets a copy
        return self._lapack.dgetrs(lu, piv.copy(), b)[0]


def _lapack_library():
    """The mapped OpenBLAS that exports LAPACK as numpy >= 2 wheels build it, else None.

    Those wheels export ILP64 routines named scipy_<name>_64_.  scipy's wheels
    export LP64 scipy_<name>_ only; a library in numpy's own directory (or
    its wheel's numpy.libs) is tried first all the same, so the choice does
    not depend on what else the process has mapped.
    """
    numpy_dir = os.path.dirname(np.__file__)
    for path, lib in sorted(_mapped_openblas(), key=lambda pl: not pl[0].startswith(numpy_dir)):
        if all(hasattr(lib, f"scipy_{name}_64_") for name in _ROUTINES):
            return lib
    return None


@functools.cache
def lapack():
    """Dense mode's LAPACK: numpy's OpenBLAS where it exports the routines, else scipy's
    binding (as under an MKL or Accelerate numpy).

    Each binding's pivots are its own: pass those of its dgetrf to its dgetrs.
    """
    lib = _lapack_library()
    return _ScipyLapack() if lib is None else _OpenblasLapack(lib)
