"""C kernels for the hot loops, built from ``_kernels.c`` on first use.

The kernels and the numpy references they must match bit for bit:

* ``qf_simulate``: a contiguous range of source slices in one call, with
  the GIL released (``source._slice_py``, slice by slice). Each slice draws
  from its own Philox, keyed by ``qf_slice_key`` as ``source._slice_rng``
  keys it (numpy's ``SeedSequence``), through C ports of the four numpy
  samplers it uses (``qf_sample`` runs each alone, against
  ``numpy.random.Generator``); routing, thinning, jitter and the stable sort
  of the slice, one LSD radix sort (``qf_slice_sort``, against
  ``source._slice_order``), run in C
* ``qf_settle``: the insertion pass that settles the concatenated slices
  into one time-ordered stream (``source._settle_py``, a stable argsort)
* ``qf_dead_time``: per-channel dead time (``source._dead_time_keep_py``)
* ``qf_coincide``: the exact coincidence matcher, one pass over a whole tag
  stream that matches its three section pairs by a gap-tau cluster scan
  with a banded DP per pileup cluster (``coincidence._match_py``, whose DP
  is a full table), and gives the packed raw bits, the Bell pair's
  coincidences, the singles of each channel and the pileup clusters
  (``coincidence._coincide_py``: the channel split, ``find_coincidences``
  per pair and ``assign_bits``). A channel whose role is above 5 is counted
  and joins no pair, so with a role table of C1 and C2 alone the same pass
  matches the Bell pair for certification (``coincidence.bell_coincidences``;
  reference ``find_coincidences`` on the two channels' times), and any two
  sorted arrays, merged as C1 and C2 (``coincidence.find_coincidences``;
  reference ``coincidence._match_py``)
* ``qf_toeplitz``: Toeplitz hashing of a range of blocks of a packed
  stream, with the GIL released, one carry-less middle product of the seed
  and each block (``extract._FftHasher``, block by block);
  ``qf_middle_product`` runs that product on each base case, the portable
  one, pclmul's or AVX-512's (whichever this CPU has), for tests
* ``qf_bit_stats``: every integer statistic of one battery sequence in one
  pass over its packed bits: ones, transitions, block ones, longest runs,
  cumulative-sum maxima and cyclic pattern counts
  (``randtests._bit_stats_py``, the numpy statistics test by test)

Every kernel takes its arrays as raw addresses (``c_void_p``, typed in
:data:`KERNELS`), which its Python wrapper gets from :func:`address`; that
checks dtype, contiguity and size first.

The system ``gcc`` compiles the source into a per-user cache directory,
``$XDG_CACHE_HOME/qrng_forge`` (``~/.cache/qrng_forge`` by default). The
library's file name hashes the source, the compiler, the flags and the
machine type, so an edited source builds a new library, while a second
process loads the one already built. The library links nothing of numpy's,
so its draws do not depend on numpy's version. A build is written to a
temporary file and renamed into place, so a process never loads a partial
library.

:func:`library` returns None, after one warning per process, when no
compiler works; callers then run their numpy reference kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
#: -std=c99 keeps floating-point contraction off, which the ported samplers'
#: exp and log1p paths need to draw numpy's doubles exactly.
CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")
LIBS = ("-lm",)


_N = ctypes.c_int64
_P = ctypes.c_void_p
_U64 = ctypes.c_uint64
_F64 = ctypes.c_double

#: Every kernel of ``_kernels.c``: its argument types and its return type.
KERNELS = {
    "qf_simulate": ([_U64, _N, _N, _F64, _P, _P, _F64, _P, _N, _N, _N, _N, _P, _P, _N, _P], _N),
    "qf_slice_key": ([_U64, _U64, _P], None),
    "qf_sample": ([_U64, _U64, _N, _U64, _U64, _F64, _N, _P, _P], _N),
    "qf_slice_sort": ([_P, _P, _N, _P, _P], None),
    "qf_settle": ([_P, _P, _N], ctypes.c_int),
    "qf_dead_time": ([_P, _P, _N, _N], _N),
    "qf_coincide": ([_P, _P, _N, _N, _P, _P, _P, _P, _P], _N),
    "qf_toeplitz": ([_P, _P, _N, _N, _N, _N, _P], _N),
    "qf_middle_product": ([_P, _P, _N, _N, _P], _N),
    "qf_bit_stats": ([_P, _N, _N, _N, _N, _N, _N, _N, _P, _P, _P, _P], _N),
}


class NativeKernelWarning(RuntimeWarning):
    """The C kernels could not be built or loaded; numpy kernels run instead."""


def _library_key(gcc: str) -> str:
    """The cache key of a build. It hashes the source, the compiler, the
    machine type and gcc's arguments; not the source's path, so that every
    copy of one source shares a build."""
    return hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), gcc.encode(), platform.machine().encode(),
                    *(arg.encode() for arg in (*CFLAGS, *LIBS))])
    ).hexdigest()[:20]


def _built_library(gcc: str) -> Path:
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qrng_forge"
    target = cache / f"kernels-{_library_key(gcc)}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([gcc, "-o", tmp, str(SOURCE), *CFLAGS, *LIBS],
                       check=True, capture_output=True, text=True, timeout=120)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@lru_cache(maxsize=None)
def library() -> ctypes.CDLL | None:
    """The loaded kernel library, or None when it cannot be built here."""
    gcc = shutil.which("gcc")
    try:
        if gcc is None:
            raise FileNotFoundError("gcc not found on PATH")
        lib = ctypes.CDLL(str(_built_library(gcc)))
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"C kernels unavailable, numpy kernels run instead: {detail}",
                      NativeKernelWarning, stacklevel=2)
        return None
    for name, (argtypes, restype) in KERNELS.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def address(arr: np.ndarray, dtype, size: int, writable: bool = False) -> int:
    """The data address of ``arr``, to pass as a raw-pointer kernel argument.

    Raises ValueError unless ``arr`` is a C-contiguous ndarray of ``dtype``
    holding at least ``size`` items (and, with ``writable``, one that may be
    written), so a kernel that reads or writes ``size`` items stays inside it.
    """
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.flags.c_contiguous):
        raise ValueError(f"kernel argument must be a C-contiguous {np.dtype(dtype)} array")
    if arr.size < size:
        raise ValueError(f"kernel buffer holds {arr.size} items, needs {size}")
    if writable and not arr.flags.writeable:
        raise ValueError("kernel output buffer is read-only")
    return arr.ctypes.data


def workers(jobs: int) -> int:
    """Threads to run ``jobs`` independent kernel calls on: one per CPU this
    process may run on, at most one per job, at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, jobs))
