"""C kernels for the hot loops, built from ``_kernels.c`` on first use.

The kernels and the numpy references they must match bit for bit:

* ``qf_slice_signal``, ``qf_thin`` and ``qf_jitter``: one source slice's
  signal tags, efficiency thinning and timing jitter (``source._slice_py``,
  the per-slice numpy code)
* ``qf_slice_keys`` and ``qf_slice_unpack``: a slice's tags packed with
  their rank in the slice, for a value sort in numpy, and unpacked into
  the output (``source._slice_order``)
* ``qf_settle``: the insertion pass that settles the concatenated slices
  into one time-ordered stream (``source._settle_py``, a stable argsort)
* ``qf_dead_time``: per-channel dead time (``source._dead_time_keep_py``)
* ``qf_split_channels``: one-pass channel split of a tag stream
  (``timetags._split_channels_np``)
* ``qf_match``: the exact coincidence matcher, a gap-tau cluster scan with
  a banded DP per pileup cluster (``coincidence._match_py``, whose DP is a
  full table)
* ``qf_toeplitz``: Toeplitz hashing of a whole packed stream, one
  carry-less polynomial product per block (``extract._FftHasher``, block by
  block); ``qf_clmul`` exposes its product with either word multiply, the
  portable one or pclmul, for tests
* ``qf_bit_stats``: every integer statistic of one battery sequence in one
  pass over its packed bits: ones, transitions, block ones, longest runs,
  cumulative-sum maxima and cyclic pattern counts
  (``randtests._bit_stats_py``, the numpy statistics test by test)

The kernels called once per slice or per stream take raw
addresses (``c_void_p``) rather than ``ndpointer`` arguments, whose
conversion costs several microseconds per array. Their Python wrappers get
each address from :func:`address`, which checks dtype, contiguity and size
first, so no check is lost.

The system ``gcc`` compiles the source into a per-user cache directory,
``$XDG_CACHE_HOME/qrng_forge`` (``~/.cache/qrng_forge`` by default). The
library's file name hashes the source, the compiler, the flags and the
machine type, so an edited source builds a new library while a second
process loads the one already built. A build is written to a temporary
file and renamed into place, so a process never loads a partial library.

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
CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")
LIBS = ("-lm",)


class NativeKernelWarning(RuntimeWarning):
    """The C kernels could not be built or loaded; numpy kernels run instead."""


def _built_library(gcc: str) -> Path:
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), gcc.encode(), platform.machine().encode(),
                    *(flag.encode() for flag in CFLAGS + LIBS)])
    ).hexdigest()[:20]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qrng_forge"
    target = cache / f"kernels-{key}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([gcc, *CFLAGS, "-o", tmp, str(SOURCE), *LIBS],
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
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    n = ctypes.c_int64
    p = ctypes.c_void_p
    for name, argtypes, restype in (
        ("qf_slice_signal", [p, p, n, p, n, p, n, n, p, p], n),
        ("qf_thin", [p, p, n, p, p], n),
        ("qf_jitter", [p, n, p, ctypes.c_double, n], None),
        ("qf_slice_keys", [p, p, n, n, p, p], ctypes.c_int),
        ("qf_slice_unpack", [p, n, n, p, p], None),
        ("qf_settle", [p, p, n, n], ctypes.c_int),
        ("qf_dead_time", [p, p, n, n], n),
        ("qf_split_channels", [i64, u8, n, i64, i64], None),
        ("qf_match", [i64, n, i64, n, n, i64, i64], n),
        ("qf_toeplitz", [p, p, n, n, n, p], n),
        ("qf_clmul", [p, p, n, n, p], n),
        ("qf_bit_stats", [p, n, n, n, n, n, n, n, p, p, p, p], n),
    ):
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
