"""C kernels for the three hot loops, built from ``_kernels.c`` on first use.

The kernels and the numpy references they must match bit for bit:

* ``qf_split_channels``: one-pass channel split of a tag stream
  (``timetags._split_channels_np``)
* ``qf_match``: the exact coincidence matcher, a gap-tau cluster scan with
  a banded DP per pileup cluster (``coincidence._match_py``, whose DP is a
  full table)
* ``qf_fr_accumulate``: four-Russians Toeplitz accumulate
  (``extract._fr_accumulate_py``)

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


class NativeKernelWarning(RuntimeWarning):
    """The C kernels could not be built or loaded; numpy kernels run instead."""


def _built_library(gcc: str) -> Path:
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), gcc.encode(), platform.machine().encode(),
                    *(flag.encode() for flag in CFLAGS)])
    ).hexdigest()[:20]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qrng_forge"
    target = cache / f"kernels-{key}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([gcc, *CFLAGS, "-o", tmp, str(SOURCE)],
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
    lib.qf_split_channels.argtypes = [i64, u8, n, i64, i64]
    lib.qf_split_channels.restype = None
    lib.qf_match.argtypes = [i64, n, i64, n, n, i64, i64]
    lib.qf_match.restype = n
    lib.qf_fr_accumulate.argtypes = [u8, n, u8, n, n, u8]
    lib.qf_fr_accumulate.restype = None
    return lib
