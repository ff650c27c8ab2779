"""Run the tests against a build of the C kernels with UBSan.

    python tests/ubsan.py [pytest arguments]

Appends ``-fsanitize=undefined -fno-sanitize-recover=all`` to
``_native.CFLAGS`` before any test loads the kernels, and builds them into a
fresh cache directory, so that no library built without the sanitizer is
loaded. pytest runs with ``--capture=sys``: the sanitizer writes to the
process's own stderr, which then reaches the log, and its first diagnostic
ends the run with exit code 1.
"""

import os
import sys
import tempfile
from pathlib import Path

SANITIZE = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


def main(args: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory(prefix="qrng-ubsan-") as cache:
        os.environ["XDG_CACHE_HOME"] = cache
        from qrng_forge import _native

        _native.CFLAGS = (*_native.CFLAGS, *SANITIZE)
        import pytest

        return pytest.main(["-q", "--capture=sys", *args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
