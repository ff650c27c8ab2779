"""numpy is the package's only runtime dependency: the CLI, the battery and
the FFT reference hasher run in an interpreter where scipy cannot load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import naive_toeplitz

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs in a fresh interpreter. ``sys.modules["scipy"] = None`` makes every
#: import of scipy or of a scipy submodule raise ImportError.
SCRIPT = """
import sys
sys.modules["scipy"] = None

import json
from pathlib import Path

import numpy as np

from qrng_forge.cli import main
from qrng_forge.extract import ExtractorParams, _FftHasher
from qrng_forge.timetags import BitSequence, write_bits

out = Path(sys.argv[1])
rng = np.random.Generator(np.random.Philox(5))
write_bits(BitSequence.from_bits(rng.integers(0, 2, 4000, dtype=np.uint8)), out / "in.bits")
code = main(["test", "--bits", str(out / "in.bits"), "--out", str(out),
             "--set", "battery.n_sequences=2", "--set", "battery.seq_len=2000"])

n, m = 300, 200
seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
x = rng.integers(0, 2, n, dtype=np.uint8)
y = _FftHasher(ExtractorParams(n, m, 2.0**-50, BitSequence.from_bits(seed))).extract_bits(x)

print(json.dumps({
    "code": code,
    "scipy": {k: repr(v) for k, v in sys.modules.items() if k.split(".")[0] == "scipy"},
    "seed": seed.tolist(), "x": x.tolist(), "y": y.tolist(),
}))
"""


def test_cli_battery_and_fft_run_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert got["scipy"] == {"scipy": "None"}  # the blocker, and nothing loaded past it
    report = json.loads((tmp_path / "battery_report.json").read_text())
    assert report["n_sequences"] == 2 and len(report["tests"]) == 8
    seed, x = np.array(got["seed"], np.uint8), np.array(got["x"], np.uint8)
    assert got["y"] == naive_toeplitz(seed, x, 200).tolist()
