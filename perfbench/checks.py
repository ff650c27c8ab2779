"""Output checks that any correct ``qrng_forge`` passes, and input properties.

Files are decoded here from their documented layouts, not with the
package's readers, and the Toeplitz reference is the GF(2) matrix
definition itself, so a fault in the package's codecs or hashers cannot
hide in its own check. No check compares against a digest of today's
output: a different but correct matcher or extractor passes them all.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_QTT1_HEADER = struct.Struct("<4sHHQQ")
_QTT1_RECORD = np.dtype([("t", "<u8"), ("ch", "u1")])

#: Channel codes of the three diametric section pairs (U1-D2, U2-D1, C1-C2)
#: and the two of them that carry bits.
SECTION_PAIRS = ((0, 3), (1, 2), (4, 5))
BIT_PAIRS = SECTION_PAIRS[:2]

#: Bytes of float32 matrix the Toeplitz reference holds at once.
_REFERENCE_CHUNK_BYTES = 32 << 20


class CheckFailed(Exception):
    """An output violates a property every correct program has."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_bits(path) -> np.ndarray:
    """Bit file: packed MSB-first, logical length in ``<path>.json``."""
    n = json.loads(Path(f"{path}.json").read_text())["bits"]
    return np.unpackbits(np.fromfile(path, dtype=np.uint8), count=n)


def write_bits(bits: np.ndarray, path) -> None:
    Path(path).write_bytes(np.packbits(bits).tobytes())
    Path(f"{path}.json").write_text(json.dumps({"bits": int(bits.size)}))


def read_tags(path) -> tuple[np.ndarray, np.ndarray, int]:
    """QTT1 tag file -> (int64 timestamps, uint8 channels, duration ps)."""
    data = Path(path).read_bytes()
    magic, _, _, duration, count = _QTT1_HEADER.unpack_from(data)
    require(magic == b"QTT1", f"{path}: bad magic {magic!r}")
    rec = np.frombuffer(data, _QTT1_RECORD, count=count, offset=_QTT1_HEADER.size)
    return rec["t"].astype(np.int64), rec["ch"].copy(), int(duration)


def bit_stats(bits: np.ndarray) -> dict:
    """Bias p1 - 1/2 and the most-common-value min-entropy per bit."""
    p1 = float(bits.mean()) if bits.size else 0.5
    p_max = max(p1, 1.0 - p1)
    return {"bias": p1 - 0.5, "h_min": -math.log2(p_max) if p_max < 1.0 else 0.0}


def check_matching(ta: np.ndarray, tb: np.ndarray, tau: int, matched) -> None:
    """Every |delta| <= tau, and no tag of ``ta`` or ``tb`` is used twice.

    ``matched`` is a CoincidenceList (times = min(ta, tb), deltas = tb - ta).
    A timestamp that occurs k times in the input may be used at most k times.
    """
    deltas = np.asarray(matched.deltas, dtype=np.int64)
    times = np.asarray(matched.times, dtype=np.int64)
    require(bool(np.all(np.abs(deltas) <= tau)), f"a coincidence has |delta| > tau = {tau} ps")
    used_a = np.where(deltas >= 0, times, times - deltas)
    used_b = used_a + deltas
    for used, pool, side in ((used_a, ta, "a"), (used_b, tb, "b")):
        values, uses = np.unique(used, return_counts=True)
        present = np.searchsorted(pool, values, "right") - np.searchsorted(pool, values, "left")
        require(bool(np.all(uses <= present)), f"a {side}-side tag is used twice or is not an input tag")


def multi_tag_cluster_share(pairs: list[tuple[np.ndarray, np.ndarray]], tau: int) -> float:
    """Share of section-pair tags in gap-tau clusters of 2+ tags other than 1a+1b.

    Consecutive tags (in merged time order of one section pair) more than
    tau apart can never be matched to each other, so the gaps cut the
    stream into independent clusters; a cluster other than one a-tag
    plus one b-tag is a pileup in which the matcher has a choice to make.
    """
    in_multi = total = 0
    for ta, tb in pairs:
        t = np.concatenate([ta, tb])
        if t.size == 0:
            continue
        side = np.concatenate([np.zeros(ta.size, np.int64), np.ones(tb.size, np.int64)])
        order = np.argsort(t, kind="stable")
        t, side = t[order], side[order]
        cid = np.cumsum(np.concatenate([[True], np.diff(t) > tau])) - 1
        size = np.bincount(cid)
        n_b = np.bincount(cid, weights=side)
        multi = (size >= 2) & ~((size == 2) & (n_b == 1))
        in_multi += int(size[multi].sum())
        total += int(t.size)
    return in_multi / total if total else 0.0


def raw_bit_bound(rates, duration_s: float, tau_ps: int, jitter_ps: float) -> tuple[float, float]:
    """Expected raw-bit count and the allowed deviation for a correct matcher.

    ``rates`` is ``qrng_forge.expected_rates``' summary. Expected: the
    true bit-pair rate times the chance that two Gaussian jitters (sigma
    each) differ by at most tau. Allowed deviation: five Poisson standard
    deviations plus twice the accidental count 2*tau*Ra*Rb*T, since each
    accidental match can add a bit or take a true pair's place.
    """
    keep = math.erf(tau_ps / (2.0 * jitter_ps)) if jitter_ps > 0 else 1.0
    singles = {int(ch): hz for ch, hz in rates.singles.items()}
    pair_hz = {frozenset(map(int, key)): hz for key, hz in rates.coincidences.items()}
    expected = accidental = 0.0
    for a, b in BIT_PAIRS:
        expected += pair_hz[frozenset((a, b))] * duration_s * keep
        accidental += 2.0 * tau_ps * 1e-12 * singles[a] * singles[b] * duration_s
    return expected, 5.0 * math.sqrt(expected) + 2.0 * accidental


def toeplitz_rows(seed_bits: np.ndarray, x: np.ndarray, m: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of y = T x over GF(2), T[i][j] = seed[m-1-i+j].

    Row i of T is the seed window seed[m-1-i : m-1-i+n]. Sums of at most
    n < 2**24 ones are exact in float32.
    """
    n = x.size
    windows = sliding_window_view(seed_bits[: n + m - 1], n)
    xf = x.astype(np.float32)
    step = max(1, _REFERENCE_CHUNK_BYTES // (4 * n))
    out = np.empty(rows.size, np.uint8)
    for lo in range(0, rows.size, step):
        block = windows[m - 1 - rows[lo:lo + step]].astype(np.float32)
        out[lo:lo + step] = np.rint(block @ xf).astype(np.int64) & 1
    return out


def check_extraction(out_dir: Path, raw: np.ndarray, seed_file: Path,
                     epsilon: float, block: int, max_rows: int) -> dict:
    """Check one Toeplitz block and the output sizing of an extraction.

    * the extractor seed is the prefix of ``seed_file`` (derived from --seed)
    * output length is blocks * m, with 1 <= m <= n*h - 2*log2(1/eps) for
      the raw bits' most-common-value entropy h (never more than the
      point estimate allows)
    * block ``block % blocks`` equals the GF(2) matrix product, on every
      row when m <= ``max_rows`` and otherwise on ``max_rows`` rows
      spread over the block, first and last included
    """
    report = json.loads((out_dir / "ratio_report.json").read_text())
    n, m = int(report["n"]), int(report["m"])
    out = read_bits(out_dir / "extracted.bits")
    seed = np.unpackbits(np.fromfile(out_dir / "toeplitz_seed.bin", dtype=np.uint8))[: n + m - 1]
    given = np.unpackbits(np.fromfile(seed_file, dtype=np.uint8))[: n + m - 1]
    require(np.array_equal(seed, given), "extractor seed is not the seed file's prefix")
    blocks = raw.size // n
    h = bit_stats(raw)["h_min"]
    require(1 <= m <= math.floor(n * h - 2.0 * math.log2(1.0 / epsilon) + 1e-9),
            f"m = {m} exceeds the leftover-hash budget for n = {n}, h = {h:.6f}")
    require(out.size == blocks * m, f"{out.size} output bits, expected {blocks} blocks x {m}")
    k = block % blocks
    if m <= max_rows:
        rows = np.arange(m)
    else:
        rows = np.unique(np.linspace(0, m - 1, max_rows).astype(np.int64))
    y = toeplitz_rows(seed, raw[k * n:(k + 1) * n], m, rows)
    require(np.array_equal(y, out[k * m:(k + 1) * m][rows]),
            f"block {k} differs from the GF(2) Toeplitz product")
    return {"ratio": m / n, "bits_in": blocks * n, "bits_out": int(out.size)}


def certification(out_dir: Path) -> dict:
    """Block count, share of certified blocks, min S - 3 sigma, run S."""
    report = json.loads((out_dir / "cert_report.json").read_text())
    blocks = report["blocks"]
    margins = [b["S"] - 3.0 * b["S_stderr"] for b in blocks if b["S"] is not None]
    return {
        "verdict": report["verdict"],
        "S": report.get("S_run"),
        "S_stderr": report.get("S_run_stderr"),
        "blocks": len(blocks),
        "certified_share": sum(b["verdict"] != "UNCERTIFIED" for b in blocks) / max(len(blocks), 1),
        "min_margin": min(margins) if margins else 0.0,
    }
