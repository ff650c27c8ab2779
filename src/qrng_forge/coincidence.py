"""Streaming coincidence matching, count statistics, and raw-bit assignment.

The matcher is exact: every tag joins at most one coincidence, the number
of coincidences is the maximum possible within the window, and among
those matchings it takes one of minimum total |t_b - t_a|. A gap of more
than tau between consecutive tags in merged time order cannot be crossed
by any match, so such gaps cut the streams into independent clusters. A
cluster of one tag from each side is a match; at physical densities
almost every cluster is one, and a C scan (``_kernels.c``) finds them in
bulk. Every other cluster holding both sides goes to an assignment solver
(``scipy.optimize.linear_sum_assignment``).

Bits follow the section table: a (D1, U2) coincidence is 0, a (D2, U1)
coincidence is 1, everything else carries no bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import _native
from .timetags import SECTION_PAIRS, Channel, TagStream


@dataclass(frozen=True)
class CoincidenceConfig:
    """Matching parameters: symmetric closed window |tA - tB| <= window_tau.

    The policy is fixed: single-use tags, maximum number of coincidences,
    then minimum total |tA - tB|.
    """

    window_tau: int = 1000  # ps; 1 ns default

    def __post_init__(self):
        if self.window_tau < 1:
            raise ValueError("window_tau must be >= 1 ps")

    @property
    def tau_seconds(self) -> float:
        return self.window_tau * 1e-12


@dataclass(frozen=True)
class CoincidenceEvent:
    """One matched tag pair: earlier timestamp, channel pair, signed delta."""

    time: int
    pair: tuple[Channel, Channel]
    delta: int  # t_b - t_a, in ps


@dataclass(frozen=True)
class RawBitRecord:
    time: int
    bit: int
    source_pair: tuple[Channel, Channel]


#: Rows of multi-tag cluster bounds returned per call of the C scan.
_SCAN_CAP = 1 << 16


def _cluster_scan_np(ta, tb, tau):
    """Gap-tau cluster scan in numpy: the reference for the C kernel.

    Returns ``(ia, ib, bounds)``: the index pairs of the clusters holding
    exactly one tag of each side, and one row ``[a0, a1, b0, b1]`` (tags
    ``ta[a0:a1]`` and ``tb[b0:b1]``) for every other cluster holding both
    sides, each in time order.
    """
    if not ta.size or not tb.size:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 4), np.int64)
    t = np.concatenate([ta, tb])
    order = np.argsort(t, kind="stable")
    cuts = np.flatnonzero(np.diff(t[order]) > tau) + 1
    starts = np.concatenate([[0], cuts])
    nb_c = np.add.reduceat((order >= ta.size).astype(np.int64), starts)
    na_c = np.diff(np.concatenate([starts, [t.size]])) - nb_c
    a0 = np.cumsum(na_c) - na_c
    b0 = np.cumsum(nb_c) - nb_c
    single = (na_c == 1) & (nb_c == 1)
    multi = (na_c > 0) & (nb_c > 0) & ~single
    bounds = np.stack(
        [a0[multi], a0[multi] + na_c[multi], b0[multi], b0[multi] + nb_c[multi]], axis=1
    )
    return a0[single], b0[single], bounds


def _cluster_scan_c(lib, ta, tb, tau):
    """The same scan as :func:`_cluster_scan_np`, in ``qf_cluster_scan``."""
    cap = min(ta.size, tb.size)
    ia = np.empty(cap, np.int64)
    ib = np.empty(cap, np.int64)
    state = np.zeros(3, np.int64)  # a cursor, b cursor, matches written
    buf = np.empty((_SCAN_CAP, 4), np.int64)
    parts = []
    while True:
        rows = lib.qf_cluster_scan(ta, ta.size, tb, tb.size, tau, state, ia, ib, buf, _SCAN_CAP)
        parts.append(buf[:rows].copy())
        if rows < _SCAN_CAP:
            break
    k = int(state[2])
    return ia[:k], ib[:k], np.concatenate(parts)


def _solve_clusters(ta, tb, tau, bounds):
    """Exact matching inside each multi-tag cluster.

    A pair inside the window costs |delta| - big, any other pair 0, with
    big larger than the total |delta| of any matching in the cluster, so
    a minimum-cost assignment holds the most in-window pairs and, among
    those, the least total |delta|. Returns index pairs cluster by cluster.
    """
    pa, pb = [], []
    for a0, a1, b0, b1 in bounds.tolist():
        d = np.abs(tb[b0:b1][None, :] - ta[a0:a1][:, None])
        inside = d <= tau
        big = (a1 - a0 + b1 - b0) * tau + 1
        rows, cols = linear_sum_assignment(np.where(inside, d - big, 0))
        keep = inside[rows, cols]
        pa.append(rows[keep] + a0)
        pb.append(cols[keep] + b0)
    return np.concatenate(pa), np.concatenate(pb)


def _match(ta, tb, tau):
    """Indices (ia, ib) of the exact matching, in coincidence-time order."""
    lib = _native.library()
    if lib is None:
        ia, ib, bounds = _cluster_scan_np(ta, tb, tau)
    else:
        ia, ib, bounds = _cluster_scan_c(lib, ta, tb, tau)
    if not len(bounds):
        return ia, ib
    ca, cb = _solve_clusters(ta, tb, tau, bounds)
    ia = np.concatenate([ia, ca])
    ib = np.concatenate([ib, cb])
    # the bulk matches are one time-sorted run, which the stable sort
    # (timsort) merges with the cluster matches in near-linear time
    order = np.argsort(np.minimum(ta[ia], tb[ib]), kind="stable")
    return ia[order], ib[order]


class CoincidenceList(Sequence):
    """Columnar list of coincidences (times, channel codes, deltas).

    Behaves as a sequence of :class:`CoincidenceEvent` while keeping bulk
    data in numpy arrays; matching at full rate cannot afford per-event
    objects.
    """

    __slots__ = ("times", "ch_a", "ch_b", "deltas")

    def __init__(self, times, ch_a, ch_b, deltas):
        self.times = np.ascontiguousarray(times, dtype=np.int64)
        self.ch_a = np.ascontiguousarray(ch_a, dtype=np.uint8)
        self.ch_b = np.ascontiguousarray(ch_b, dtype=np.uint8)
        self.deltas = np.ascontiguousarray(deltas, dtype=np.int64)

    @classmethod
    def empty(cls) -> "CoincidenceList":
        z = np.empty(0, np.int64)
        return cls(z, np.empty(0, np.uint8), np.empty(0, np.uint8), z)

    @classmethod
    def from_events(cls, events: Sequence[CoincidenceEvent]) -> "CoincidenceList":
        return cls(
            [e.time for e in events],
            [int(e.pair[0]) for e in events],
            [int(e.pair[1]) for e in events],
            [e.delta for e in events],
        )

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, i) -> CoincidenceEvent:
        if isinstance(i, slice):
            return CoincidenceList(
                self.times[i], self.ch_a[i], self.ch_b[i], self.deltas[i]
            )
        return CoincidenceEvent(
            int(self.times[i]),
            (Channel(int(self.ch_a[i])), Channel(int(self.ch_b[i]))),
            int(self.deltas[i]),
        )

    def __iter__(self) -> Iterator[CoincidenceEvent]:
        for i in range(len(self)):
            yield self[i]


def find_coincidences(
    a: TagStream | np.ndarray,
    b: TagStream | np.ndarray,
    cfg: CoincidenceConfig,
    channel_a: Channel | None = None,
    channel_b: Channel | None = None,
) -> CoincidenceList:
    """Match tags of stream ``a`` against stream ``b`` exactly.

    Every tag joins at most one coincidence; the matching holds the most
    pairs with |t_b - t_a| <= window_tau and, among those, the least total
    |t_b - t_a|. Accepts TagStreams (channel labels read from the tags; pass
    single-channel streams) or bare sorted timestamp arrays with explicit
    channel labels. Output is sorted by coincidence time; ``delta`` is
    t_b - t_a.
    """
    if isinstance(a, TagStream):
        ta = a.timestamps
        ca = a.channels
    else:
        ta = np.ascontiguousarray(a, dtype=np.int64)
        ca = None
    if isinstance(b, TagStream):
        tb = b.timestamps
        cb = b.channels
    else:
        tb = np.ascontiguousarray(b, dtype=np.int64)
        cb = None

    ia, ib = _match(ta, tb, int(cfg.window_tau))
    times = np.minimum(ta[ia], tb[ib])
    deltas = tb[ib] - ta[ia]
    if ca is not None:
        ch_a = ca[ia]
    else:
        code = int(channel_a) if channel_a is not None else 0
        ch_a = np.full(ia.size, code, dtype=np.uint8)
    if cb is not None:
        ch_b = cb[ib]
    else:
        code = int(channel_b) if channel_b is not None else 0
        ch_b = np.full(ib.size, code, dtype=np.uint8)
    return CoincidenceList(times, ch_a, ch_b, deltas)


def count_matrix(merged: TagStream, cfg: CoincidenceConfig) -> np.ndarray:
    """6x6 symmetric matrix of per-pair coincidence counts, zero diagonal.

    Each unordered channel pair is matched independently against the full
    window policy, so a tag may contribute to several pairs' statistics;
    bit assignment (single use within a pair) is unaffected.
    """
    per_channel = [merged.channel_times(ch) for ch in Channel]
    out = np.zeros((6, 6), dtype=np.int64)
    for i in range(6):
        for j in range(i + 1, 6):
            n = len(
                find_coincidences(
                    per_channel[i], per_channel[j], cfg,
                    channel_a=Channel(i), channel_b=Channel(j),
                )
            )
            out[i, j] = out[j, i] = n
    return out


def accidental_rate(rate_a: float, rate_b: float, cfg: CoincidenceConfig) -> float:
    """Expected accidental coincidence rate 2*tau*Ra*Rb in Hz.

    The factor 2 is the full window width, since |tA - tB| <= tau accepts
    partners on both sides.
    """
    if rate_a < 0 or rate_b < 0:
        raise ValueError("rates must be >= 0")
    return 2.0 * cfg.tau_seconds * rate_a * rate_b


#: Bit of a (ch_a, ch_b) coincidence at index ch_a * 8 + ch_b: 0 for
#: (D1, U2) in either order, 1 for (D2, U1) in either order, 2 for no bit.
_BIT_OF_PAIR = np.full(64, 2, np.uint8)
_BIT_OF_PAIR[[Channel.D1 * 8 + Channel.U2, Channel.U2 * 8 + Channel.D1]] = 0
_BIT_OF_PAIR[[Channel.D2 * 8 + Channel.U1, Channel.U1 * 8 + Channel.D2]] = 1


class RawBits(Sequence):
    """Chronological raw bits with their timestamps (columnar)."""

    __slots__ = ("times", "bits")

    def __init__(self, times, bits):
        self.times = np.ascontiguousarray(times, dtype=np.int64)
        self.bits = np.ascontiguousarray(bits, dtype=np.uint8)

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, i) -> RawBitRecord:
        if isinstance(i, slice):
            return RawBits(self.times[i], self.bits[i])
        bit = int(self.bits[i])
        pair = (Channel.D1, Channel.U2) if bit == 0 else (Channel.D2, Channel.U1)
        return RawBitRecord(int(self.times[i]), bit, pair)

    def __iter__(self) -> Iterator[RawBitRecord]:
        for i in range(len(self)):
            yield self[i]


def assign_bits(coincidences: CoincidenceList | Sequence[CoincidenceEvent]) -> RawBits:
    """Map coincidences to raw bits: (D1, U2) -> 0, (D2, U1) -> 1.

    All other channel pairs are dropped. Output keeps chronological
    order; equal timestamps order the 0-bit pair first.
    """
    if not isinstance(coincidences, CoincidenceList):
        coincidences = CoincidenceList.from_events(list(coincidences))
    bit = _BIT_OF_PAIR[coincidences.ch_a.astype(np.intp) * 8 + coincidences.ch_b]
    keep = bit < 2
    times = coincidences.times[keep]
    bits = bit[keep]
    order = np.lexsort((bits, times))
    return RawBits(times[order], bits[order])


def concat_coincidences(lists: Sequence[CoincidenceList]) -> CoincidenceList:
    """Merge several coincidence lists into one, sorted by time (stable)."""
    if not lists:
        return CoincidenceList.empty()
    times = np.concatenate([c.times for c in lists])
    ch_a = np.concatenate([c.ch_a for c in lists])
    ch_b = np.concatenate([c.ch_b for c in lists])
    deltas = np.concatenate([c.deltas for c in lists])
    order = np.argsort(times, kind="stable")
    return CoincidenceList(times[order], ch_a[order], ch_b[order], deltas[order])


def coincidence_summary(
    merged: TagStream, cfg: CoincidenceConfig, counts: dict[tuple[Channel, Channel], int]
) -> dict:
    """Pair counts, analytic accidentals, and CAR for the section pairs.

    ``counts`` holds the coincidences of each section pair as matched,
    keyed by its channel pair in either order; the count of a maximum
    matching does not depend on which side is ``a``.
    """
    duration_s = merged.duration * 1e-12
    # sizes of the per-channel split the matching made: no pass over the tags
    singles = {ch: int(merged.channel_times(ch).size) for ch in Channel}
    summary: dict = {
        "window_tau_ps": cfg.window_tau,
        "duration_s": duration_s,
        "singles": {ch.name: n for ch, n in singles.items()},
        "pairs": {},
    }
    for ca, cb in SECTION_PAIRS:
        n = int(counts[(ca, cb)] if (ca, cb) in counts else counts[(cb, ca)])
        ra = singles[ca] / duration_s if duration_s > 0 else 0.0
        rb = singles[cb] / duration_s if duration_s > 0 else 0.0
        acc_hz = accidental_rate(ra, rb, cfg)
        acc_counts = acc_hz * duration_s
        summary["pairs"][f"{ca.name}-{cb.name}"] = {
            "coincidences": n,
            "accidental_rate_hz": acc_hz,
            "car": (n / acc_counts) if acc_counts > 0 else float("inf"),
        }
    return summary
