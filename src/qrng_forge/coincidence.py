"""Streaming coincidence matching, count statistics, and raw-bit assignment.

The matcher is exact: every tag joins at most one coincidence, the number
of coincidences is the maximum possible within the window, and among
those matchings it takes one of minimum total |t_b - t_a|. A gap of more
than tau between consecutive tags in merged time order cannot be crossed
by any match, so such gaps cut the streams into independent clusters. A
cluster of one tag from each side is a match; at physical densities
almost every cluster is one. Every other cluster holding both sides is
solved by a dynamic programme over (a-tags used, b-tags used): some
optimal matching never crosses (for a1 < a2 and b1 < b2 the uncrossed
pairs cost no more and stay inside the window), so no assignment solver
is needed. Where several matchings are optimal, the tie rule picks one:
walking back from the cluster's last tags, leave the last a-tag unmatched
if that keeps the optimum, else leave the last b-tag unmatched, else
match the two. The C kernel ``qf_match`` (``_kernels.c``) runs the scan
and a banded DP in one pass; :func:`_match_py` is its plain reference.

Bits follow the section table: a (D1, U2) coincidence is 0, a (D2, U1)
coincidence is 1, everything else carries no bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

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


def _cluster_scan_np(ta, tb, tau):
    """Gap-tau cluster scan in numpy.

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


def _solve_cluster_py(a, b, tau):
    """Index pairs (i, j) of the exact matching of one cluster, in time order.

    A full-table DP over (i, j), the best matching of ``a[:i]`` and
    ``b[:j]``, with the module's tie rule. The score count * big - cost,
    big above any total cost, orders matchings by count, then cost (held
    in Python ints where int64 could overflow); each row is the running
    maximum of its candidates.
    """
    n, m = a.size, b.size
    big = min(n, m) * tau + 1
    prev = np.zeros(m + 1, np.int64 if (min(n, m) + 1) * big < 2**63 else object)
    step = np.zeros((n + 1, m + 1), np.uint8)  # 0 leave a, 1 leave b, 2 match
    for i in range(1, n + 1):
        d = np.abs(b - a[i - 1])
        cur = prev.copy()
        cur[1:] = np.where(d <= tau, np.maximum(prev[1:], prev[:-1] + (big - d)), prev[1:])
        cur = np.maximum.accumulate(cur)
        step[i, 1:] = np.where(cur[1:] == prev[1:], 0, np.where(cur[1:] == cur[:-1], 1, 2))
        prev = cur
    pairs = []
    i, j = n, m
    while i and j:
        if step[i, j] == 0:
            i -= 1
        elif step[i, j] == 1:
            j -= 1
        else:
            i, j = i - 1, j - 1
            pairs.append((i, j))
    return pairs[::-1]


def _match_py(ta, tb, tau):
    """The matching of ``qf_match`` in numpy and Python: its reference, and
    the fallback without a compiler. Deliberately not banded."""
    ia, ib, bounds = _cluster_scan_np(ta, tb, tau)
    pairs = [(a0 + i, b0 + j) for a0, a1, b0, b1 in bounds.tolist()
             for i, j in _solve_cluster_py(ta[a0:a1], tb[b0:b1], tau)]
    ca, cb = np.array(pairs, np.int64).reshape(-1, 2).T
    ia, ib = np.concatenate([ia, ca]), np.concatenate([ib, cb])
    order = np.argsort(np.minimum(ta[ia], tb[ib]), kind="stable")
    return ia[order], ib[order]


def _match(ta, tb, tau):
    """Indices (ia, ib) of the exact matching, in coincidence-time order."""
    lib = _native.library()
    if lib is None:
        return _match_py(ta, tb, tau)
    ia = np.empty(min(ta.size, tb.size), np.int64)
    ib = np.empty_like(ia)
    k = lib.qf_match(ta, ta.size, tb, tb.size, tau, ia, ib)
    if k < 0:
        raise MemoryError("qf_match could not allocate its work space")
    return ia[:k], ib[:k]


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
    |t_b - t_a|. Ties go by the module's rule: in each cluster, walking back
    from its last tags, leave the last a-tag unmatched if that keeps the
    optimum, else the last b-tag, else match the two. Accepts TagStreams
    (channel labels read from the tags; pass single-channel streams) or bare
    sorted timestamp arrays with explicit channel labels. Output is sorted
    by coincidence time; ``delta`` is t_b - t_a.
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
