"""Coincidence matching, count statistics, and raw-bit assignment.

Data model: a channel's detections are one sorted int64 array of
timestamps (ps). :func:`find_coincidences` matches two such arrays and
returns a :class:`CoincidenceList` of two columns in time order: the
earlier tag's time and the signed delta t_b - t_a. The list does not
carry channel labels: the caller knows which pair it matched.

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
match the two. The C kernel ``qf_coincide`` (``_kernels.c``) runs the
scan and a banded DP in one pass over a time-ordered tag stream;
:func:`_match_py`, with a full-table DP, is its plain reference.

Bits follow the section table: each (D1, U2) coincidence is a 0 and each
(D2, U1) coincidence a 1, in time order, the 0 first at equal times
(:func:`assign_bits`). The (C1, C2) coincidences carry no bit; they feed
the live Bell test.

:func:`coincide_stream` does all of that for a whole tag stream: with the
kernels built, in one call of ``qf_coincide`` (the three pairs at once) on
the calling thread; :func:`_coincide_py`, the channel split,
:func:`find_coincidences` per pair and :func:`assign_bits`, is its
reference. :func:`bell_coincidences` matches the (C1, C2) pair alone, for
certifying a stored stream: the same kernel pass, with a role table that
puts the four bit channels in no pair (their singles are still counted);
:func:`find_coincidences` on the two channels' times is its reference.
:func:`find_coincidences` itself makes that pass over its two arrays merged
into one stream, ``a`` as C1 and ``b`` as C2, with :func:`_match_py` as its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .timetags import SECTION_PAIRS, BitSequence, Channel, TagStream

#: The section pairs as :func:`coincide_stream` matches them, a-side first:
#: (D1, U2) coincidences are the 0 bits, (D2, U1) the 1 bits, and (C1, C2)
#: the live Bell test's. Which side is a matters: the tie rule in a pileup
#: leaves an a-tag unmatched first.
STREAM_PAIRS = tuple((a, a.partner) for a in (Channel.D1, Channel.D2, Channel.C1))

#: ``qf_coincide``'s role of each channel code c: 2p + s puts c on side s
#: (0 for a, 1 for b) of pair p of :data:`STREAM_PAIRS`.
_ROLE = np.zeros(6, np.uint8)
_ROLE[[c for pair in STREAM_PAIRS for c in pair]] = range(6)
_ROLE.setflags(write=False)
#: The roles of :func:`bell_coincidences`: C1 and C2 keep theirs, and role 6
#: leaves every other channel counted and in no pair.
_BELL_ROLE = np.where(_ROLE >= 4, _ROLE, 6).astype(np.uint8)
_BELL_ROLE.setflags(write=False)


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


def _cluster_sizes(ta, tb, tau):
    """The a-tags and the b-tags in each gap-tau cluster of ``ta`` and ``tb``
    merged, as two arrays in time order."""
    t = np.concatenate([ta, tb])
    if not t.size:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.argsort(t, kind="stable")
    t = t[order].view(np.uint64)  # in time order, each gap is t[i + 1] - t[i] mod 2**64
    starts = np.concatenate([[0], np.flatnonzero(t[1:] - t[:-1] > tau) + 1])
    nb_c = np.add.reduceat((order >= ta.size).astype(np.int64), starts)
    return np.diff(np.append(starts, t.size)) - nb_c, nb_c


def _cluster_scan_np(ta, tb, tau):
    """Gap-tau cluster scan in numpy.

    Returns ``(ia, ib, bounds)``: the index pairs of the clusters holding
    exactly one tag of each side, and one row ``[a0, a1, b0, b1]`` (tags
    ``ta[a0:a1]`` and ``tb[b0:b1]``) for every other cluster holding both
    sides, each in time order.
    """
    if not ta.size or not tb.size:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 4), np.int64)
    na_c, nb_c = _cluster_sizes(ta, tb, tau)
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
    maximum of its candidates. The walk-back choice of each cell is kept
    in two packed bit planes, "leave a" and "leave b"; neither is a match.
    """
    n, m = a.size, b.size
    big = min(n, m) * tau + 1
    prev = np.zeros(m + 1, np.int64 if (min(n, m) + 1) * big < 2**63 else object)
    leave_a = np.empty((n, (m + 7) // 8), np.uint8)
    leave_b = np.empty_like(leave_a)
    for i in range(n):
        d = np.abs(b - a[i])
        cur = prev.copy()
        cur[1:] = np.where(d <= tau, np.maximum(prev[1:], prev[:-1] + (big - d)), prev[1:])
        cur = np.maximum.accumulate(cur)
        leave_a[i] = np.packbits(cur[1:] == prev[1:])
        leave_b[i] = np.packbits(cur[1:] == cur[:-1])  # read only where leave_a is 0
        prev = cur
    pairs = []
    i, j = n, m
    while i and j:
        byte, shift = (j - 1) >> 3, 7 - ((j - 1) & 7)
        if leave_a[i - 1, byte] >> shift & 1:
            i -= 1
        elif leave_b[i - 1, byte] >> shift & 1:
            j -= 1
        else:
            i, j = i - 1, j - 1
            pairs.append((i, j))
    return pairs[::-1]


def _match_py(ta, tb, tau):
    """Indices (ia, ib) of the exact matching, in coincidence-time order, in
    numpy and Python: the reference of ``qf_coincide``'s matching, and
    :func:`find_coincidences` without a compiler. Deliberately not banded."""
    ia, ib, bounds = _cluster_scan_np(ta, tb, tau)
    pairs = [(a0 + i, b0 + j) for a0, a1, b0, b1 in bounds.tolist()
             for i, j in _solve_cluster_py(ta[a0:a1], tb[b0:b1], tau)]
    ca, cb = np.array(pairs, np.int64).reshape(-1, 2).T
    ia, ib = np.concatenate([ia, ca]), np.concatenate([ib, cb])
    order = np.argsort(np.minimum(ta[ia], tb[ib]), kind="stable")
    return ia[order], ib[order]


class CoincidenceList:
    """The coincidences of one channel pair, as two int64 columns in time
    order: ``times`` (the earlier tag of each pair) and ``deltas``
    (t_b - t_a, in ps)."""

    __slots__ = ("times", "deltas")

    def __init__(self, times, deltas):
        self.times = np.ascontiguousarray(times, dtype=np.int64)
        self.deltas = np.ascontiguousarray(deltas, dtype=np.int64)

    @classmethod
    def empty(cls) -> "CoincidenceList":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    def __len__(self) -> int:
        return int(self.times.size)


def _sorted_times(t, side: str) -> np.ndarray:
    """``t`` as a contiguous int64 array; ValueError if it ever decreases."""
    t = np.ascontiguousarray(t, dtype=np.int64)
    if np.any(t[1:] < t[:-1]):
        raise ValueError(f"{side} timestamps must be sorted in ascending order")
    return t


def find_coincidences(a, b, cfg: CoincidenceConfig) -> CoincidenceList:
    """Match the sorted timestamps ``a`` against ``b`` exactly.

    Every tag joins at most one coincidence; the matching holds the most
    pairs with |t_b - t_a| <= window_tau and, among those, the least total
    |t_b - t_a|. Ties go by the module's rule: in each cluster, walking back
    from its last tags, leave the last a-tag unmatched if that keeps the
    optimum, else the last b-tag, else match the two. Both arrays must be
    in ascending order (equal timestamps allowed): the cluster scan relies
    on it, so an array that decreases anywhere raises ValueError. Output
    is sorted by coincidence time.

    With the kernels built, the two arrays are merged into one time-ordered
    stream, ``a`` as C1 and ``b`` as C2 (``a`` first at equal times), and
    matched by the ``qf_coincide`` pass of :func:`bell_coincidences`.
    Without them :func:`_match_py` runs.
    """
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
    tau = int(cfg.window_tau)
    lib = _native.library()
    if lib is not None:
        t = np.concatenate([ta, tb])
        order = np.argsort(t, kind="stable")
        ch = (order >= ta.size).view(np.uint8) + np.uint8(Channel.C1)  # C2 is C1 + 1
        return _coincide_pass(lib, t[order], ch, tau, _BELL_ROLE)[1]
    ia, ib = _match_py(ta, tb, tau)
    times = ta[ia]
    deltas = tb[ib] - times
    times += np.minimum(deltas, 0)  # the earlier tag of each pair
    return CoincidenceList(times, deltas)


def accidental_rate(rate_a: float, rate_b: float, cfg: CoincidenceConfig) -> float:
    """Expected accidental coincidence rate 2*tau*Ra*Rb in Hz.

    The factor 2 is the full window width, since |tA - tB| <= tau accepts
    partners on both sides.
    """
    if rate_a < 0 or rate_b < 0:
        raise ValueError("rates must be >= 0")
    return 2.0 * cfg.tau_seconds * rate_a * rate_b


def assign_bits(zero_times, one_times) -> np.ndarray:
    """Raw bits in time order: 0 for each coincidence time in ``zero_times``,
    1 for each in ``one_times``; at equal times the 0 comes first.

    One stable sort of the two lists concatenated: on two sorted runs it
    is a merge, and stability puts the 0 first on a tie.
    """
    order = np.argsort(np.concatenate([zero_times, one_times]), kind="stable")
    return (order >= len(zero_times)).view(np.uint8)


def coincidence_summary(
    singles: dict[Channel, int], duration: int, cfg: CoincidenceConfig,
    counts: dict[tuple[Channel, Channel], int],
) -> dict:
    """Pair counts, analytic accidentals, and CAR for the section pairs of
    an acquisition of ``duration`` ps with ``singles`` tags per channel.

    ``counts`` holds the coincidences of each section pair as matched,
    keyed by the pairs of ``SECTION_PAIRS`` (the count of a maximum
    matching does not depend on which side is ``a``). A pair's ``car`` is
    None where it expects no accidentals (a channel without tags), as JSON
    has no infinity.
    """
    duration_s = duration * 1e-12
    summary: dict = {
        "window_tau_ps": cfg.window_tau,
        "duration_s": duration_s,
        "singles": {ch.name: n for ch, n in singles.items()},
        "pairs": {},
    }
    for ca, cb in SECTION_PAIRS:
        n = int(counts[(ca, cb)])
        ra = singles[ca] / duration_s if duration_s > 0 else 0.0
        rb = singles[cb] / duration_s if duration_s > 0 else 0.0
        acc_hz = accidental_rate(ra, rb, cfg)
        acc_counts = acc_hz * duration_s
        summary["pairs"][f"{ca.name}-{cb.name}"] = {
            "coincidences": n,
            "accidental_rate_hz": acc_hz,
            "car": (n / acc_counts) if acc_counts > 0 else None,
        }
    return summary


@dataclass(frozen=True)
class StreamCoincidences:
    """The section pairs of one tag stream, matched.

    ``bits`` are the raw bits and ``bell`` the (C1, C2) coincidences.
    ``singles`` counts the tags of each channel. ``matches`` and
    ``multi_tag_clusters`` hold, for each section pair, its coincidences and
    its gap-tau clusters holding more than one tag of either side (the
    pileups where the matcher has a choice to make), keyed by the pairs of
    ``SECTION_PAIRS``, the names ``coincidence_summary`` gives them.
    ``workers`` is the number of threads ``qf_coincide`` ran on: 1, or 0
    for the numpy reference.
    """

    bits: BitSequence
    bell: CoincidenceList
    singles: dict[Channel, int]
    matches: dict[tuple[Channel, Channel], int]
    multi_tag_clusters: dict[tuple[Channel, Channel], int]
    workers: int


def coincide_stream(stream: TagStream, cfg: CoincidenceConfig) -> StreamCoincidences:
    """Match the three :data:`STREAM_PAIRS` of ``stream``, each as
    :func:`find_coincidences` matches it, and make the raw bits of the
    first two as :func:`assign_bits` does.

    With the kernels built this is one call of ``qf_coincide``, a single
    pass over the whole stream on the calling thread. Without the kernels
    :func:`_coincide_py` runs.
    """
    lib = _native.library()
    if lib is None:
        return _coincide_py(stream, cfg)
    return _coincide_c(lib, stream, cfg.window_tau)


def _by_section(values) -> dict:
    """``values``, one per :data:`STREAM_PAIRS` pair, keyed by ``SECTION_PAIRS``."""
    by_channels = dict(zip(map(frozenset, STREAM_PAIRS), values))
    return {pair: by_channels[frozenset(pair)] for pair in SECTION_PAIRS}


def _coincide_py(stream: TagStream, cfg: CoincidenceConfig) -> StreamCoincidences:
    """The output of ``qf_coincide`` from the channel split,
    :func:`find_coincidences` per pair and :func:`assign_bits`: its
    reference, and the path without a compiler."""
    times = [(stream.channel_times(a), stream.channel_times(b)) for a, b in STREAM_PAIRS]
    found = [find_coincidences(ta, tb, cfg) for ta, tb in times]
    multi = []
    for ta, tb in times:
        na, nb = _cluster_sizes(ta, tb, cfg.window_tau)
        multi.append(int(np.count_nonzero((na > 1) | (nb > 1))))
    return StreamCoincidences(
        bits=BitSequence.from_bits(assign_bits(found[0].times, found[1].times)),
        bell=found[2],
        singles=stream.counts_by_channel(),
        matches=_by_section(len(c) for c in found),
        multi_tag_clusters=_by_section(multi),
        workers=0,
    )


def _coincide_pass(lib, ts: np.ndarray, ch: np.ndarray, tau: int, role: np.ndarray):
    """One ``qf_coincide`` pass over the time-ordered tags ``(ts, ch)`` with
    the ``role`` table: the packed bits, the Bell pair's coincidences and the
    kernel's 12 counts."""
    n = ts.size
    # every output at the size the kernel may fill: pages that are never
    # written take no memory, so the bound costs no more than the count
    bits = np.zeros(n // 16 + 1, np.uint8)
    bell_t, bell_d = np.empty(n // 2 + 1, np.int64), np.empty(n // 2 + 1, np.int64)
    stats = np.empty(12, np.int64)
    if lib.qf_coincide(_native.address(ts, np.int64, n), _native.address(ch, np.uint8, n), n, tau,
                       _native.address(role, np.uint8, 6),
                       _native.address(bits, np.uint8, bits.size, True),
                       *(_native.address(buf, np.int64, buf.size, True)
                         for buf in (bell_t, bell_d)),
                       _native.address(stats, np.int64, 12, True)) < 0:
        raise MemoryError("qf_coincide could not allocate its work space")
    stats = stats.tolist()
    return bits, CoincidenceList(bell_t[: stats[2]], bell_d[: stats[2]]), stats


def _coincide_c(lib, stream: TagStream, tau: int) -> StreamCoincidences:
    """:func:`coincide_stream` by one ``qf_coincide`` call."""
    bits, bell, stats = _coincide_pass(lib, stream.timestamps, stream.channels, tau, _ROLE)
    # the matches of each pair, its multi-tag clusters, the tags of each channel
    k = stats[0] + stats[1]
    return StreamCoincidences(
        bits=BitSequence(bits[: (k + 7) // 8], k),
        bell=bell,
        singles={c: stats[6 + c] for c in Channel},
        matches=_by_section(stats[:3]),
        multi_tag_clusters=_by_section(stats[3:6]),
        workers=1,
    )


def bell_coincidences(stream: TagStream, cfg: CoincidenceConfig) -> CoincidenceList:
    """The (C1, C2) coincidences of ``stream``: the ``bell`` of
    :func:`coincide_stream`, without matching the bit pairs.

    With the kernels built this is one ``qf_coincide`` pass whose role table
    gives C1 and C2 alone a pair; without them, :func:`find_coincidences`
    on the two channels' times, its reference.
    """
    lib = _native.library()
    if lib is None:
        return find_coincidences(stream.channel_times(Channel.C1),
                                 stream.channel_times(Channel.C2), cfg)
    return _coincide_pass(lib, stream.timestamps, stream.channels, cfg.window_tau,
                          _BELL_ROLE)[1]
