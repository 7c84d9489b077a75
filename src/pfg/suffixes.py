"""Segment join and its suffix/LCP/ID/position arrays (the suffix table)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SENTINEL, SEPARATOR, PrefixFreeGraph, char_rank

_RANK_LUT = np.array([char_rank(chr(b)) for b in range(256)], dtype=np.uint16)


@dataclass
class SegmentJoin:
    """All segment contents concatenated with separators and a sentinel."""

    text: str
    boundaries: list[int]  # start offset of each segment in text


@dataclass
class SuffixTable:
    """Parallel int64 columns over the segment join, in sorted-suffix order."""

    sa: np.ndarray
    lcp: np.ndarray
    seg_id: np.ndarray
    pos: np.ndarray

    def __len__(self) -> int:
        return len(self.sa)


def build_join(graph: PrefixFreeGraph) -> SegmentJoin:
    parts = []
    boundaries = []
    offset = 0
    for seg in graph.segments:
        boundaries.append(offset)
        parts.append(seg.content)
        parts.append(SEPARATOR)
        offset += len(seg.content) + 1
    parts.append(SENTINEL)
    return SegmentJoin(text="".join(parts), boundaries=boundaries)


def _groups(sorted_keys: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group's first position, and which rows share their group."""
    head = np.ones(len(sorted_keys), dtype=bool)
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.maximum.accumulate(np.where(head, positions, 0)), ~(head & np.append(head[1:], True))


def _prefix_doubling(symbols) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix array of an integer sequence, and the rank array of each round.

    Prefix doubling that re-sorts, in each round, only the rows of groups
    that still tie (Larsson and Sadakane).  A row's rank is the first sorted
    position of its group, so ``ranks[t][i] == ranks[t][j]`` exactly when
    suffixes ``i`` and ``j`` share their first ``2**t`` symbols.  The last
    round kept still has a tie; the LCP never reaches ``2 ** len(ranks)``.
    """
    keys = np.asarray(symbols)
    n = keys.size
    sa = np.argsort(keys, kind="stable")
    rank = np.empty(n, dtype=np.min_scalar_type(n))
    rank[sa], tie = _groups(keys[sa], np.arange(n))
    tied = np.flatnonzero(tie)  # sorted positions of groups with more than one row
    ranks = []
    h = 1
    while tied.size:
        ranks.append(rank.copy())
        rows = sa[tied]
        after = rows + h
        inside = after < n
        key = rank[rows].astype(np.int64) * (n + 1)
        key[inside] += rank[after[inside]].astype(np.int64) + 1
        order = np.argsort(key)
        sa[tied] = rows[order]
        rank[sa[tied]], tie = _groups(key[order], tied)
        tied = tied[tie]
        h *= 2
    return sa, ranks


def _lcp_from_ranks(sa: np.ndarray, ranks: list[np.ndarray]) -> np.ndarray:
    """LCP of adjacent suffix array rows by binary lifting over the ranks:
    from the highest round down, a round of step ``h`` adds ``h`` where the
    suffixes share their next ``h`` symbols too."""
    n = len(sa)
    lcp = np.zeros(n, dtype=np.int64)
    a, b = sa[1:], sa[:-1]
    for t in reversed(range(len(ranks))):
        rank = ranks[t]
        i, j = a + lcp[1:], b + lcp[1:]
        inside = (i < n) & (j < n)
        same = inside & (rank[np.minimum(i, n - 1)] == rank[np.minimum(j, n - 1)])
        lcp[1:] += same * (1 << t)
    lcp[:1] = -1
    return lcp


def suffix_array_ints(symbols) -> np.ndarray:
    """Suffix array of an integer sequence."""
    return _prefix_doubling(symbols)[0]


def _symbols(text: str) -> np.ndarray:
    """``text`` as symbols under the reserved-character ranking."""
    return _RANK_LUT[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]


def suffix_array(text: str) -> np.ndarray:
    """Suffix array of ``text`` under the reserved-character ranking."""
    return suffix_array_ints(_symbols(text))


def lcp_array(text: str, sa: np.ndarray) -> np.ndarray:
    """LCP of adjacent rows of ``sa``, the suffix array of ``text``; LCP[0] = -1."""
    return _lcp_from_ranks(np.asarray(sa), _prefix_doubling(_symbols(text))[1])


def annotate(join: SegmentJoin, sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and in-segment offset per sorted suffix.

    Separator positions take the preceding segment's id with offset equal
    to its length; the final sentinel takes id = segment count, offset 0.
    """
    n = len(join.text)
    raw = np.frombuffer(join.text.encode("ascii"), dtype=np.uint8)
    seg_id_text = np.zeros(n, dtype=np.int64)
    # a separator closes its own segment, so the next id starts after it
    np.cumsum(raw[:-1] == ord(SEPARATOR), out=seg_id_text[1:])
    # the sentinel's id is the segment count, and its offset is 0
    boundaries = np.append(np.asarray(join.boundaries, dtype=np.int64), n - 1)
    pos_text = np.arange(n, dtype=np.int64) - boundaries[seg_id_text]
    sa = np.asarray(sa)
    return seg_id_text[sa], pos_text[sa]


def build_suffix_table(graph: PrefixFreeGraph) -> SuffixTable:
    join = build_join(graph)
    sa, ranks = _prefix_doubling(_symbols(join.text))
    lcp = _lcp_from_ranks(sa, ranks)
    seg_id, pos = annotate(join, sa)
    return SuffixTable(sa=sa, lcp=lcp, seg_id=seg_id, pos=pos)
