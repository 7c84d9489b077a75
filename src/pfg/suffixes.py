"""Segment join and its suffix/LCP/ID/position arrays (the suffix table)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PAD, SENTINEL, SEPARATOR, PrefixFreeGraph

# Byte -> rank lookup implementing $ < # < . < input bytes.
_RANK_LUT = np.arange(256, dtype=np.int64) + 3
_RANK_LUT[ord(SENTINEL)] = 0
_RANK_LUT[ord(SEPARATOR)] = 1
_RANK_LUT[ord(PAD)] = 2


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


def suffix_array_ints(symbols) -> np.ndarray:
    """Suffix array of an integer sequence by prefix doubling (lexsort)."""
    ranks = np.asarray(symbols, dtype=np.int64)
    n = ranks.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    r = np.empty(n, dtype=np.int64)
    sorted_vals = ranks[order]
    changed = np.ones(n, dtype=bool)
    changed[1:] = sorted_vals[1:] != sorted_vals[:-1]
    r[order] = np.cumsum(changed) - 1
    h = 1
    while r[order[-1]] != n - 1:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - h] = r[h:]
        order = np.lexsort((key2, r))
        a = r[order]
        b = key2[order]
        changed = np.ones(n, dtype=bool)
        changed[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        nr = np.empty(n, dtype=np.int64)
        nr[order] = np.cumsum(changed) - 1
        r = nr
        h *= 2
    return order


def suffix_array(text: str) -> np.ndarray:
    """Suffix array of ``text`` under the reserved-character ranking."""
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return suffix_array_ints(_RANK_LUT[raw])


def lcp_array(text: str, sa: np.ndarray) -> np.ndarray:
    """Kasai's algorithm; LCP[0] = -1 by convention."""
    n = len(sa)
    isa = np.empty(n, dtype=np.int64)
    isa[sa] = np.arange(n)
    isa = isa.tolist()
    sa = np.asarray(sa).tolist()
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = isa[i]
        if r == 0:
            h = 0
            continue
        j = sa[r - 1]
        while i + h < n and j + h < n and text[i + h] == text[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    lcp[0] = -1
    return np.array(lcp, dtype=np.int64)


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
    sa = suffix_array(join.text)
    lcp = lcp_array(join.text, sa)
    seg_id, pos = annotate(join, sa)
    return SuffixTable(sa=sa, lcp=lcp, seg_id=seg_id, pos=pos)
