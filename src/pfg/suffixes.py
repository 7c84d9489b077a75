"""Suffix, LCP, ID and position arrays over the graph's segment join (the suffix table)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PrefixFreeGraph, SegmentJoin, char_rank

_RANK_LUT = np.array([char_rank(chr(b)) for b in range(256)], dtype=np.uint16)


@dataclass
class SuffixTable:
    """Parallel columns over the segment join, in sorted-suffix order: int32,
    or int64 for a join of 2**31 symbols or more."""

    sa: np.ndarray
    lcp: np.ndarray
    seg_id: np.ndarray
    pos: np.ndarray

    def __len__(self) -> int:
        return len(self.sa)


def build_join(graph: PrefixFreeGraph) -> SegmentJoin:
    """The graph's segment join, which the graph builds once."""
    return graph.join


def _index_dtype(n: int) -> type:
    """int32 while every index the build forms fits, else int64.

    None exceeds n: a suffix position plus a length that the suffix shares
    with another one is at most n.
    """
    return np.int32 if n < 2**31 else np.int64


def _packed_keys(symbols: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Each suffix's first ``width`` symbols as one uint64 key, ``bits`` per
    symbol, the first symbol highest.

    Symbols get dense codes from 1 in their order.  Code 0 stands past the
    end, so a suffix sorts before every longer suffix it is a prefix of.
    """
    code_of = np.cumsum(np.bincount(symbols) > 0, dtype=np.uint64)
    bits = int(code_of[-1]).bit_length()
    width = 1 << ((63 // bits).bit_length() - 1)
    keys = code_of[symbols]
    n = len(keys)
    # keys of s symbols become keys of 2s symbols
    s = 1
    while s < width:
        keys <<= s * bits
        keys[: max(n - s, 0)] |= keys[s:] >> (s * bits)
        s *= 2
    return keys, bits, width


def _groups(head: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group's first position, and which rows share their group."""
    starts = np.where(head, positions, 0)
    np.maximum.accumulate(starts, out=starts)
    return starts, ~(head & np.append(head[1:], True))


def _prefix_doubling(symbols) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Suffix array and inverse suffix array of an integer sequence, the
    leading symbols that each row shares with the row above as far as the
    first sort sees, and the groups of each level as bitmaps over the
    suffix array rows.

    The inverse suffix array has one more entry, -1 for the position past
    the end.  The shared counts are ``uint8`` and stop at ``width``, which
    the rows whose packed keys tie reach, and only they.

    Level ``t``'s groups are the runs of rows whose suffixes share their first
    ``2**t`` symbols; its bitmap (``np.packbits``) marks each group's first
    row.  Groups are ranges of rows that later levels only reorder inside,
    so every bitmap holds for the final suffix array.  No two adjacent rows
    share a group of the level above the last, so the LCP stays below
    ``2 ** len(levels)``.

    One sort of the packed keys orders the suffixes by their first ``width``
    symbols, and the highest bit in which adjacent sorted keys differ gives
    the shared counts, and from them the levels below ``width``.
    Prefix doubling then re-sorts, in each round, only the rows of groups
    that still tie (Larsson and Sadakane).  A row's rank is the first row of
    its group, so once every group is one row the ranks are the ISA.
    """
    keys, bits, width = _packed_keys(np.asarray(symbols))
    n = keys.size
    index = _index_dtype(n)
    sa = np.argsort(keys).astype(index)
    keys.sort()
    # where adjacent sorted keys differ; row 0 shares nothing
    diff = np.empty_like(keys)
    diff[0] = np.iinfo(diff.dtype).max
    np.bitwise_xor(keys[1:], keys[:-1], out=diff[1:])
    del keys
    # the first s symbols agree where the top s * bits bits of diff are 0
    shared = np.zeros(n, dtype=np.uint8)
    for s in range(1, width + 1):
        shared += diff < 1 << ((width - s) * bits)
    del diff
    levels = []
    h = 1
    while h < width:
        levels.append(np.packbits(shared < h))
        h *= 2
    head = shared < width
    # rank[n] stands past the end, below every rank
    rank = np.empty(n + 1, dtype=index)
    rank[n] = -1
    rank[sa], tie = _groups(head, np.arange(n, dtype=index))
    tied = np.flatnonzero(tie).astype(index)  # rows of groups with more than one row
    while tied.size:
        levels.append(np.packbits(head))
        rows = sa[tied]
        key = rank[rows].astype(np.int64)
        key *= n + 1
        # a tied suffix is at least h long, so rows + h <= n
        key += rank[rows + h] + 1
        order = np.argsort(key)
        sa[tied] = rows = rows[order]
        del order  # before the next round builds its key
        key.sort()  # in place: key[order] would hold a second copy
        group_head = np.empty(len(key), dtype=bool)
        group_head[0] = True
        np.not_equal(key[1:], key[:-1], out=group_head[1:])
        del key
        head[tied] = group_head
        rank[rows], tie = _groups(group_head, tied)
        tied = tied[tie]
        h *= 2
    return sa, rank, shared, levels


def _lcp_from_levels(
    sa: np.ndarray, isa: np.ndarray, shared: np.ndarray, levels: list[np.ndarray]
) -> np.ndarray:
    """LCP of adjacent suffix array rows from ``_prefix_doubling``'s output.

    The shared count is the LCP of every row whose packed key differs from
    the row above.  Only the rows of the largest count, which are the rows
    whose keys tie if any do, are lifted: from the highest level down, level
    ``t`` adds ``2**t`` where the two suffixes share their next ``2**t``
    symbols too.  Lifting is exact for any row, so a row lifted without need
    keeps its count.
    """
    n = len(sa)
    lifted = shared == shared.max()
    lifted[0] = False
    # the two suffixes of each lifted row, moved on by what they share so far
    a = sa[lifted]
    b = sa[:-1][lifted[1:]]
    # group number of each row, counted from 1; the past-the-end position
    # has isa -1, which reads the trailing 0, in no group
    group = np.zeros(n + 1, dtype=sa.dtype)
    for t in reversed(range(len(levels))):
        np.cumsum(np.unpackbits(levels[t], count=n), dtype=sa.dtype, out=group[:n])
        # a shifted 0/1 column adds faster than np.add(..., where=)
        step = (group[isa[a]] == group[isa[b]]).astype(sa.dtype)
        step <<= t
        a += step
        b += step
    del group, b
    a -= sa[lifted]
    lcp = shared.astype(sa.dtype)
    lcp[lifted] = a
    lcp[:1] = -1
    return lcp


def _symbols(text: str | bytes) -> np.ndarray:
    """``text`` as symbols under the reserved-character ranking."""
    if isinstance(text, str):
        text = text.encode("ascii")
    return _RANK_LUT[np.frombuffer(text, dtype=np.uint8)]


def suffix_array(text: str | bytes) -> np.ndarray:
    """Suffix array of ``text`` under the reserved-character ranking."""
    return _prefix_doubling(_symbols(text))[0]


def lcp_array(text: str | bytes, sa: np.ndarray) -> np.ndarray:
    """LCP of adjacent rows of ``sa``, the suffix array of ``text``; LCP[0] = -1."""
    return _lcp_from_levels(np.asarray(sa), *_prefix_doubling(_symbols(text))[1:])


def annotate(join: SegmentJoin, sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and in-segment offset per sorted suffix.

    Separator positions take the preceding segment's id with offset equal
    to its length; the final sentinel takes id = segment count, offset 0.
    """
    n = len(join.text)
    index = _index_dtype(n)
    # a segment's positions run to its separator; the sentinel's id is the
    # segment count, and its offset is 0
    starts = np.append(join.boundaries, n - 1).astype(index)
    seg_id_text = np.repeat(np.arange(len(starts), dtype=index), np.diff(starts, append=n))
    pos_text = np.arange(n, dtype=index) - starts[seg_id_text]
    sa = np.asarray(sa)
    return seg_id_text[sa], pos_text[sa]


def build_suffix_table(graph: PrefixFreeGraph) -> SuffixTable:
    join = graph.join
    sa, isa, shared, levels = _prefix_doubling(_symbols(join.text))
    lcp = _lcp_from_levels(sa, isa, shared, levels)
    del isa, shared, levels  # before annotate's columns
    seg_id, pos = annotate(join, sa)
    return SuffixTable(sa=sa, lcp=lcp, seg_id=seg_id, pos=pos)
