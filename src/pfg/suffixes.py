"""The suffix table: the segment join's suffixes whose segment suffix is
longer than k, sorted up to and including each one's separator, with their
segment ids, offsets and block starts; and a text's full suffix array and
its LCP."""

from __future__ import annotations

import numpy as np

from .graph import SEPARATOR, PrefixFreeGraph, SegmentJoin


class SuffixTable:
    """Parallel columns over the segment join's suffixes whose segment suffix
    is longer than k, the rows that emit, sorted up to each one's separator:
    int32, or int64 for a join of 2**31 symbols or more.  A block's rows
    come in no particular order.  A row's join position is
    ``join.boundaries[seg_id] + pos`` and is not stored."""

    def __init__(self, seg_id: np.ndarray, pos: np.ndarray, head: np.ndarray):
        self.seg_id = seg_id
        self.pos = pos
        self.head = head  # bool, each block's first row


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


def _prefix_doubling(symbols, reach: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Suffix array, ranks and group heads of an integer sequence.

    Without ``reach`` the suffixes are sorted in full, every group is one
    row and the ranks are the inverse suffix array.  With it, suffix ``i``
    is compared on its first ``reach[i]`` symbols only, up to and including
    its separator; suffixes that agree that far form one group, its rows in
    no particular order.  Only the sentinel sorts below the separator, so
    the groups come in the order of the full suffix array.

    ``head`` marks each group's first row, which is the rank of each of its
    suffixes; the ranks have one more entry, -1, past the end.

    One sort of packed keys, cut after each suffix's separator, orders the
    suffixes by their first ``width`` symbols.  Each doubling round then
    re-sorts only the groups that still tie short of their separators
    (Larsson and Sadakane).
    """
    keys, bits, width = _packed_keys(np.asarray(symbols))
    del symbols  # freed here when the caller passed a temporary
    n = keys.size
    index = _index_dtype(n)
    unfinished = None
    if reach is not None:
        # zero each key's symbols past its separator
        cut = ((width - np.minimum(reach, width)) * bits).astype(np.uint8)
        keys >>= cut
        keys <<= cut
        del cut
        # one byte per suffix in the rounds: whether its separator lies
        # past its first h symbols
        unfinished = reach > width
        del reach
    sa = np.argsort(keys).astype(index)
    keys = keys[sa]
    head = np.append(True, keys[1:] != keys[:-1])
    del keys
    # rank[n] stands past the end, below every rank
    rank = np.empty(n + 1, dtype=index)
    rank[n] = -1
    # the rows whose groups may still split, and their suffixes; np.take
    # turns int32 indices into intp first, and then gathers about twice as
    # fast as an int32 subscript does
    tied, rows = np.arange(n, dtype=index), sa
    group_head = head
    h = width
    while True:
        # each row's rank is its group's first row
        starts = np.where(group_head, tied, 0)
        np.maximum.accumulate(starts, out=starts)
        rank[rows] = starts
        del starts
        tie = ~(group_head & np.append(group_head[1:], True))
        if unfinished is not None:
            # a group whose members share their separator is final
            tie &= unfinished[rows]
        tied, rows = tied[tie], rows[tie]
        if not tied.size:
            break
        # the rows arrive grouped by rank, so the key is ascending runs,
        # which a stable sort merges; a tied suffix is longer than h, so
        # rows + h <= n
        rank_h = np.take(rank, rows + h)
        key = np.take(rank, rows).astype(np.int64)
        key *= n + 1
        key += rank_h
        del rank_h
        order = np.argsort(key, kind="stable")
        del key
        rows = rows[order]
        del order
        sa[tied] = rows
        # the sorted keys differ where the rank does, at the old group
        # heads, or where the rank h on does
        rank_h = np.take(rank, rows + h)
        group_head = head[tied]
        group_head[1:] |= rank_h[1:] != rank_h[:-1]
        del rank_h
        head[tied] = group_head
        if unfinished is not None:
            # a suffix is unfinished after 2h symbols when it is after h and
            # so is the suffix h on; the last h suffixes are no longer than h
            np.logical_and(unfinished[: n - h], unfinished[h:], out=unfinished[: n - h])
        h *= 2
    return sa, rank, head


def suffix_array(text: bytes) -> np.ndarray:
    """Suffix array of ``text``, its bytes compared as unsigned values."""
    return _prefix_doubling(np.frombuffer(text, dtype=np.uint8))[0]


def lcp_array(text: bytes, sa: np.ndarray) -> np.ndarray:
    """LCP of adjacent rows of ``sa``, the suffix array of ``text``; LCP[0] = -1.

    Kasai's scan: in text order, each suffix shares with the suffix in the
    row above it at least as many symbols as the suffix before it did, less
    one, so the scan compares O(n) symbols in all.  It fills the LCP in text
    order and permutes it once at the end, which is faster than by row.
    """
    sa = np.asarray(sa)
    above = np.empty(len(sa), dtype=np.int64)  # the suffix in the row above, -1 for row 0
    above[sa] = np.append(-1, sa[:-1])
    a = list(text)
    a, b = a + [-1], a + [-2]  # ends that match nothing
    plcp = [-1] * len(sa)
    h = 0
    for i, j in enumerate(above.tolist()):
        if j < 0:
            h = 0
            continue
        while a[i + h] == b[j + h]:
            h += 1
        plcp[i] = h
        if h:
            h -= 1
    return np.array(plcp, dtype=sa.dtype)[sa]


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
    sa = np.asarray(sa)
    seg_id = np.repeat(np.arange(len(starts), dtype=index), np.diff(starts, append=n))[sa]
    return seg_id, sa - starts[seg_id]


def _reach(text: bytes) -> np.ndarray:
    """Symbols from each position of a join up to and including the next
    separator or sentinel, the only bytes of a join at or below SEPARATOR."""
    codes = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero(codes <= ord(SEPARATOR)).astype(_index_dtype(len(codes)))
    return np.repeat(ends, np.diff(ends, prepend=-1)) - np.arange(-1, len(codes) - 1, dtype=ends.dtype)


def build_suffix_table(graph: PrefixFreeGraph) -> SuffixTable:
    """The graph's suffix table: only the rows whose segment suffix is
    longer than k, as only those emit."""
    join = graph.join
    sa, rank, head = _prefix_doubling(np.frombuffer(join.text, dtype=np.uint8), _reach(join.text))
    del rank  # before the mask and annotate's columns
    # the reach counts the separator too; a block's suffixes end at one
    # separator, so the block is kept or dropped whole
    kept = (_reach(join.text) > graph.k + 1)[sa]
    sa, head = sa[kept], head[kept]
    del kept
    seg_id, pos = annotate(join, sa)
    return SuffixTable(seg_id=seg_id, pos=pos, head=head)
