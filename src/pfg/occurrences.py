"""Path join and per-segment occurrence columns (the segment table)."""

from __future__ import annotations

import numpy as np

from .graph import SENTINEL, PrefixFreeGraph
from .suffixes import _index_dtype, _prefix_doubling

END = 0  # terminates the path join; smallest symbol
SEP = 1  # delimits paths; below every segment id
_ID_BASE = 2  # segment id i is stored as symbol i + 2


class SegmentTable:
    """Four occurrence columns in CSR layout, one group per segment.

    The occurrences of segment ``i`` are rows ``offsets[i]:offsets[i + 1]``
    of ``start``, ``rank`` and ``prev``, sorted ascending by rank.
    """

    def __init__(self, offsets: np.ndarray, start: np.ndarray, rank: np.ndarray, prev: np.ndarray):
        self.offsets = offsets  # int64, one more than the segment count
        self.start = start  # int64 pangenome offset
        # right-context rank (ISA of the following join position), int32 below 2**31 symbols
        self.rank = rank
        self.prev = prev  # uint8 preceding pangenome byte, SENTINEL at sequence starts


def build_path_join(graph: PrefixFreeGraph) -> np.ndarray:
    """All ID-paths concatenated over the integer symbol alphabet, as int32
    symbols: each path and a SEP, then END."""
    symbols = np.insert(graph.steps + _ID_BASE, graph.path_offsets[1:], SEP)
    return np.append(symbols, symbols.dtype.type(END))


def right_context_ranks(symbols: np.ndarray) -> np.ndarray:
    """Rank of the path-join suffix following each path step, in path order.

    The ranks are raw ISA values of the path-join suffix array; only their
    relative order matters.
    """
    isa = _prefix_doubling(symbols)[1]
    return isa[np.flatnonzero(symbols >= _ID_BASE) + 1]


def occurrence_starts(graph: PrefixFreeGraph) -> np.ndarray:
    """Pangenome start offset of every path step, in path order."""
    widths = graph.join.lengths[graph.steps] - graph.k
    starts = np.zeros(len(widths), dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    return starts


def pangenome_length(graph: PrefixFreeGraph) -> int:
    """Letters in the pangenome: each step adds its segment but its last k."""
    lengths = graph.join.lengths
    return int(((lengths - graph.k) * np.bincount(graph.steps, minlength=len(lengths))).sum())


def preceding_chars(graph: PrefixFreeGraph) -> np.ndarray:
    """Byte before each path step's first letter, in path order.

    It is the last letter of the nearest earlier step of the same path that
    owns letters (a segment of length k owns none), or SENTINEL when there
    is no such step.
    """
    ids, offsets, k = graph.steps, graph.path_offsets, graph.k
    join = graph.join
    index = _index_dtype(len(ids))
    owns = join.lengths > k
    # each segment's last letter before its k overlap, if it owns letters
    last = np.frombuffer(join.text, dtype=np.uint8)[(join.boundaries + join.lengths - k - 1)[owns]]
    # the nearest owning step at or before each step, -1 for none
    owner = np.where(owns[ids], np.arange(len(ids), dtype=index), index(-1))
    np.maximum.accumulate(owner, out=owner)
    before = np.empty_like(owner)
    before[:1] = -1
    before[1:] = owner[:-1]
    del owner
    inner = before >= np.repeat(offsets[:-1].astype(index), np.diff(offsets))
    prev = np.full(len(ids), ord(SENTINEL), dtype=np.uint8)
    # a segment's rank among the owning segments indexes last
    rank = np.cumsum(owns, dtype=index) - 1
    prev[inner] = last[rank[ids[before[inner]]]]
    return prev


def build_segment_table(graph: PrefixFreeGraph) -> SegmentTable:
    """Group the path steps by segment and sort each group by rank."""
    ids, lengths = graph.steps, graph.join.lengths
    ranks = right_context_ranks(build_path_join(graph))
    order = np.lexsort((ranks, ids))
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=len(lengths)), out=offsets[1:])
    return SegmentTable(
        offsets=offsets,
        start=occurrence_starts(graph)[order],
        rank=ranks[order],
        prev=preceding_chars(graph)[order],
    )
