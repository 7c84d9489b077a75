"""Path join and per-segment occurrence columns (the segment table)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import SENTINEL, PrefixFreeGraph
from .suffixes import _prefix_doubling, build_join

END = 0  # terminates the path join; smallest symbol
SEP = 1  # delimits paths; below every segment id
_ID_BASE = 2  # segment id i is stored as symbol i + 2


@dataclass
class PathJoin:
    """All ID-paths concatenated over the integer symbol alphabet."""

    symbols: np.ndarray  # int64


@dataclass
class SegmentTable:
    """Occurrence columns in CSR layout, one group per segment.

    The occurrences of segment ``i`` are rows ``offsets[i]:offsets[i + 1]``
    of ``start``, ``rank`` and ``prev``, sorted ascending by rank.
    """

    lengths: np.ndarray  # int64 segment lengths, pads included
    offsets: np.ndarray  # int64, one more than the segment count
    start: np.ndarray  # int64 pangenome offset
    rank: np.ndarray  # right-context rank (ISA of the following join position), int32 below 2**31 symbols
    prev: np.ndarray  # uint8 preceding pangenome byte, SENTINEL at sequence starts


def segment_lengths(graph: PrefixFreeGraph) -> np.ndarray:
    return np.array([len(seg.content) for seg in graph.segments], dtype=np.int64)


def _path_steps(graph: PrefixFreeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Segment id of every path step in path order, and the steps per path."""
    counts = np.array([len(path) for _, path in graph.paths], dtype=np.int64)
    ids = np.fromiter(
        chain.from_iterable(path for _, path in graph.paths), dtype=np.int64, count=int(counts.sum())
    )
    return ids, counts


def build_path_join(graph: PrefixFreeGraph) -> PathJoin:
    ids, counts = _path_steps(graph)
    symbols = np.full(len(ids) + len(counts) + 1, SEP, dtype=np.int64)
    # every earlier path adds one SEP before a step
    symbols[np.arange(len(ids)) + np.repeat(np.arange(len(counts)), counts)] = ids + _ID_BASE
    symbols[-1] = END
    return PathJoin(symbols=symbols)


def right_context_ranks(join: PathJoin) -> np.ndarray:
    """Rank of the join suffix following each path step, in path order.

    The ranks are raw ISA values of the path-join suffix array; only their
    relative order matters.
    """
    isa = _prefix_doubling(join.symbols)[1]
    return isa[np.flatnonzero(join.symbols >= _ID_BASE) + 1]


def occurrence_starts(graph: PrefixFreeGraph) -> np.ndarray:
    """Pangenome start offset of every path step, in path order."""
    ids, _ = _path_steps(graph)
    widths = segment_lengths(graph)[ids] - graph.k
    starts = np.zeros(len(ids), dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    return starts


def preceding_chars(graph: PrefixFreeGraph) -> np.ndarray:
    """Byte before each path step's first letter, in path order.

    It is the last letter of the nearest earlier step of the same path that
    owns letters (a segment of length k owns none), or SENTINEL when there
    is no such step.
    """
    ids, counts = _path_steps(graph)
    lengths = segment_lengths(graph)
    k = graph.k
    join = build_join(graph)
    text = np.frombuffer(join.text.encode("ascii"), dtype=np.uint8)
    boundaries = np.asarray(join.boundaries, dtype=np.int64)
    steps = np.arange(len(ids))
    owner = np.maximum.accumulate(np.where(lengths[ids] > k, steps, -1))
    before = np.roll(owner, 1)
    before[:1] = -1
    path_first = np.repeat(np.cumsum(counts) - counts, counts)
    inner = before >= path_first
    owner_ids = ids[before[inner]]
    prev = np.full(len(ids), ord(SENTINEL), dtype=np.uint8)
    prev[inner] = text[boundaries[owner_ids] + lengths[owner_ids] - k - 1]
    return prev


def build_segment_table(graph: PrefixFreeGraph) -> SegmentTable:
    """Group the path steps by segment and sort each group by rank."""
    ids, _ = _path_steps(graph)
    lengths = segment_lengths(graph)
    ranks = right_context_ranks(build_path_join(graph))
    order = np.lexsort((ranks, ids))
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=len(lengths)), out=offsets[1:])
    return SegmentTable(
        lengths=lengths,
        offsets=offsets,
        start=occurrence_starts(graph)[order],
        rank=ranks[order],
        prev=preceding_chars(graph)[order],
    )
