"""Streaming the pangenome suffix array from the suffix and segment tables.

One vectorized pass over the suffix table, made before anything is
yielded, keeps the rows that have a pangenome counterpart, groups them into
blocks of equal segment suffixes, and checks prefix-freeness and the
emission count.  Emission then runs in batches of whole blocks: each batch
expands its rows' occurrences and orders them by (block, right-context
rank).  Memory stays proportional to the two tables plus one batch; the
pangenome text is never materialized.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import StructureError
from .graph import PrefixFreeGraph
from .occurrences import SegmentTable
from .suffixes import SuffixTable

# Most emissions in one batch.  A block wider than this is a batch of its
# own.  A batch's columns and its formatted bytes are live at once, so a
# larger batch raises peak memory; a smaller one pays the fixed cost of
# each numpy call more often.
BATCH_EMISSIONS = 4096


class Emission(NamedTuple):
    index: int
    sa: int
    seg_id: int
    pos: int
    bwt: str | None


class Batch(NamedTuple):
    """Emissions ``first, first + 1, ...`` as columns."""

    first: int
    sa: np.ndarray
    seg_id: np.ndarray
    pos: np.ndarray
    bwt: np.ndarray | None  # uint8 letters, None without the BWT


def mark_blocks(suffix_table: SuffixTable, lengths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over the suffix table rows: kept rows, and block starts.

    A row is kept when it lies in a segment (not the sentinel) and its
    segment suffix is longer than k.  A kept row joins the previous row's
    block when that row is kept too and the LCP reaches that row's suffix
    length.  Such rows must have equal suffix lengths; otherwise one
    segment suffix is a proper prefix of another and StructureError is
    raised.
    """
    seg_id = suffix_table.seg_id
    pos = suffix_table.pos
    # the sentinel row's id is the segment count; give it length 0
    suffix_len = np.append(lengths, 0).astype(pos.dtype)[np.minimum(seg_id, len(lengths))]
    suffix_len -= pos
    kept = (seg_id < len(lengths)) & (suffix_len > k)
    joins = np.zeros(len(kept), dtype=bool)
    np.greater_equal(suffix_table.lcp[1:], suffix_len[:-1], out=joins[1:])
    joins[1:] &= kept[:-1]
    bad = np.flatnonzero(joins[1:] & (suffix_len[1:] != suffix_len[:-1]))
    if bad.size:
        i = int(bad[0]) + 1
        raise StructureError(
            f"segment suffixes are not prefix-free: the suffix of segment {seg_id[i - 1]} "
            f"at offset {pos[i - 1]} is a proper prefix of the suffix of segment "
            f"{seg_id[i]} at offset {pos[i]}"
        )
    # a kept row that does not join the previous row's block starts one
    np.logical_not(joins, out=joins)
    joins &= kept
    return kept, joins


def emission_batches(
    graph: PrefixFreeGraph,
    suffix_table: SuffixTable,
    segment_table: SegmentTable,
    with_bwt: bool = True,
) -> Iterator[Batch]:
    """Yield the emissions in order, in batches cut at block starts."""
    k = graph.k
    kept, block_start = mark_blocks(suffix_table, segment_table.lengths, k)
    rows = np.flatnonzero(kept).astype(suffix_table.pos.dtype)
    del kept
    block_start = block_start[rows]  # now indexed by kept row
    counts = np.diff(segment_table.offsets)
    row_counts = counts[suffix_table.seg_id[rows]]
    # first emission of each kept row, then the total; int64, as emission
    # indices can pass 2**31
    row_begin = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(row_counts, out=row_begin[1:])
    del row_counts
    total = int(row_begin[-1])
    expected = int(((segment_table.lengths - k) * counts).sum())
    if total != expected:
        raise StructureError(f"the tables give {total} emissions, expected {expected}")
    # kept-row index and first emission of every block, then the ends
    first_rows = np.flatnonzero(np.append(block_start, True))
    bounds = row_begin[first_rows]
    text = np.frombuffer(graph.join.text, dtype=np.uint8)
    # every rank is below this, so block * rank_bound + rank orders by both
    rank_bound = int(segment_table.rank.max()) + 1 if len(segment_table.rank) else 1
    b = 0
    while b < len(first_rows) - 1:
        e0 = int(bounds[b])
        c = max(int(np.searchsorted(bounds, e0 + BATCH_EMISSIONS, side="right")) - 1, b + 1)
        e1 = int(bounds[c])
        batch_rows = rows[first_rows[b] : first_rows[c]]
        seg_ids = suffix_table.seg_id[batch_rows]
        n_occ = counts[seg_ids]
        row_of = np.repeat(np.arange(len(batch_rows)), n_occ)
        # occurrence index = its row's first occurrence + its place in the row
        shift = segment_table.offsets[seg_ids] - row_begin[first_rows[b] : first_rows[c]]
        occ = np.arange(e0, e1) + np.repeat(shift, n_occ)
        key = np.cumsum(block_start[first_rows[b] : first_rows[c]])[row_of]
        key *= rank_bound
        key += segment_table.rank[occ]
        # rows come in block order and each row's occurrences by rank, so
        # the key is a few ascending runs, which a stable sort merges
        order = np.argsort(key, kind="stable")
        row_of = batch_rows[row_of[order]]
        occ = occ[order]
        pos = suffix_table.pos[row_of]
        bwt = None
        if with_bwt:
            bwt = np.where(pos > 0, text[suffix_table.sa[row_of] - 1], segment_table.prev[occ])
        yield Batch(e0, segment_table.start[occ] + pos, suffix_table.seg_id[row_of], pos, bwt)
        b = c


def stream(
    graph: PrefixFreeGraph,
    suffix_table: SuffixTable,
    segment_table: SegmentTable,
    with_bwt: bool = True,
) -> Iterator[Emission]:
    """Yield (index, sa, id, pos[, bwt]) for every pangenome position."""
    for batch in emission_batches(graph, suffix_table, segment_table, with_bwt):
        index = range(batch.first, batch.first + len(batch.sa))
        bwt = batch.bwt.tobytes().decode("ascii") if with_bwt else repeat(None)
        yield from map(Emission, index, batch.sa.tolist(), batch.seg_id.tolist(), batch.pos.tolist(), bwt)
