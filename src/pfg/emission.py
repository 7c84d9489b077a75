"""Streaming the pangenome suffix array from the suffix and segment tables.

Before anything is yielded, the graph's prefix-freeness is checked
(``validation.check_prefix_free``), and one pass over the suffix table,
whose rows all emit, gives each row its first emission and checks the
emission count.  Emission then runs in batches of whole blocks of equal
segment suffixes, cut at the table's block starts: each batch expands its
rows' occurrences and orders them by (block, right-context rank), so the
order of rows inside a block does not matter.
Besides the two tables, the stream holds each row's first emission
(``row_begin``, 8 bytes per row), one byte per row that marks the block
starts, and one batch; the pangenome text is never materialized.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import StructureError
from .graph import PrefixFreeGraph
from .occurrences import SegmentTable
from .suffixes import SuffixTable
from .validation import check_prefix_free

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


def emission_batches(
    graph: PrefixFreeGraph,
    suffix_table: SuffixTable,
    segment_table: SegmentTable,
    with_bwt: bool = True,
) -> Iterator[Batch]:
    """Yield the emissions in order, in batches cut at block starts."""
    k = graph.k
    check_prefix_free(graph)
    head, seg_id = suffix_table.head, suffix_table.seg_id
    counts = np.diff(segment_table.offsets)
    # first emission of each row, then the total; int64, as emission
    # indices can pass 2**31.  Its counts are gathered a batch of rows at a
    # time and summed in place, so no other column per row is made.
    row_begin = np.zeros(len(seg_id) + 1, dtype=np.int64)
    for lo in range(0, len(seg_id), BATCH_EMISSIONS):
        row_begin[lo + 1 : lo + 1 + BATCH_EMISSIONS] = counts[seg_id[lo : lo + BATCH_EMISSIONS]]
    np.cumsum(row_begin, out=row_begin)
    total = int(row_begin[-1])
    expected = int(((segment_table.lengths - k) * counts).sum())
    if total != expected:
        raise StructureError(f"the tables give {total} emissions, expected {expected}")
    # block starts, then the end
    starts = np.append(head, True)
    text = np.frombuffer(graph.join.text, dtype=np.uint8)
    boundaries = graph.join.boundaries
    # every rank is below this, so block * rank_bound + rank orders by both
    rank_bound = int(segment_table.rank.max()) + 1 if len(segment_table.rank) else 1
    r0 = 0
    while r0 < len(seg_id):
        e0 = int(row_begin[r0])
        # the batch ends at the last block start at most BATCH_EMISSIONS
        # emissions on, or after one block when that block is wider
        last_row = int(np.searchsorted(row_begin, e0 + BATCH_EMISSIONS, side="right")) - 1
        fits = np.flatnonzero(starts[r0 + 1 : last_row + 1])
        # with no block start in reach, the next one: argmax stops at the
        # first True, and the end counts as a block start
        r1 = r0 + 1 + int(fits[-1] if fits.size else np.argmax(starts[r0 + 1 :]))
        e1 = int(row_begin[r1])
        seg_ids = seg_id[r0:r1]
        n_occ = counts[seg_ids]
        # occurrence index = its row's first occurrence + its place in the row
        shift = segment_table.offsets[seg_ids] - row_begin[r0:r1]
        occ = np.arange(e0, e1) + np.repeat(shift, n_occ)
        key = np.repeat(np.cumsum(head[r0:r1]), n_occ) * rank_bound + segment_table.rank[occ]
        # rows come in block order and each row's occurrences by rank, so
        # the key is a few ascending runs, which a stable sort merges
        order = np.argsort(key, kind="stable")
        row_of = np.repeat(np.arange(r0, r1), n_occ)[order]
        occ = occ[order]
        seg = seg_id[row_of]
        pos = suffix_table.pos[row_of]
        bwt = None
        if with_bwt:
            # the letter before a row's suffix in the join, where pos > 0
            bwt = np.where(pos > 0, text[boundaries[seg] + pos - 1], segment_table.prev[occ])
        yield Batch(e0, segment_table.start[occ] + pos, seg, pos, bwt)
        r0 = r1


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
