"""A GFA file's records as columns, and their reader for the common case.

The reader parses the whole text as one byte buffer with numpy: the
S-records' sequences are masked out of it into one segment join, and the
P-records' step ids come from a vectorized digit parse, so no Python object
is made per segment or per path step.  It takes a text whose segment names
are plain decimal ids and whose every record passes its checks, as
``write_gfa`` writes them; ``lines.read_lines`` reads any other.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .graph import PAD, SENTINEL, SEPARATOR, SegmentJoin
from .records import Records, decimals, gather, number_lists

_PLUS, _STAR, _M = b"+*M"
# the bytes an S-record's sequence may hold: the pad and every input letter
_LOWEST_LETTER, _HIGHEST_LETTER = ord(PAD), ord("~")
# P-records are parsed in groups of about this many bytes of steps, which
# bounds the parse's temporary arrays.
PATH_BYTES_PER_PARSE = 1 << 18


@dataclass
class GfaDocument:
    """A GFA file's records as columns.

    S-record ``r``, counted in file order, has the upper-cased sequence
    ``join.content(r)``; ``ids[r]`` is its name read as a plain decimal
    number, or -1 if the name is not one.  Path ``j`` is named
    ``path_names[j]`` and visits the S-records
    ``steps[path_offsets[j]:path_offsets[j + 1]]``; ``overlaps`` holds the
    overlap each step declares with the step before it, 0 at a path's
    first step and on a path whose overlap field is ``*``.
    """

    header_tags: dict[str, str]
    join: SegmentJoin
    ids: np.ndarray  # int64
    steps: np.ndarray  # int32
    path_offsets: np.ndarray  # int64, one more than the path count
    path_names: list[str]
    overlaps: np.ndarray  # int64, one per step

    @property
    def trigger_length(self) -> int | None:
        tag = self.header_tags.get("TL")
        if tag is None:
            return None
        k = int(tag) if tag.isascii() and tag.isdigit() else 0
        if not 0 < k <= sys.maxsize:
            raise FormatError(f"TL header tag must be a positive integer up to {sys.maxsize}")
        return k


def read_columns(data: bytes) -> GfaDocument | None:
    """The document of a text, as bytes that end with a newline, whose
    segment names are all plain decimal ids; None if the text has another
    segment name or any record that fails a check."""
    records = Records(data)
    buf = records.buf
    s_rows, l_rows, p_rows = records.kind("S"), records.kind("L"), records.kind("P")
    tabs = records.tab_count
    if (tabs[s_rows] < 2).any() or (tabs[l_rows] < 5).any() or (tabs[p_rows] < 3).any():
        return None
    header_tags = {}
    for row in records.kind("H").tolist():
        tags = [raw.split(":", 2) for raw in records.fields(row)[1:]]
        if any(len(parts) != 3 for parts in tags):
            return None
        header_tags.update((name, value) for name, _, value in tags)

    ids = decimals(buf, *records.field(1, s_rows))
    by_id = np.argsort(ids)
    sorted_ids = ids[by_id]
    if (ids < 0).any() or (sorted_ids[1:] == sorted_ids[:-1]).any():
        return None
    identity = np.array_equal(ids, np.arange(len(ids)))

    def locate(values: np.ndarray) -> np.ndarray:
        """The S-record named by each plain decimal id, or -1 for none."""
        if identity:
            return np.where(values < len(ids), values, -1)
        at = np.minimum(np.searchsorted(sorted_ids, values), len(ids) - 1)
        return np.where(sorted_ids[at] == values, by_id[at], -1)

    # each S-record's sequence and the byte after it, which becomes a separator
    seq_begins, seq_ends = records.field(2, s_rows)
    lengths = seq_ends - seq_begins
    boundaries = np.cumsum(lengths + 1) - lengths - 1
    text = np.empty(int(lengths.sum()) + len(s_rows) + 1, dtype=np.uint8)
    text[:-1] = gather(buf, seq_begins, seq_ends + 1)
    text[boundaries + lengths] = ord(SEPARATOR)
    text[-1] = ord(SENTINEL)
    # the separators and the sentinel are the only bytes that are no letters
    if np.count_nonzero((text < _LOWEST_LETTER) | (text > _HIGHEST_LETTER)) != len(s_rows) + 1:
        return None
    join = SegmentJoin(text=text.tobytes().upper(), boundaries=boundaries, lengths=lengths)
    del text

    for f in (2, 4):
        begins, ends = records.field(f, l_rows)
        if ((ends - begins != 1) | (buf[begins] != _PLUS)).any():
            return None
    begins, ends = records.field(5, l_rows)
    star = (ends - begins == 1) & (buf[np.minimum(begins, len(buf) - 1)] == _STAR)
    counted = (ends > begins) & (buf[np.maximum(ends - 1, 0)] == _M)
    counted[counted] = decimals(buf, begins[counted], ends[counted] - 1, leading_zeros=True) >= 0
    if not (star | counted).all():
        return None
    for f in (1, 3):
        if (locate(decimals(buf, *records.field(f, l_rows))) < 0).any():
            return None

    path_names = [records.text(a, b) for a, b in zip(*(x.tolist() for x in records.field(1, p_rows)))]
    if len(set(path_names)) != len(path_names):
        return None
    paths = _paths_as_numbers(records, p_rows, locate)
    if paths is None:
        return None
    steps, path_offsets, overlaps = paths
    return GfaDocument(header_tags, join, ids, steps, path_offsets, path_names, overlaps)


def _paths_as_numbers(records: Records, p_rows: np.ndarray, locate):
    """Steps, path offsets and overlaps of the P-records ``p_rows`` whose
    step names are all plain decimal ids, found by ``locate``, and whose
    overlaps are all ``*`` or ``N M`` tokens that match the step counts;
    None otherwise."""
    buf = records.buf
    step_begins, step_ends = records.field(2, p_rows)
    overlap_begins, overlap_ends = records.field(3, p_rows)
    listed = (overlap_ends - overlap_begins != 1) | (buf[np.minimum(overlap_begins, len(buf) - 1)] != _STAR)
    group = np.cumsum(step_ends - step_begins) // PATH_BYTES_PER_PARSE
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(p_rows)]
    step_parts, count_parts, overlap_parts = [], [], []
    for a, b in zip(bounds, bounds[1:]):
        parsed = number_lists(buf, step_begins[a:b], step_ends[a:b], _PLUS, leading_zeros=False)
        if parsed is None:
            return None
        steps, counts = parsed
        steps = locate(steps)
        if (steps < 0).any():
            return None
        part = listed[a:b]
        parsed = number_lists(buf, overlap_begins[a:b][part], overlap_ends[a:b][part], _M, leading_zeros=True)
        if parsed is None or (parsed[1] != counts[part] - 1).any():
            return None
        overlaps = np.zeros(len(steps), dtype=np.int64)
        joins = np.repeat(part, counts)
        joins[np.cumsum(counts) - counts] = False  # a path's first step joins nothing
        overlaps[joins] = parsed[0]
        step_parts.append(steps.astype(np.int32))
        count_parts.append(counts)
        overlap_parts.append(overlaps)
    path_offsets = np.append(0, np.cumsum(np.concatenate(count_parts)))
    return np.concatenate(step_parts), path_offsets, np.concatenate(overlap_parts)
