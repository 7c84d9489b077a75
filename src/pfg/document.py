"""A GFA file's records as columns, and their reader.

The reader parses the whole text as one byte buffer with numpy, so no
Python object is made per segment or per path step.  A record that fails
a check is found from the masks the checks compute.
"""

from __future__ import annotations

import sys

import numpy as np

from .graph import _MAX_INPUT, _MIN_INPUT, PAD, SENTINEL, SEPARATOR, SegmentJoin, invalid_letter
from .paths import overlap_values, read_paths, segment_names
from .records import Failures, Records, first, gather


class GfaDocument:
    """A GFA file's records as columns.

    S-record ``r``, counted in file order, has the upper-cased sequence
    ``join.contents()[r]``; ``ids[r]`` is its name read as a plain decimal
    number, or -1 if the name is not one.  Path ``j`` is named
    ``path_names[j]`` and visits the S-records
    ``steps[path_offsets[j]:path_offsets[j + 1]]``; ``overlaps`` holds the
    overlap each step declares with the step before it, 0 at a path's
    first step and on a path whose overlap field is ``*``.
    """

    def __init__(
        self,
        k: int | None,
        join: SegmentJoin,
        ids: np.ndarray,
        steps: np.ndarray,
        path_offsets: np.ndarray,
        path_names: list[str],
        overlaps: np.ndarray,
    ):
        self.k = k  # the TL header tag's value, None without one
        self.join = join
        self.ids = ids  # int64
        self.steps = steps  # int32
        self.path_offsets = path_offsets  # int64, one more than the path count
        self.path_names = path_names
        self.overlaps = overlaps  # int64, one per step


def read_columns(data: bytes) -> GfaDocument:
    """The document of a text, as bytes that end with a newline; raises the
    error of its first bad record.  Records are checked in two passes, each
    in line order.  The first checks each record on its own: H tags; an
    S-record's fields, name and letters; an L-record's fields, orientations
    and overlap; a P-record's fields and name; and that no record is a
    W-record.  The second checks the names that L- and P-records give, then
    each P-record's overlaps."""
    records = Records(data)
    buf = records.buf
    failures = Failures()
    s_rows = _with_fields(records, "S", 2, "S-record needs a name and a sequence", failures)
    l_rows = _with_fields(records, "L", 5, "L-record needs five fields", failures)
    p_rows = _with_fields(records, "P", 3, "P-record needs a name, steps and overlaps", failures)
    failures.check(records.kind("W"), 0, lambda f: "walks (W-records) are unsupported")
    k = _header_tags(records, failures)
    ids, repeated, locate = segment_names(buf, *records.field(1, s_rows))
    join, bad_letter = _segment_join(records, s_rows)
    failures.check(s_rows, first(repeated), lambda f: f"segment name {f[1]!r} is repeated")
    failures.check(
        s_rows,
        bad_letter,
        lambda f: f"reserved or invalid character {invalid_letter(f[2].replace(PAD, ''))!r} in S-record",
    )
    reverse = [(e - b != 1) | (buf[b] != ord("+")) for b, e in (records.field(f, l_rows) for f in (2, 4))]
    failures.check(l_rows, first(reverse[0] | reverse[1]), lambda f: "reverse orientation is unsupported")
    bad_overlap = first(overlap_values(buf, *records.field(5, l_rows)) < 0)
    failures.check(l_rows, bad_overlap, lambda f: f"unsupported overlap {f[5]!r}")
    path_names = [records.text(a, b) for a, b in zip(*(x.tolist() for x in records.field(1, p_rows)))]
    seen = {}
    repeat = next((j for j, name in enumerate(path_names) if seen.setdefault(name, j) != j), len(path_names))
    failures.check(p_rows, repeat, lambda f: f"path name {f[1]!r} is repeated")
    failures.raise_first(records)

    for f in (1, 3):
        unknown = first(locate(buf, *records.field(f, l_rows)) < 0)
        failures.check(l_rows, unknown, lambda fields, f=f: f"link references unknown segment {fields[f]!r}")
    # a bad link decides over the P-records after it
    if failures:
        p_rows = p_rows[p_rows < min(row for row, _ in failures)]
    steps, path_offsets, overlaps = read_paths(records, p_rows, locate)
    failures.raise_first(records)
    return GfaDocument(k, join, ids, steps, path_offsets, path_names, overlaps)


def _with_fields(records: Records, letter: str, tabs: int, message: str, failures: Failures) -> np.ndarray:
    """The ``letter``-records before the first with fewer than ``tabs`` tabs."""
    rows = records.kind(letter)
    short = first(records.tab_count[rows] < tabs)
    failures.check(rows, short, lambda f: message)
    return rows[:short]


def _header_tags(records: Records, failures: Failures) -> int | None:
    """The ``TL`` tag's value, None without one, from the H-records' tags
    before the first bad one: a tag that is not ``NAME:TYPE:VALUE``, or a
    ``TL`` tag of a type other than ``i``, after another ``TL`` tag, or
    whose value is not a positive integer up to ``sys.maxsize``."""
    k = None
    for row in records.kind("H").tolist():
        for raw in records.fields(row)[1:]:
            parts = raw.split(":", 2)
            if len(parts) != 3:
                problem = f"malformed tag {raw!r}"
            elif parts[0] != "TL":
                continue
            elif parts[1] != "i":
                problem = f"TL header tag must have type i, not {parts[1]!r}"
            elif k is not None:
                problem = "TL header tag is repeated"
            else:
                # ASCII digits only, as int() also takes " 1", "+1" and "1_0";
                # and no more of them than sys.maxsize has, as int() refuses
                # a string of thousands
                value = parts[2]
                if value.isascii() and value.isdigit() and len(value) <= len(str(sys.maxsize)):
                    k = int(value)
                    if 0 < k <= sys.maxsize:
                        continue
                problem = f"TL header tag must be a positive integer up to {sys.maxsize}"
            failures.append((row, lambda f: problem))
            return None
    return k


def _segment_join(records: Records, rows: np.ndarray) -> tuple[SegmentJoin, int]:
    """The join of the upper-cased sequences of the S-records ``rows``, and the index
    in ``rows`` of the first with a byte neither pad nor letter, or ``len(rows)``."""
    begins, ends = records.field(2, rows)
    lengths = ends - begins
    boundaries = np.cumsum(lengths + 1) - lengths - 1
    text = np.empty(int(lengths.sum()) + len(rows) + 1, dtype=np.uint8)
    text[:-1] = gather(records.buf, begins, ends + 1)
    text[boundaries + lengths] = ord(SEPARATOR)
    text[-1] = ord(SENTINEL)
    # an S-record's sequence may hold the pad and every input letter
    bad = (text < _MIN_INPUT) | (text > _MAX_INPUT)
    bad_row = len(rows)
    # the separators and the sentinel are the only bytes that are no letters
    if np.count_nonzero(bad) != len(rows) + 1:
        bad[boundaries + lengths] = False
        bad_row = int(np.searchsorted(boundaries, np.argmax(bad), side="right")) - 1
    del bad
    return SegmentJoin(text=text.tobytes().upper(), boundaries=boundaries, lengths=lengths), bad_row


