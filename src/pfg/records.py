"""Lines, fields, tokens, numbers and names of a text as numpy columns.

The text is one byte buffer.  Its lines, their tab- and comma-separated
fields, and decimal numbers and names in them are found with whole-buffer
numpy operations, so no Python object is made per line or per number.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

_TAB, _NEWLINE, _CR, _COMMA, _ZERO = b"\t\n\r,0"
# a number of at most this many digits fits an int64
_MAX_DIGITS = 18


def gather(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The bytes of the ranges ``buf[begins[i]:ends[i]]``, which must be
    disjoint and in order, one after another.

    A boolean mask over the stretch of ``buf`` that the ranges span picks
    them out, so no index is made per byte.
    """
    if not len(begins):
        return buf[:0].copy()
    low = begins[0]
    cuts = np.empty(2 * len(begins), dtype=np.int64)
    cuts[0::2], cuts[1::2] = begins - low, ends - low
    inside = np.zeros(len(cuts) - 1, dtype=bool)
    inside[0::2] = True
    return buf[low : ends[-1]][np.repeat(inside, np.diff(cuts))]


def decimals(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray, leading_zeros: bool = False) -> np.ndarray:
    """The number spelled by each range ``buf[begins[i]:ends[i]]``, or -1
    where the range is not 1 to 18 ASCII digits, or starts with a 0 that is
    not its only digit while ``leading_zeros`` is false."""
    width = ends - begins
    ok = (width >= 1) & (width <= _MAX_DIGITS)
    if not leading_zeros:
        ok &= (width == 1) | (buf[np.minimum(begins, len(buf) - 1)] != _ZERO)
    values = np.zeros(len(begins), dtype=np.int64)
    strays = np.zeros(len(begins), dtype=bool)
    # place p of every range at once; past a range's start, at is another
    # range's byte or wraps around, and counts for nothing
    at = ends - 1
    for place in range(int(width[ok].max(initial=0))):
        live = width > place
        digit = buf[at] - np.uint8(_ZERO)
        strays |= (digit > 9) & live
        digit *= live
        values += digit * np.int64(10**place)
        at -= 1
    values[~ok | strays] = -1
    return values


def comma_lists(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray):
    """``(fields, token_begins, token_ends, counts)``: the fields
    ``buf[begins[i]:ends[i]]`` one after another, each ended by a comma, the
    bounds of their comma-separated tokens, and each field's token count."""
    fields = gather(buf, begins, ends + 1)
    field_ends = np.cumsum(ends - begins + 1) - 1
    fields[field_ends] = _COMMA
    token_ends = np.flatnonzero(fields == _COMMA)
    counts = np.diff(np.searchsorted(token_ends, field_ends), prepend=-1)
    return fields, np.append(0, token_ends + 1)[:-1], token_ends, counts


def name_keys(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray, words: int) -> np.ndarray:
    """Each name ``buf[begins[i]:ends[i]]`` of fewer than ``8 * words`` bytes as
    ``words`` 64-bit words, its bytes, a 1 and NULs, equal exactly when names are."""
    lengths = ends - begins
    matrix = np.zeros((len(begins), 8 * words), dtype=np.uint8)
    for place in range(int(lengths.max(initial=0))):
        matrix[:, place] = buf[np.minimum(begins + place, len(buf) - 1)] * (lengths > place)
    matrix[np.arange(len(begins)), lengths] = 1
    return matrix.view(np.uint64)


class Records:
    """Line and tab-separated field bounds of a text; line ``i`` is line number ``i + 1``."""

    def __init__(self, data: bytes):
        self.data = data
        self.buf = buf = np.frombuffer(data, dtype=np.uint8)
        self.ends = ends = np.flatnonzero(buf == _NEWLINE)
        self.starts = starts = np.append(0, ends[:-1] + 1)

        def ends_with_cr() -> np.ndarray:
            cr = ends > starts
            cr[cr] = buf[ends[cr] - 1] == _CR
            return cr

        # CR/LF: a line's trailing carriage returns are not part of it; the
        # rare line that ends with more than one loses the rest on its own
        ends[ends_with_cr()] -= 1
        for row in np.flatnonzero(ends_with_cr()).tolist():
            ends[row] = starts[row] + len(data[starts[row] : ends[row]].rstrip(b"\r"))
        self.tabs = np.flatnonzero(buf == _TAB)
        self.first_tab = np.searchsorted(self.tabs, starts)
        self.tab_count = np.searchsorted(self.tabs, ends) - self.first_tab

    def kind(self, letter: str) -> np.ndarray:
        """The lines whose first field is ``letter``, as line indices."""
        buf, starts = self.buf, self.starts
        after = buf[np.minimum(starts + 1, len(buf) - 1)]
        return np.flatnonzero((buf[starts] == ord(letter)) & ((self.ends == starts + 1) | (after == _TAB)))

    def field(self, f: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of field ``f`` >= 1 of the lines ``rows``, which have it."""
        first = self.first_tab[rows] + f
        begins = self.tabs[first - 1] + 1
        ends = np.where(self.tab_count[rows] > f, self.tabs[np.minimum(first, len(self.tabs) - 1)], self.ends[rows])
        return begins, ends

    def text(self, begin: int, end: int) -> str:
        return self.data[begin:end].decode("utf-8")

    def fields(self, row: int) -> list[str]:
        return self.text(self.starts[row], self.ends[row]).split("\t")


def first(mask: np.ndarray) -> int:
    """The index of the first true entry of ``mask``, or its length if none is."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


class Failures(list):
    """The first record to fail each check, as its row and the message for
    its fields, in the order a record's checks run."""

    def check(self, rows: np.ndarray, at: int, message) -> None:
        """Note ``rows[at]``, unless ``at`` is ``len(rows)``: no record failed."""
        if at < len(rows):
            self.append((int(rows[at]), message))

    def raise_first(self, records: Records) -> None:
        """Raise the error of the earliest noted record, if any."""
        if self:
            row, message = min(self, key=lambda failure: failure[0])
            raise FormatError(message(records.fields(row)), line=row + 1)
