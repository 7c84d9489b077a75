"""Lines, fields and numbers of a text as numpy columns.

The text is one byte buffer.  Its lines, their tab-separated fields and
decimal numbers in them are found with whole-buffer numpy operations, so
no Python object is made per line or per number.
"""

from __future__ import annotations

import numpy as np

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


def number_lists(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray, suffix: int, leading_zeros: bool):
    """The numbers and per-field counts of fields ``buf[begins[i]:ends[i]]``
    that each read ``N<suffix>,N<suffix>,...``, every N as :func:`decimals`
    takes it; None if any field has another form."""
    # the fields, each with the byte after it made a comma
    fields = gather(buf, begins, ends + 1)
    field_ends = np.cumsum(ends - begins + 1) - 1
    fields[field_ends] = _COMMA
    cuts = np.flatnonzero(fields == _COMMA)
    if np.count_nonzero(fields == suffix) != len(cuts) or (fields[cuts - 1] != suffix).any():
        return None
    counts = np.diff(np.searchsorted(cuts, field_ends), prepend=-1)
    # one token over and over, as in a path's overlaps, is read once
    period = int(cuts[0]) + 1 if len(cuts) else 0
    if period and np.array_equal(fields[period:], fields[:-period]):
        values = np.repeat(decimals(fields, cuts[:1] - period + 1, cuts[:1] - 1, leading_zeros), len(cuts))
    else:
        token_begins = np.zeros_like(cuts)
        token_begins[1:] = cuts[:-1] + 1
        values = decimals(fields, token_begins, cuts - 1, leading_zeros)
    if (values < 0).any():
        return None
    return values, counts


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
