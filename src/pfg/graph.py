"""Prefix-free graph data model: the input pangenome, the graph and its normalization.

A prefix-free graph stores a sequence collection as a dictionary of
segments (lexicographically ordered, ID = rank) plus one ID-path per
input sequence.  Adjacent segments on a path overlap by exactly ``k``
characters and the last segment of every path ends with ``k`` pad
characters.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import StructureError

# The reserved characters sort below every letter, in byte order:
# SENTINEL < SEPARATOR < PAD < every input letter.  So a join's bytes are
# their own sort keys, and rejecting every byte up to PAD rejects all three.
# The alphabet ends at the last printable ASCII character, so every input
# is one byte per letter in the joins.
SENTINEL = "$"  # ends the segment join and marks sequence starts in the BWT
SEPARATOR = "%"  # delimits segments inside the segment join
PAD = "."  # appended k times to the end of every sequence
_MIN_INPUT = ord(PAD)
_MAX_INPUT = ord("~")
_LETTERS = bytes(range(_MIN_INPUT + 1, _MAX_INPUT + 1))
_INVALID_INPUT = f"[^{chr(_MIN_INPUT + 1)}-{chr(_MAX_INPUT)}]"


def invalid_letter(data: str) -> str | None:
    """The first character of ``data`` outside the input alphabet, or None.

    A text has none when it is ASCII and deleting every letter from its
    bytes leaves nothing, a test that runs in C.  Only a text that fails it
    is searched, with a regex, for the character to name.
    """
    if data.isascii() and not data.encode("ascii").translate(None, _LETTERS):
        return None
    match = re.search(_INVALID_INPUT, data)
    return match.group() if match else None


class Pangenome:
    """An ordered collection of named sequences analyzed jointly.

    It holds only what a GFA can hold: letters are upper-cased, as both
    readers do, and a name may hold no tab or line end.  A record that is
    already upper-case is stored as given.
    """

    def __init__(self, sequences: list[tuple[str, str]]):
        names = set()
        stored = []
        for record in sequences:
            name, data = record
            if not data:
                raise StructureError("empty sequence")
            bad = invalid_letter(data)
            if bad is not None:
                raise StructureError(f"reserved or invalid character {bad!r} in sequence")
            # a GFA could not read back a path name with a tab or a line
            # end, or one that is repeated
            if "\t" in name or "\n" in name:
                raise StructureError(f"sequence name {name!r} holds a tab or a line end")
            if name in names:
                raise StructureError(f"sequence name {name!r} is repeated")
            names.add(name)
            upper = data.upper()
            stored.append(record if upper == data else (name, upper))
        self.sequences = stored

    @property
    def total_length(self) -> int:
        return sum(len(data) for _, data in self.sequences)


class Segment:
    """One segment of a graph's ``segments`` view; its id is its index there."""

    def __init__(self, content: str):
        self.content = content


class SegmentJoin:
    """All segment contents concatenated with separators and a sentinel."""

    def __init__(self, text: bytes, boundaries: np.ndarray, lengths: np.ndarray):
        self.text = text
        self.boundaries = boundaries  # int64 start offset of each segment in text
        self.lengths = lengths  # int64 length of each segment, pads included

    @classmethod
    def of(cls, contents: list[str]) -> SegmentJoin:
        """The join of ``contents``, which must be ASCII."""
        lengths = np.fromiter(map(len, contents), dtype=np.int64, count=len(contents))
        text = SEPARATOR.join([*contents, SENTINEL]).encode("ascii")
        return cls(text=text, boundaries=np.cumsum(lengths + 1) - lengths - 1, lengths=lengths)

    def contents(self) -> list[str]:
        text, starts = self.text.decode("ascii"), self.boundaries.tolist()
        return [text[a : a + n] for a, n in zip(starts, self.lengths.tolist())]


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, which every reader of a graph shares, made read-only."""
    array.flags.writeable = False
    return array


class PrefixFreeGraph:
    """Segments and ID-paths, held as columns only.

    Segment ``i`` is ``join.text[join.boundaries[i]:][:join.lengths[i]]``
    and path ``j`` is ``path_names[j]`` with the segment ids
    ``steps[path_offsets[j]:path_offsets[j + 1]]``.  Every step is a segment
    id and every path has a step, so ``path_offsets`` rises strictly from 0
    to ``len(steps)``; the constructor raises StructureError otherwise.
    Every reader shares the columns, so a graph must not be changed after
    it is made; its arrays are read-only.
    """

    def __init__(
        self, k: int, join: SegmentJoin, steps: np.ndarray, path_offsets: np.ndarray, path_names: list[str]
    ):
        if not (len(path_offsets) and path_offsets[0] == 0 and path_offsets[-1] == len(steps)):
            raise StructureError(f"path offsets must run from 0 to the step count {len(steps)}")
        spans = np.diff(path_offsets)
        if (spans <= 0).any():
            raise StructureError(f"path {int(np.argmax(spans <= 0))} has no steps")
        n = len(join.lengths)
        if len(steps) and (steps.min() < 0 or steps.max() >= n):
            t = int(np.argmax((steps < 0) | (steps >= n)))
            j = int(np.searchsorted(path_offsets, t, side="right")) - 1
            raise StructureError(f"path {j} step {t - path_offsets[j]} references unknown segment {steps[t]}")
        for array in (join.boundaries, join.lengths, steps, path_offsets):
            _read_only(array)
        self.k = k
        self.join = join
        self.steps = steps  # int32 segment id of every path step, in path order
        self.path_offsets = path_offsets  # int64, one more than the path count
        self.path_names = path_names

    @property
    def segments(self) -> list[Segment]:
        """The segments as objects, built on each access."""
        return [Segment(content) for content in self.join.contents()]

    @property
    def paths(self) -> list[tuple[str, list[int]]]:
        """Each path's name and segment ids as lists, built on each access."""
        bounds = self.path_offsets.tolist()
        return [(name, self.steps[a:b].tolist()) for name, a, b in zip(self.path_names, bounds, bounds[1:])]


def normalize(contents, steps, path_offsets, k, names) -> PrefixFreeGraph:
    """Relabel discovery-ordered segments by lexicographic rank.

    ``contents[i]`` is the segment of discovery id ``i``, and path ``j`` is
    ``names[j]`` with the discovery ids ``steps[path_offsets[j]:path_offsets[j + 1]]``.
    One sort of the contents gives each id its rank, and one gather
    relabels every step.
    """
    order = sorted(range(len(contents)), key=contents.__getitem__)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return PrefixFreeGraph(
        k=k,
        join=SegmentJoin.of([contents[i] for i in order]),
        steps=rank[steps],
        path_offsets=np.asarray(path_offsets, dtype=np.int64),
        path_names=names,
    )

