"""Prefix-free graph data model: normalization and reconstruction.

A prefix-free graph stores a sequence collection as a dictionary of
segments (lexicographically ordered, ID = rank) plus one ID-path per
input sequence.  Adjacent segments on a path overlap by exactly ``k``
characters and the last segment of every path ends with ``k`` pad
characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import StructureError

SENTINEL = "$"  # rank 0, terminates joins and marks sequence starts in the BWT
SEPARATOR = "#"  # rank 1, delimits segments/paths inside joins
PAD = "."  # rank 2, appended k times to the end of every sequence
RESERVED = (SENTINEL, SEPARATOR, PAD)  # in rank order

# Input characters must rank strictly above PAD.  Since SENTINEL (36) and
# SEPARATOR (35) sort below PAD (46) in byte order, rejecting everything
# <= PAD rejects all three reserved characters at once.  The alphabet ends
# at the last printable ASCII character, so every input is one byte per
# letter in the joins.
_MIN_INPUT = ord(PAD)
_MAX_INPUT = ord("~")
_INVALID_INPUT = re.compile(f"[^{chr(_MIN_INPUT + 1)}-{chr(_MAX_INPUT)}]")


def char_rank(c: str) -> int:
    """Total order used for suffix sorting: $ < # < . < input bytes."""
    return RESERVED.index(c) if c in RESERVED else len(RESERVED) + ord(c)


def invalid_letter(data: str) -> str | None:
    """The first character of ``data`` outside the input alphabet, or None."""
    match = _INVALID_INPUT.search(data)
    return match.group() if match else None


def check_sequence(data: str) -> None:
    """Reject empty sequences and sequences with reserved or invalid characters."""
    if not data:
        raise StructureError("empty sequence")
    bad = invalid_letter(data)
    if bad is not None:
        raise StructureError(f"reserved or invalid character {bad!r} in sequence")


@dataclass
class Pangenome:
    """An ordered collection of named sequences analyzed jointly."""

    sequences: list[tuple[str, str]]

    def __post_init__(self):
        for _, data in self.sequences:
            check_sequence(data)

    @property
    def total_length(self) -> int:
        return sum(len(data) for _, data in self.sequences)


@dataclass(frozen=True)
class Segment:
    content: str  # its id is its index in the graph's segment list


@dataclass
class SegmentJoin:
    """All segment contents concatenated with separators and a sentinel."""

    text: bytes
    boundaries: np.ndarray  # int64 start offset of each segment in text


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, which every reader of a graph shares, made read-only."""
    array.flags.writeable = False
    return array


@dataclass
class PrefixFreeGraph:
    """Segments and ID-paths, plus columns derived from them.

    The columns are built once, when the graph is made, so a graph must not
    be changed after it is made.  Segment contents must be ASCII.
    """

    k: int
    segments: list[Segment]
    paths: list[tuple[str, list[int]]]
    lengths: np.ndarray = field(init=False, repr=False, compare=False)  # int64 segment lengths, pads included
    join: SegmentJoin = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)  # int32 segment id of every path step, in path order
    # int64, one more than the path count: path j's steps are
    # steps[path_offsets[j]:path_offsets[j + 1]]
    path_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        contents = [seg.content for seg in self.segments]
        self.lengths = _read_only(np.fromiter(map(len, contents), dtype=np.int64, count=len(contents)))
        self.join = SegmentJoin(
            text=SEPARATOR.join([*contents, SENTINEL]).encode("ascii"),
            boundaries=_read_only(np.cumsum(self.lengths + 1) - self.lengths - 1),
        )
        counts = np.fromiter((len(path) for _, path in self.paths), dtype=np.int64, count=len(self.paths))
        self.path_offsets = _read_only(np.append(0, np.cumsum(counts)))
        self.steps = _read_only(
            np.fromiter(chain.from_iterable(path for _, path in self.paths), dtype=np.int32, count=int(counts.sum()))
        )

    def content(self, seg_id: int) -> str:
        return self.segments[seg_id].content


def normalize(segments, paths, k, names=None) -> PrefixFreeGraph:
    """Relabel discovery-ordered segments by lexicographic rank.

    ``segments`` maps discovery IDs to contents, ``paths`` lists discovery
    IDs per sequence.  The same permutation that sorts the segments is
    applied to every path.
    """
    contents = list(segments.values())
    if len(set(contents)) != len(contents):
        raise StructureError("duplicate segment content under distinct discovery ids")
    order = sorted(segments, key=lambda i: segments[i])
    rank = {old: new for new, old in enumerate(order)}
    new_segments = [Segment(segments[old]) for old in order]
    if names is None:
        names = [f"path_{j}" for j in range(len(paths))]
    new_paths = []
    for name, path in zip(names, paths, strict=True):
        try:
            new_paths.append((name, [rank[old] for old in path]))
        except KeyError as exc:
            raise StructureError(f"path {name!r} references unknown segment {exc.args[0]}") from None
    return PrefixFreeGraph(k=k, segments=new_segments, paths=new_paths)


def reconstruct(graph: PrefixFreeGraph, path_index: int) -> str:
    """Expand a path back into its original sequence."""
    _, path = graph.paths[path_index]
    k = graph.k
    return "".join(graph.content(sid)[:-k] for sid in path)
