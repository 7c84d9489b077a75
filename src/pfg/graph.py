"""Prefix-free graph data model: normalization, validation, reconstruction.

A prefix-free graph stores a sequence collection as a dictionary of
segments (lexicographically ordered, ID = rank) plus one ID-path per
input sequence.  Adjacent segments on a path overlap by exactly ``k``
characters and the last segment of every path ends with ``k`` pad
characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import StructureError

SENTINEL = "$"  # rank 0, terminates joins and marks sequence starts in the BWT
SEPARATOR = "#"  # rank 1, delimits segments/paths inside joins
PAD = "."  # rank 2, appended k times to the end of every sequence
RESERVED = (SENTINEL, SEPARATOR, PAD)

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
    if c == SENTINEL:
        return 0
    if c == SEPARATOR:
        return 1
    if c == PAD:
        return 2
    return ord(c) + 3


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
    id: int
    content: str


@dataclass
class PrefixFreeGraph:
    k: int
    segments: list[Segment]
    paths: list[tuple[str, list[int]]]

    def content(self, seg_id: int) -> str:
        return self.segments[seg_id].content


@dataclass
class Issue:
    severity: str  # "error" or "warning"
    message: str


@dataclass
class ValidationReport:
    issues: list[Issue] = field(default_factory=list)

    @property
    def errors(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


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
    new_segments = [Segment(new, segments[old]) for new, old in enumerate(order)]
    if names is None:
        names = [f"path_{j}" for j in range(len(paths))]
    new_paths = []
    for name, path in zip(names, paths):
        for old in path:
            if old not in rank:
                raise StructureError(f"path {name!r} references unknown segment {old}")
        new_paths.append((name, [rank[old] for old in path]))
    return PrefixFreeGraph(k=k, segments=new_segments, paths=new_paths)


def validate(graph: PrefixFreeGraph) -> ValidationReport:
    """Check the structural invariants; diagnostics are the return value."""
    report = ValidationReport()
    err = lambda m: report.issues.append(Issue("error", m))
    warn = lambda m: report.issues.append(Issue("warning", m))
    k = graph.k
    segs = graph.segments
    n = len(segs)

    for i, seg in enumerate(segs):
        if seg.id != i:
            err(f"segment at index {i} has id {seg.id}")
        if len(seg.content) < k:
            err(f"segment {i} shorter than k")
        if i and segs[i - 1].content >= seg.content:
            err(f"segments {i - 1} and {i} not in strict lexicographic order")
        if len(seg.content) == k:
            warn(f"segment {i} has degenerate length k")
        dot = seg.content.find(PAD)
        if dot != -1:
            run = seg.content[dot:]
            if set(run) != {PAD} or len(run) != k:
                err(f"segment {i} has misplaced pad characters")

    last_ids = set()
    for j, (name, path) in enumerate(graph.paths):
        if not path:
            err(f"path {j} ({name!r}) is empty")
            continue
        for t, sid in enumerate(path):
            if not 0 <= sid < n:
                err(f"path {j} step {t} references unknown segment {sid}")
        if any(not 0 <= sid < n for sid in path):
            continue
        for t in range(1, len(path)):
            a = segs[path[t - 1]].content
            b = segs[path[t]].content
            if a[-k:] != b[:k]:
                err(f"path {j} step {t}: adjacent segments do not overlap by k")
        last_ids.add(path[-1])
        if not segs[path[-1]].content.endswith(PAD * k):
            err(f"path {j} does not end with {k} pad characters")
        for t, sid in enumerate(path[:-1]):
            if PAD in segs[sid].content:
                err(f"path {j} step {t}: padded segment {sid} is not path-final")

    # Prefix-freeness of segment suffixes longer than k: sort and compare
    # neighbours; equal suffixes from different segments are fine.
    suffixes = sorted(
        (seg.content[p:], seg.id)
        for seg in segs
        for p in range(len(seg.content))
        if len(seg.content) - p > k
    )
    for (a, ida), (b, idb) in zip(suffixes, suffixes[1:]):
        if a != b and b.startswith(a):
            err(f"suffix {a!r} of segment {ida} is a proper prefix of a suffix of segment {idb}")
    return report


def reconstruct(graph: PrefixFreeGraph, path_index: int) -> str:
    """Expand a path back into its original sequence."""
    _, path = graph.paths[path_index]
    k = graph.k
    return "".join(graph.content(sid)[:-k] for sid in path)


def pangenome_offsets(graph: PrefixFreeGraph) -> list[int]:
    """Start offset of each sequence in pangenome coordinates."""
    offsets = []
    total = 0
    for _, path in graph.paths:
        offsets.append(total)
        total += sum(len(graph.content(sid)) - graph.k for sid in path)
    return offsets


def pangenome_length(graph: PrefixFreeGraph) -> int:
    """Total number of pangenome positions (pads excluded)."""
    return sum(
        len(graph.content(sid)) - graph.k for _, path in graph.paths for sid in path
    )
