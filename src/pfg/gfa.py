"""GFA 1.0 serialization and parsing of prefix-free graphs.

Graphs are written with pad dots included in the S-lines and the trigger
length recorded as a ``TL`` header tag, so a GFA file alone fully
determines the graph and its joins.  Reverse orientations and GFA 2.0 are
unsupported.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, StructureError
from .graph import PAD, Pangenome, PrefixFreeGraph, Segment, invalid_letter
from .validation import _structural_report


@dataclass
class GfaDocument:
    header_tags: dict[str, str] = field(default_factory=dict)
    segments: dict[str, str] = field(default_factory=dict)  # name -> sequence
    # (name, segment names, per-step overlaps or None for "*")
    paths: list[tuple[str, list[str], list[int] | None]] = field(default_factory=list)

    @property
    def trigger_length(self) -> int | None:
        tag = self.header_tags.get("TL")
        if tag is None:
            return None
        k = int(tag) if tag.isascii() and tag.isdigit() else 0
        if not 0 < k <= sys.maxsize:
            raise FormatError(f"TL header tag must be a positive integer up to {sys.maxsize}")
        return k


def write_gfa(graph: PrefixFreeGraph, sink) -> None:
    """Deterministic GFA 1.0 output: header, S by id, L sorted, P in order."""
    k = graph.k
    sink.write(f"H\tVN:Z:1.0\tTL:i:{k}\n")
    for seg in graph.segments:
        sink.write(f"S\t{seg.id}\t{seg.content}\n")
    # Key a * n + b for each step pair (a, b), sorted and deduplicated by
    # hand (np.unique imports numpy.ma on its first call).  A path's last
    # step pairs with nothing; its key -1 sorts first and goes with the
    # repeats.
    n = len(graph.segments)
    steps = graph.steps
    keys = steps * n
    keys[:-1] += steps[1:]
    keys[graph.path_offsets[1:] - 1] = -1
    keys.sort()
    pairs = keys[1:][keys[1:] != keys[:-1]]
    for a, b in zip((pairs // n).tolist(), (pairs % n).tolist()):
        sink.write(f"L\t{a}\t+\t{b}\t+\t{k}M\n")
    for name, path in graph.paths:
        overlaps = ",".join([f"{k}M"] * (len(path) - 1)) or "*"
        sink.write(f"P\t{name}\t{'+,'.join(map(str, path))}+\t{overlaps}\n")


def _parse_tags(fields, lineno):
    tags = {}
    for raw in fields:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise FormatError(f"malformed tag {raw!r}", line=lineno)
        tags[parts[0]] = parts[2]
    return tags


def read_gfa(stream) -> GfaDocument:
    """Tolerant GFA parse: unknown record types are ignored, and records may
    come in any order.  L-records are checked but not kept."""
    doc = GfaDocument()
    p_records = []  # (line number, fields) of each P-record
    overlap_of = {}  # each distinct overlap token, parsed once
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "H":
            doc.header_tags.update(_parse_tags(fields[1:], lineno))
        elif kind == "S":
            if len(fields) < 3:
                raise FormatError("S-record needs a name and a sequence", line=lineno)
            if fields[1] in doc.segments:
                raise FormatError(f"segment name {fields[1]!r} is repeated", line=lineno)
            bad = invalid_letter(fields[2].replace(PAD, ""))
            if bad is not None:
                raise FormatError(f"reserved or invalid character {bad!r} in S-record", line=lineno)
            doc.segments[fields[1]] = fields[2].upper()
        elif kind == "L":
            if len(fields) < 6:
                raise FormatError("L-record needs five fields", line=lineno)
            if fields[2] != "+" or fields[4] != "+":
                raise FormatError("reverse orientation is unsupported", line=lineno)
            if fields[5] not in overlap_of:
                overlap_of[fields[5]] = _parse_overlap(fields[5], lineno)
        elif kind == "P":
            if len(fields) < 4:
                raise FormatError("P-record needs a name, steps and overlaps", line=lineno)
            p_records.append((lineno, fields))
    # The path tuples are made after every step list.  Made in between, the
    # ones that Python's tuple free list keeps once the document is freed
    # would pin the pages of the step names (16 MB at 256 x 30 kb).
    names, step_lists, overlap_lists = [], [], []
    for lineno, fields in p_records:
        steps = _step_names(fields[2], doc.segments, lineno)
        if fields[3] == "*":
            overlaps = None
        else:
            tokens = fields[3].split(",")
            for token in set(tokens).difference(overlap_of):
                overlap_of[token] = _parse_overlap(token, lineno)
            overlaps = list(map(overlap_of.__getitem__, tokens))
            if len(overlaps) != len(steps) - 1:
                raise FormatError("overlap count does not match step count", line=lineno)
        names.append(fields[1])
        step_lists.append(steps)
        overlap_lists.append(overlaps)
    doc.paths = list(zip(names, step_lists, overlap_lists))
    return doc


def _step_names(field: str, segments: dict[str, str], lineno: int) -> list[str]:
    """The segment names of a P-record's step field ``name+,name+,...``.

    One split and one membership pass take a well-formed field.  A step
    name holding a comma would split apart, so the comma count must match
    too.  Any other field goes through the steps one by one, which words
    the error of the first bad step.
    """
    steps = field[:-1].split("+,")
    if (
        field.endswith("+")
        and len(steps) == field.count(",") + 1
        and all(map(segments.__contains__, steps))
    ):
        return steps
    steps = []
    for step in field.split(","):
        if step.endswith("-"):
            raise FormatError(f"reverse-orientation step {step!r} is unsupported", line=lineno)
        if not step.endswith("+"):
            raise FormatError(f"malformed step {step!r}", line=lineno)
        if step[:-1] not in segments:
            raise FormatError(f"path step references unknown segment {step[:-1]!r}", line=lineno)
        steps.append(step[:-1])
    return steps


def _parse_overlap(token: str, lineno: int) -> int:
    if token == "*":
        return 0
    if not token.endswith("M") or not token[:-1].isdigit():
        raise FormatError(f"unsupported overlap {token!r}", line=lineno)
    return int(token[:-1])


def expand_gfa_paths(doc: GfaDocument) -> Pangenome:
    """Expand each path by overlap-eliding concatenation; strip trailing pads.

    Declared overlaps must agree with the actual segment sequences.
    """
    sequences = []
    for name, steps, overlaps in doc.paths:
        expanded = doc.segments[steps[0]]
        for t in range(1, len(steps)):
            nxt = doc.segments[steps[t]]
            ov = overlaps[t - 1] if overlaps is not None else 0
            if ov:
                if expanded[-ov:] != nxt[:ov]:
                    raise FormatError(
                        f"path {name!r} step {t}: declared overlap {ov} does not "
                        "match the segment sequences"
                    )
            expanded += nxt[ov:]
        expanded = expanded.rstrip(PAD)
        if not expanded:
            raise FormatError(f"path {name!r} expands to an empty sequence")
        sequences.append((name, expanded))
    return Pangenome(sequences=sequences)


def graph_from_gfa(doc: GfaDocument) -> PrefixFreeGraph:
    """Interpret a GFA document written by :func:`write_gfa` as a graph.

    Prefix-freeness is left to the stream, which checks it before it emits."""
    k = doc.trigger_length
    if k is None:
        raise FormatError("missing TL header tag (trigger length)")
    # exactly the ids in plain decimal: int() would also take 01, +1, 0_1 and " 1"
    names = [str(i) for i in range(len(doc.segments))]
    if doc.segments.keys() != set(names):
        raise FormatError(f"segment names must be the ids 0 to {len(names) - 1} in plain decimal")
    segments = [Segment(i, doc.segments[name]) for i, name in enumerate(names)]
    paths = [(name, list(map(int, steps))) for name, steps, _ in doc.paths]
    graph = PrefixFreeGraph(k=k, segments=segments, paths=paths)
    report = _structural_report(graph)
    if not report.ok:
        raise StructureError(
        "GFA does not encode a valid prefix-free graph: "
            + "; ".join(issue.message for issue in report.errors)
        )
    return graph
