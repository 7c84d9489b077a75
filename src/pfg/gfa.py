"""GFA 1.0 serialization and parsing of prefix-free graphs.

Graphs are written with pad dots included in the S-lines and the trigger
length recorded as a ``TL`` header tag, so a GFA file alone fully
determines the graph and its joins.  Reverse orientations, walks
(W-records) and GFA 2.0 are unsupported.  ``read_gfa`` reads a file into a
columnar ``GfaDocument`` (``document.read_columns``); ``graph_from_gfa``
and ``expand_gfa_paths`` turn a document into a graph or into sequences.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, StructureError
from .graph import PAD, Pangenome, PrefixFreeGraph, SegmentJoin
from .validation import _structural_errors

if TYPE_CHECKING:
    from .document import GfaDocument


# Path steps per group when gfa2pfg checks the declared overlaps.
STEPS_PER_CHECK = 1 << 16

# Lines per write before the P-lines: on an unbuffered sink each write is a
# syscall, and one write of everything would raise the peak memory.
LINES_PER_WRITE = 512


def write_gfa(graph: PrefixFreeGraph, sink) -> None:
    """Deterministic GFA 1.0 output: header, S by id, L sorted, P in order."""
    k = graph.k
    # Key a * n + b for each step pair (a, b), sorted and deduplicated by
    # hand (np.unique imports numpy.ma on its first call).  A path's last
    # step pairs with nothing; its key -1 sorts first and goes with the
    # repeats.
    n = len(graph.join.lengths)
    steps = graph.steps
    keys = steps.astype(np.int64)
    keys *= n
    keys[:-1] += steps[1:]
    keys[graph.path_offsets[1:] - 1] = -1
    keys.sort()
    pairs = keys[1:][keys[1:] != keys[:-1]]
    del keys
    lines = chain(
        [f"H\tVN:Z:1.0\tTL:i:{k}\n"],
        (f"S\t{i}\t{content}\n" for i, content in enumerate(graph.join.contents())),
        (f"L\t{a}\t+\t{b}\t+\t{k}M\n" for a, b in zip((pairs // n).tolist(), (pairs % n).tolist())),
    )
    while chunk := "".join(islice(lines, LINES_PER_WRITE)):
        sink.write(chunk)
    bounds = graph.path_offsets.tolist()
    for name, a, b in zip(graph.path_names, bounds, bounds[1:]):
        path = steps[a:b].tolist()
        overlaps = ",".join([f"{k}M"] * (len(path) - 1)) or "*"
        sink.write(f"P\t{name}\t{'+,'.join(map(str, path))}+\t{overlaps}\n")


def read_gfa(stream) -> GfaDocument:
    """Tolerant GFA parse of a text stream: unknown record types are
    ignored, records may come in any order, and segment names may be any
    strings.  L-records are checked but not kept."""
    # loaded on the first read, so that fasta2pfg never loads the reader
    from .document import read_columns

    data = stream.read().encode("utf-8")
    if not data.endswith(b"\n"):
        data += b"\n"
    return read_columns(data)


def expand_gfa_paths(doc: GfaDocument) -> Pangenome:
    """Expand each path by overlap-eliding concatenation; strip trailing pads.

    Declared overlaps must agree with the actual segment sequences, and
    none may be longer than a segment it joins.  Pads may end a path's
    spelling but not come before a letter.
    """
    text, starts, lengths = doc.join.text, doc.join.boundaries, doc.join.lengths
    steps, offsets, overlaps = doc.steps, doc.path_offsets, doc.overlaps
    first_bad = _first_bad_join(doc)
    bounds = offsets.tolist()
    sequences = []
    for name, a, b in zip(doc.path_names, bounds, bounds[1:]):
        if first_bad is not None and first_bad < b:
            t = first_bad - a
            ov = int(overlaps[first_bad])
            previous, following = steps[first_bad - 1 : first_bad + 1]
            if ov > min(lengths[previous], lengths[following]):
                raise FormatError(f"path {name!r} step {t}: declared overlap {ov} is longer than a segment it joins")
            raise FormatError(f"path {name!r} step {t}: declared overlap {ov} does not match the segment sequences")
        ids = steps[a:b]
        begins = starts[ids] + overlaps[a:b]
        ends = starts[ids] + lengths[ids]
        expanded = b"".join([text[s:e] for s, e in zip(begins.tolist(), ends.tolist())]).rstrip(PAD.encode())
        if not expanded:
            raise FormatError(f"path {name!r} expands to an empty sequence")
        pad = expanded.find(PAD.encode())
        if pad >= 0:
            t = int(np.searchsorted(np.cumsum(ends - begins), pad, side="right"))
            raise FormatError(f"path {name!r} step {t}: pad {PAD!r} before the end of the path")
        sequences.append((name, expanded.decode("ascii")))
    return Pangenome(sequences=sequences)


def _first_bad_join(doc: GfaDocument) -> int | None:
    """The first step, in path order, whose declared overlap is longer than
    the step before it or than its own segment, or does not match the end
    of the step before it; None if there is none.

    The steps are checked in groups of STEPS_PER_CHECK, which bounds the
    check's temporary arrays, and each distinct (previous segment,
    segment, overlap) triple of a group is compared once.
    """
    text, starts, lengths = doc.join.text, doc.join.boundaries, doc.join.lengths
    steps, overlaps = doc.steps, doc.overlaps
    for first in range(0, len(steps), STEPS_PER_CHECK):
        # overlaps is 0 at each path's first step, so no pair crosses two paths
        joins = first + np.flatnonzero(overlaps[first : first + STEPS_PER_CHECK])
        previous, following, ov = steps[joins - 1], steps[joins], overlaps[joins]
        bad = ov > np.minimum(lengths[previous], lengths[following])
        order = np.lexsort((ov, following, previous))
        previous, following, ov = previous[order], following[order], ov[order]
        distinct = np.ones(len(order), dtype=bool)
        distinct[1:] = (previous[1:] != previous[:-1]) | (following[1:] != following[:-1]) | (ov[1:] != ov[:-1])
        previous, following, ov = previous[distinct], following[distinct], ov[distinct]
        ends = starts[previous] + lengths[previous]
        mismatch = np.array(
            [
                not too_long and text[end - o : end] != text[start : start + o]
                for too_long, end, start, o in zip(
                    bad[order][distinct].tolist(), ends.tolist(), starts[following].tolist(), ov.tolist()
                )
            ],
            dtype=bool,
        )
        bad[order] |= mismatch[np.cumsum(distinct) - 1]
        hits = np.flatnonzero(bad)
        if hits.size:
            return int(joins[hits[0]])
    return None


def graph_from_gfa(doc: GfaDocument) -> PrefixFreeGraph:
    """Interpret a GFA document written by :func:`write_gfa` as a graph.

    The S-records are put in id order; prefix-freeness is left to the
    stream, which checks it before it emits."""
    k = doc.k
    if k is None:
        raise FormatError("missing TL header tag (trigger length)")
    n = len(doc.ids)
    # exactly the ids in plain decimal: int() would also take 01, +1, 0_1 and " 1"
    order = np.argsort(doc.ids)
    if not np.array_equal(doc.ids[order], np.arange(n)):
        raise FormatError(f"segment names must be the ids 0 to {n - 1} in plain decimal")
    join, steps = doc.join, doc.steps
    if not np.array_equal(order, np.arange(n)):
        contents = join.contents()
        join = SegmentJoin.of([contents[r] for r in order.tolist()])
        steps = doc.ids[steps].astype(np.int32)
    graph = PrefixFreeGraph(k=k, join=join, steps=steps, path_offsets=doc.path_offsets, path_names=doc.path_names)
    errors = _structural_errors(graph)
    if errors:
        raise StructureError("GFA does not encode a valid prefix-free graph: " + "; ".join(errors))
    # the graph reads each path as its segments overlapping by k, so a path
    # that declares any other overlap would spell another sequence
    wrong = doc.overlaps != k
    wrong[doc.path_offsets[:-1]] = False  # a path's first step joins nothing
    if wrong.any():
        j = int(np.searchsorted(doc.path_offsets, np.argmax(wrong), side="right")) - 1
        raise FormatError(f"path {doc.path_names[j]!r} must declare an overlap of {k}M at every join")
    return graph
