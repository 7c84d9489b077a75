"""Partitioning sequences into prefix-free segments at trigger occurrences."""

from __future__ import annotations

from array import array

from .automaton import TriggerSet
from .graph import PAD, Pangenome, PrefixFreeGraph, normalize


def partition_sequence(seq: str, triggers: TriggerSet) -> list[str]:
    """Split ``seq`` into overlapping segments.

    Every trigger occurrence closes a segment running from the previous
    boundary to the occurrence end; the new boundary is the occurrence
    start.  The final segment extends to the end of the sequence plus k
    pad characters.  Overlapping occurrences each close a segment, except
    an occurrence at the very start, which would close one of length k.
    """
    k = triggers.k
    ends = triggers.match_ends(seq)
    ends = ends[ends != k - 1]
    starts = [0, *(ends - (k - 1)).tolist()]
    segments = [seq[a:b] for a, b in zip(starts, (ends + 1).tolist())]
    segments.append(seq[starts[-1] :] + PAD * k)
    return segments


def build_graph(pangenome: Pangenome, triggers: TriggerSet) -> PrefixFreeGraph:
    """Partition every sequence and assemble the normalized graph.

    Each segment gets an id in order of discovery, and every path's ids go
    into one int32 buffer; ``normalize`` then relabels them by rank."""
    discovery: dict[str, int] = {}
    steps = array("i")
    offsets = [0]
    for _, data in pangenome.sequences:
        steps.extend(discovery.setdefault(s, len(discovery)) for s in partition_sequence(data, triggers))
        offsets.append(len(steps))
    names = [name for name, _ in pangenome.sequences]
    return normalize(list(discovery), steps, offsets, triggers.k, names)
