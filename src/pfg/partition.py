"""Partitioning sequences into prefix-free segments at trigger occurrences."""

from __future__ import annotations

from .automaton import TriggerScanner, TriggerSet, compile_triggers
from .graph import PAD, Pangenome, PrefixFreeGraph, normalize


def partition_sequence(seq: str, scanner: TriggerScanner, k: int) -> list[str]:
    """Split ``seq`` into overlapping segments.

    Every trigger occurrence closes a segment running from the previous
    boundary to the occurrence end; the new boundary is the occurrence
    start.  The final segment extends to the end of the sequence plus k
    pad characters.  Overlapping occurrences each close a segment, except
    an occurrence at the very start, which would close one of length k.
    """
    ends = scanner.match_ends(seq)
    ends = ends[ends != k - 1]
    starts = [0, *(ends - (k - 1)).tolist()]
    segments = [seq[a:b] for a, b in zip(starts, (ends + 1).tolist())]
    segments.append(seq[starts[-1] :] + PAD * k)
    return segments


def build_graph(pangenome: Pangenome, triggers: TriggerSet) -> PrefixFreeGraph:
    """Partition every sequence and assemble the normalized graph."""
    scanner = compile_triggers(triggers)
    k = triggers.k
    discovery: dict[str, int] = {}
    paths = []
    names = []
    for name, data in pangenome.sequences:
        paths.append([discovery.setdefault(s, len(discovery)) for s in partition_sequence(data, scanner, k)])
        names.append(name)
    segments = {sid: content for content, sid in discovery.items()}
    return normalize(segments, paths, k, names=names)
