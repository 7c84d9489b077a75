"""Partitioning sequences into prefix-free segments at trigger occurrences."""

from __future__ import annotations

from .automaton import MatchAutomaton, TriggerSet, compile_triggers
from .graph import PAD, Pangenome, PrefixFreeGraph, normalize


def partition_sequence(seq: str, automaton: MatchAutomaton, k: int) -> list[str]:
    """Split ``seq`` into overlapping segments.

    Every trigger occurrence closes a segment running from the previous
    boundary to the occurrence end; the new boundary is the occurrence
    start.  The final segment extends to the end of the sequence plus k
    pad characters.  Overlapping occurrences each close a segment, except
    an occurrence at the very start, which would close one of length k.
    """
    segments = []
    boundary = 0
    for end in automaton.match_ends(seq):
        if end == k - 1:
            continue
        segments.append(seq[boundary : end + 1])
        boundary = end - k + 1
    segments.append(seq[boundary:] + PAD * k)
    return segments


def build_graph(pangenome: Pangenome, triggers: TriggerSet) -> PrefixFreeGraph:
    """Partition every sequence and assemble the normalized graph."""
    automaton = compile_triggers(triggers)
    k = triggers.k
    discovery: dict[str, int] = {}
    paths = []
    names = []
    for name, data in pangenome.sequences:
        path = []
        for content in partition_sequence(data, automaton, k):
            sid = discovery.get(content)
            if sid is None:
                sid = len(discovery)
                discovery[content] = sid
            path.append(sid)
        paths.append(path)
        names.append(name)
    segments = {sid: content for content, sid in discovery.items()}
    return normalize(segments, paths, k, names=names)
