"""Validation of prefix-free graphs: structural invariants and prefix-freeness.

Prefix-freeness is defined once, by :func:`check_prefix_free`, which the
builders' ``validate`` and the stream both call.  It scans the segment
join for the segments' last k + 1 letters; no suffix is sorted.
"""

from __future__ import annotations

from operator import ge

import numpy as np

from .automaton import TriggerScanner
from .errors import StructureError
from .graph import PAD, SEPARATOR, PrefixFreeGraph


class ValidationReport:
    def __init__(self, errors: list[str]):
        self.errors = errors

    @property
    def ok(self) -> bool:
        return not self.errors


def _structural_errors(graph: PrefixFreeGraph) -> list[str]:
    """The message of each failed check, every check but prefix-freeness;
    the graph's constructor has refused unknown ids and empty paths."""
    errors: list[str] = []
    err = errors.append
    k = graph.k
    contents = graph.join.contents()
    n = len(contents)
    lengths = graph.join.lengths

    # Per segment: codes of its first and last k letters (equal codes, equal
    # letters), where its first pad is, and how many pads end it.
    code_of: dict[str, int] = {}
    heads = np.array([code_of.setdefault(content[:k], len(code_of)) for content in contents], dtype=np.int32)
    tails = np.array([code_of.setdefault(content[-k:], len(code_of)) for content in contents], dtype=np.int32)
    dots = np.array([content.find(PAD) for content in contents], dtype=np.int64)
    # count the trailing pads: PAD * k would be as large as the TL tag
    end_pads = np.array([len(content) - len(content.rstrip(PAD)) for content in contents], dtype=np.int64)
    unordered = np.zeros(n, dtype=bool)
    unordered[1:] = list(map(ge, contents[:-1], contents[1:]))
    del contents
    short = lengths < k
    padded = dots >= 0
    # the pads must be the segment's last k letters
    misplaced = padded & ((lengths - dots != end_pads) | (end_pads != k))
    for i in np.flatnonzero(short | unordered | misplaced).tolist():
        if short[i]:
            err(f"segment {i} shorter than k")
        if unordered[i]:
            err(f"segments {i - 1} and {i} not in strict lexicographic order")
        if misplaced[i]:
            err(f"segment {i} has misplaced pad characters")

    steps = graph.steps
    begins, ends = graph.path_offsets[:-1], graph.path_offsets[1:]
    # step i breaks the k-overlap with step i - 1 of its path
    broken = np.zeros(len(steps), dtype=bool)
    np.not_equal(tails[steps[:-1]], heads[steps[1:]], out=broken[1:])
    broken[begins] = False
    stray = padded[steps]  # a padded step that is not its path's last
    stray[ends - 1] = False
    unpadded = end_pads[steps[ends - 1]] < k
    # a path spells each step's letters but the last k, which the next step
    # or the pads repeat, so only a step longer than k spells a letter
    spells = np.logical_or.reduceat((lengths > k)[steps], begins)
    # the paths with a problem; only these are gone through step by step
    flagged = unpadded | ~spells
    flagged[np.searchsorted(ends, np.flatnonzero(broken | stray), side="right")] = True
    for j in np.flatnonzero(flagged).tolist():
        b, e = begins[j], ends[j]
        for t in np.flatnonzero(broken[b:e]).tolist():
            err(f"path {j} step {t}: adjacent segments do not overlap by k")
        if unpadded[j]:
            err(f"path {j} does not end with {k} pad characters")
        for t in np.flatnonzero(stray[b:e]).tolist():
            err(f"path {j} step {t}: padded segment {steps[b + t]} is not path-final")
        if not spells[j]:
            err(f"path {j} ({graph.path_names[j]!r}) spells an empty sequence")
    return errors


def check_prefix_free(graph: PrefixFreeGraph) -> None:
    """Raise StructureError if a segment suffix longer than k is a proper
    prefix of another segment suffix.

    If S is, its last k + 1 letters, which are also the last k + 1 of its
    own segment, occur in the other segment at a window that does not end
    it; and any such occurrence makes those k + 1 letters a proper prefix.
    So one scan of the join's (k + 1)-windows for the segments' last k + 1
    letters finds every violation, and its first hit that does not end a
    segment is the shortest violation, first in join order.
    """
    k = graph.k
    # each (k + 1)-letter segment tail, and the first segment ending with it
    text, starts, lengths = graph.join.text, graph.join.boundaries, graph.join.lengths
    owner: dict[str, int] = {}
    for i in np.flatnonzero(lengths > k).tolist():
        end = int(starts[i] + lengths[i])
        owner.setdefault(text[end - k - 1 : end].decode("ascii"), i)
    ends = TriggerScanner(tuple(owner), k + 1).match_ends(text.decode("ascii"))
    # a segment's last window is followed by its separator
    inner = ends[np.frombuffer(text, dtype=np.uint8)[ends + 1] != ord(SEPARATOR)]
    if inner.size:
        end = int(inner[0])
        a = owner[text[end - k : end + 1].decode("ascii")]
        b = int(np.searchsorted(starts, end, side="right")) - 1
        raise StructureError(
            f"segment suffixes are not prefix-free: the suffix of segment {a} "
            f"at offset {lengths[a] - k - 1} is a proper prefix of the suffix of segment "
            f"{b} at offset {end - k - starts[b]}"
        )


def validate(graph: PrefixFreeGraph) -> ValidationReport:
    """Check the structural invariants, and prefix-freeness, of which only
    the first violation is reported."""
    report = ValidationReport(_structural_errors(graph))
    try:
        check_prefix_free(graph)
    except StructureError as exc:
        report.errors.append(str(exc))
    return report
