"""Validation of prefix-free graphs: structural invariants and prefix-freeness.

Prefix-freeness is defined once, by :func:`check_prefix_free`, which the
builders' ``validate`` and the stream both call.  It scans the segment
join for the segments' last k + 1 letters; no suffix is sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automaton import TriggerSet, compile_triggers
from .errors import StructureError
from .graph import PAD, SEPARATOR, PrefixFreeGraph


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _structural_report(graph: PrefixFreeGraph) -> ValidationReport:
    """Every check but prefix-freeness; the error messages are the return value."""
    report = ValidationReport()
    err = report.errors.append
    k = graph.k
    segs = graph.segments
    n = len(segs)

    # Per segment: codes of its first and last k letters (equal codes, equal
    # letters), whether it holds a pad, and whether it ends with k of them.
    code_of: dict[str, int] = {}
    heads, tails, padded, end_padded = [], [], [], []
    for i, seg in enumerate(segs):
        content = seg.content
        if len(content) < k:
            err(f"segment {i} shorter than k")
        if i and segs[i - 1].content >= content:
            err(f"segments {i - 1} and {i} not in strict lexicographic order")
        dot = content.find(PAD)
        if dot != -1:
            run = content[dot:]
            if set(run) != {PAD} or len(run) != k:
                err(f"segment {i} has misplaced pad characters")
        heads.append(code_of.setdefault(content[:k], len(code_of)))
        tails.append(code_of.setdefault(content[-k:], len(code_of)))
        padded.append(dot != -1)
        # count the trailing pads: PAD * k would be as large as the TL tag
        end_padded.append(len(content) - len(content.rstrip(PAD)) >= k)
    # row n stands for every unknown id
    heads = np.array(heads + [-1], dtype=np.int32)
    tails = np.array(tails + [-1], dtype=np.int32)
    padded = np.array(padded + [False])
    end_padded = np.array(end_padded + [True])

    begins, ends = graph.path_offsets[:-1], graph.path_offsets[1:]
    used = ends > begins
    known = (graph.steps >= 0) & (graph.steps < n)
    at = np.where(known, graph.steps, n)  # the messages read the ids from graph.paths
    # step i breaks the k-overlap with step i - 1 of its path
    broken = np.zeros(len(at), dtype=bool)
    np.not_equal(tails[at[:-1]], heads[at[1:]], out=broken[1:])
    broken[begins[used]] = False
    stray = padded[at]  # a padded step that is not its path's last
    stray[ends[used] - 1] = False
    # the paths with a problem; only these are gone through step by step
    flagged = ~used
    flagged[used] |= ~end_padded[at[ends[used] - 1]]
    flagged[np.searchsorted(ends, np.flatnonzero(~known | broken | stray), side="right")] = True
    for j in np.flatnonzero(flagged).tolist():
        name, path = graph.paths[j]
        b, e = begins[j], ends[j]
        if b == e:
            err(f"path {j} ({name!r}) is empty")
            continue
        unknown = np.flatnonzero(~known[b:e]).tolist()
        for t in unknown:
            err(f"path {j} step {t} references unknown segment {path[t]}")
        if unknown:
            continue
        for t in np.flatnonzero(broken[b:e]).tolist():
            err(f"path {j} step {t}: adjacent segments do not overlap by k")
        if not end_padded[at[e - 1]]:
            err(f"path {j} does not end with {k} pad characters")
        for t in np.flatnonzero(stray[b:e]).tolist():
            err(f"path {j} step {t}: padded segment {path[t]} is not path-final")
    return report


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
    owner: dict[str, int] = {}
    for i, seg in enumerate(graph.segments):
        if len(seg.content) > k:
            owner.setdefault(seg.content[-k - 1 :], i)
    text = graph.join.text
    # the tails may end in pads, which TriggerSet.from_words rejects
    ends = compile_triggers(TriggerSet(words=tuple(owner), k=k + 1)).match_ends(text.decode("ascii"))
    # a segment's last window is followed by its separator
    inner = ends[np.frombuffer(text, dtype=np.uint8)[ends + 1] != ord(SEPARATOR)]
    if inner.size:
        end = int(inner[0])
        a = owner[text[end - k : end + 1].decode("ascii")]
        b = int(np.searchsorted(graph.join.boundaries, end, side="right")) - 1
        raise StructureError(
            f"segment suffixes are not prefix-free: the suffix of segment {a} "
            f"at offset {graph.lengths[a] - k - 1} is a proper prefix of the suffix of segment "
            f"{b} at offset {end - k - graph.join.boundaries[b]}"
        )


def validate(graph: PrefixFreeGraph) -> ValidationReport:
    """Check the structural invariants, and prefix-freeness, of which only
    the first violation is reported."""
    report = _structural_report(graph)
    try:
        check_prefix_free(graph)
    except StructureError as exc:
        report.errors.append(str(exc))
    return report
