"""Validation of prefix-free graphs: structural invariants and prefix-freeness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError
from .graph import PAD, PrefixFreeGraph
from .stream import mark_blocks
from .suffixes import build_suffix_table


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


def validate(graph: PrefixFreeGraph) -> ValidationReport:
    """Check the structural invariants, and prefix-freeness by the stream's
    own check on the suffix table, which reports the first violation only."""
    report = _structural_report(graph)
    try:
        mark_blocks(build_suffix_table(graph), graph.lengths, graph.k)
    except StructureError as exc:
        report.errors.append(str(exc))
    return report
