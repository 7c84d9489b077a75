"""Validation of prefix-free graphs: structural invariants and prefix-freeness."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StructureError
from .graph import PAD, PrefixFreeGraph
from .occurrences import segment_lengths
from .stream import mark_blocks
from .suffixes import build_suffix_table


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


def _structural_report(graph: PrefixFreeGraph) -> ValidationReport:
    """Every check but prefix-freeness; diagnostics are the return value."""
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
        # count the trailing pads: PAD * k would be as large as the TL tag
        last = segs[path[-1]].content
        if len(last) - len(last.rstrip(PAD)) < k:
            err(f"path {j} does not end with {k} pad characters")
        for t, sid in enumerate(path[:-1]):
            if PAD in segs[sid].content:
                err(f"path {j} step {t}: padded segment {sid} is not path-final")
    return report


def validate(graph: PrefixFreeGraph) -> ValidationReport:
    """Check the structural invariants, and prefix-freeness by the stream's
    own check on the suffix table, which reports the first violation only."""
    report = _structural_report(graph)
    try:
        mark_blocks(build_suffix_table(graph), segment_lengths(graph), graph.k)
    except StructureError as exc:
        report.issues.append(Issue("error", str(exc)))
    return report
