"""Reading GFA text line by line.

This reader takes any segment names, and raises the error of the first
bad record.  ``gfa.read_gfa`` uses it for a text that the column reader of
``document`` does not take.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .document import GfaDocument
from .errors import FormatError
from .graph import PAD, SegmentJoin, invalid_letter


def read_lines(text: str) -> GfaDocument:
    """Line-by-line GFA parse of any text; raises the error of the first bad
    record.  Names are checked after all records, in line order."""
    header_tags: dict[str, str] = {}
    record_of: dict[str, int] = {}  # S-record index by name
    path_names: dict[str, None] = {}
    contents, deferred = [], []  # deferred: (line number, fields) of L- and P-records
    overlap_of: dict[str, int] = {}  # each distinct overlap token, parsed once
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "H":
            header_tags.update(_parse_tags(fields[1:], lineno))
        elif kind == "S":
            if len(fields) < 3:
                raise FormatError("S-record needs a name and a sequence", line=lineno)
            if fields[1] in record_of:
                raise FormatError(f"segment name {fields[1]!r} is repeated", line=lineno)
            bad = invalid_letter(fields[2].replace(PAD, ""))
            if bad is not None:
                raise FormatError(f"reserved or invalid character {bad!r} in S-record", line=lineno)
            record_of[fields[1]] = len(contents)
            contents.append(fields[2].upper())
        elif kind == "L":
            if len(fields) < 6:
                raise FormatError("L-record needs five fields", line=lineno)
            if fields[2] != "+" or fields[4] != "+":
                raise FormatError("reverse orientation is unsupported", line=lineno)
            if fields[5] not in overlap_of:
                overlap_of[fields[5]] = _parse_overlap(fields[5], lineno)
            deferred.append((lineno, fields))
        elif kind == "P":
            if len(fields) < 4:
                raise FormatError("P-record needs a name, steps and overlaps", line=lineno)
            if fields[1] in path_names:
                raise FormatError(f"path name {fields[1]!r} is repeated", line=lineno)
            path_names[fields[1]] = None
            deferred.append((lineno, fields))
    step_lists, overlap_lists = [], []
    for lineno, fields in deferred:
        if fields[0] == "L":
            for name in (fields[1], fields[3]):
                if name not in record_of:
                    raise FormatError(f"link references unknown segment {name!r}", line=lineno)
            continue
        steps = _step_ids(fields[2], record_of, lineno)
        if fields[3] == "*":
            overlaps = [0] * len(steps)
        else:
            tokens = fields[3].split(",")
            for token in set(tokens).difference(overlap_of):
                overlap_of[token] = _parse_overlap(token, lineno)
            if len(tokens) != len(steps) - 1:
                raise FormatError("overlap count does not match step count", line=lineno)
            overlaps = [0, *map(overlap_of.__getitem__, tokens)]
        step_lists.append(steps)
        overlap_lists.append(overlaps)
    counts = [len(steps) for steps in step_lists]
    return GfaDocument(
        header_tags=header_tags,
        join=SegmentJoin.of(contents),
        ids=np.array([_plain_id(name) for name in record_of], dtype=np.int64),
        steps=np.fromiter(chain.from_iterable(step_lists), dtype=np.int32, count=sum(counts)),
        path_offsets=np.append(0, np.cumsum(counts, dtype=np.int64)),
        path_names=list(path_names),
        overlaps=np.fromiter(chain.from_iterable(overlap_lists), dtype=np.int64, count=sum(counts)),
    )


def _parse_tags(fields, lineno):
    tags = {}
    for raw in fields:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise FormatError(f"malformed tag {raw!r}", line=lineno)
        tags[parts[0]] = parts[2]
    return tags


def _plain_id(name: str) -> int:
    """The number ``name`` spells, if it is a plain decimal id as
    :func:`records.decimals` takes one, else -1."""
    plain = name.isascii() and name.isdigit() and len(name) <= 18 and (name == "0" or name[0] != "0")
    return int(name) if plain else -1


def _step_ids(field: str, record_of: dict[str, int], lineno: int) -> list[int]:
    """The S-record indices of a P-record's step field ``name+,name+,...``.

    One split and one membership pass take a well-formed field.  A step
    name holding a comma would split apart, so the comma count must match
    too.  Any other field goes through the steps one by one, which words
    the error of the first bad step.
    """
    names = field[:-1].split("+,")
    if field.endswith("+") and len(names) == field.count(",") + 1 and all(map(record_of.__contains__, names)):
        return list(map(record_of.__getitem__, names))
    ids = []
    for step in field.split(","):
        if step.endswith("-"):
            raise FormatError(f"reverse-orientation step {step!r} is unsupported", line=lineno)
        if not step.endswith("+"):
            raise FormatError(f"malformed step {step!r}", line=lineno)
        if step[:-1] not in record_of:
            raise FormatError(f"path step references unknown segment {step[:-1]!r}", line=lineno)
        ids.append(record_of[step[:-1]])
    return ids


# Overlaps are kept as int64: a longer one reads as this one, which is
# still longer than every segment.
_LONGEST_OVERLAP = 2**63 - 1


def _parse_overlap(token: str, lineno: int) -> int:
    if token == "*":
        return 0
    # ASCII digits only: isdigit() also takes "²" and "٣"
    if not token.endswith("M") or not (token[:-1].isascii() and token[:-1].isdigit()):
        raise FormatError(f"unsupported overlap {token!r}", line=lineno)
    return min(int(token[:-1]), _LONGEST_OVERLAP)
