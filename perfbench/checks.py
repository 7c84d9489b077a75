"""Output checks made apart from the program under test.

Every check raises :class:`CheckFailed` naming what failed and where.  None
of them imports ``pfg``: each compares an output against the generated
sequences or against a property that a correct output must have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD = b"."
SENTINEL = ord("$")
TAB, NEWLINE = ord("\t"), ord("\n")
CHUNK_BYTES = 8 << 20
MAX_DIGITS = 12


class CheckFailed(Exception):
    """An output disagrees with what the inputs determine."""


@dataclass
class Collection:
    """The generated sequences as one letter array, n = total letters."""

    names: list[str]
    sequences: list[bytes]
    text: np.ndarray  # uint8, all sequences back to back
    starts: np.ndarray  # int64 offset of each sequence in ``text``

    @classmethod
    def from_sequences(cls, named: list[tuple[str, bytes]]) -> "Collection":
        sequences = [seq for _, seq in named]
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        text = np.frombuffer(b"".join(sequences), dtype=np.uint8)
        return cls([name for name, _ in named], sequences, text, starts)

    @property
    def n(self) -> int:
        return int(self.text.size)


@dataclass
class Gfa:
    """The parts of a GFA that the checks read."""

    k: int
    segments: list[bytes]  # content by id
    paths: list[tuple[str, list[int]]]


def read_gfa(path) -> Gfa:
    """A short GFA reader: TL tag, S-lines with ids 0.., and P-lines."""
    k = None
    segments: list[bytes] = []
    paths = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip(b"\n").split(b"\t")
            if fields[0] == b"H":
                for tag in fields[1:]:
                    if tag.startswith(b"TL:i:"):
                        k = int(tag[5:])
            elif fields[0] == b"S":
                if int(fields[1]) != len(segments):
                    raise CheckFailed(f"GFA line {lineno}: segment id {fields[1]!r} out of order")
                segments.append(fields[2])
            elif fields[0] == b"P":
                steps = fields[2].split(b",")
                if not all(s.endswith(b"+") for s in steps):
                    raise CheckFailed(f"GFA line {lineno}: path step not in + orientation")
                ids = [int(s[:-1]) for s in steps]
                if min(ids) < 0 or max(ids) >= len(segments):
                    raise CheckFailed(f"GFA line {lineno}: path step names no segment")
                paths.append((fields[1].decode(), ids))
    if k is None:
        raise CheckFailed("GFA header has no TL tag")
    return Gfa(k, segments, paths)


def check_graph(gfa: Gfa, collection: Collection) -> None:
    """Segments unique and sorted; every path spells its sequence back."""
    k = gfa.k
    segs = gfa.segments
    for i in range(1, len(segs)):
        if not segs[i - 1] < segs[i]:
            raise CheckFailed(f"GFA segments {i - 1} and {i} are not strictly increasing")
    if [name for name, _ in gfa.paths] != collection.names:
        raise CheckFailed("GFA path names differ from the FASTA record names")
    for (name, ids), expected in zip(gfa.paths, collection.sequences):
        for t in range(1, len(ids)):
            if segs[ids[t - 1]][-k:] != segs[ids[t]][:k]:
                raise CheckFailed(f"path {name}: steps {t - 1} and {t} do not overlap by {k}")
        spelled = segs[ids[0]] + b"".join(segs[i][k:] for i in ids[1:])
        if spelled[-k:] != PAD * k or spelled[:-k] != expected:
            raise CheckFailed(f"path {name} does not spell its FASTA sequence plus {k} pads")


def check_identical(input_path, output_path) -> None:
    """Re-partitioning with the same triggers must reproduce the GFA byte for byte."""
    with open(input_path, "rb") as a, open(output_path, "rb") as b:
        if a.read() != b.read():
            raise CheckFailed("gfa2pfg output differs from its input GFA")


def _parse_block(data: bytes):
    """Columns of complete ``index sa seg_id pos bwt`` lines in ``data``."""
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((b == TAB) | (b == NEWLINE))
    if seps.size % 5:
        raise CheckFailed("pfg2sa output lines do not all have 5 fields")
    seps = seps.reshape(-1, 5)
    if (b[seps[:, :4]] != TAB).any() or (b[seps[:, 4]] != NEWLINE).any():
        raise CheckFailed("pfg2sa output lines do not all have 5 fields")
    if (seps[:, 4] - seps[:, 3] != 2).any():
        raise CheckFailed("pfg2sa BWT field is not one character")
    line_starts = np.concatenate(([0], seps[:-1, 4] + 1))
    columns = []
    for col in range(4):
        begin = line_starts if col == 0 else seps[:, col - 1] + 1
        end = seps[:, col]
        width = end - begin
        if (width < 1).any() or (width > MAX_DIGITS).any():
            raise CheckFailed(f"pfg2sa column {col} has an empty or overlong number")
        value = np.zeros(len(end), dtype=np.int64)
        for j in range(MAX_DIGITS):
            live = width > j
            if not live.any():
                break
            digit = b[np.maximum(end - 1 - j, 0)].astype(np.int64) - ord("0")
            if ((digit < 0) | (digit > 9))[live].any():
                raise CheckFailed(f"pfg2sa column {col} has a non-digit")
            value += np.where(live, digit, 0) * 10**j
        columns.append(value)
    columns.append(b[seps[:, 3] + 1])
    return columns


def read_sa(path, n: int):
    """The five columns of a ``pfg2sa --bwt`` output expected to hold n lines."""
    out = [np.empty(n, dtype=np.int64) for _ in range(4)] + [np.empty(n, dtype=np.uint8)]
    filled = 0
    rest = b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(CHUNK_BYTES)
            if not block:
                break
            data = rest + block
            cut = data.rfind(b"\n") + 1
            rest = data[cut:]
            if not cut:
                continue
            columns = _parse_block(data[:cut])
            rows = len(columns[0])
            if filled + rows > n:
                raise CheckFailed(f"pfg2sa printed more than n = {n} lines")
            for dst, src in zip(out, columns):
                dst[filled : filled + rows] = src
            filled += rows
    if rest:
        raise CheckFailed("pfg2sa output does not end with a newline")
    if filled != n:
        raise CheckFailed(f"pfg2sa printed {filled} lines, expected n = {n}")
    return out


def check_sa(path, gfa: Gfa, collection: Collection) -> None:
    """Check a ``pfg2sa --bwt`` output in O(n).

    Suffix order uses the Burkhardt-Kaerkkaeinen test: with ISA the inverse
    of the SA column, consecutive rows a, b must satisfy
    (T[a], next(a)) < (T[b], next(b)).  ``next(x)`` is n + ISA[x + 1] inside
    a sequence.  At the last letter of a sequence the pads follow, and pads
    rank below every letter, so there ``next(x)`` is below n: the ISA of the
    next sequence's first position, or -1 after the last sequence.
    """
    n = collection.n
    text = collection.text
    index, sa, seg_id, pos, bwt = read_sa(path, n)
    if (index != np.arange(n)).any():
        raise CheckFailed(f"index column is not 0..{n - 1} at row {int(np.argmax(index != np.arange(n)))}")
    if sa.min() < 0 or sa.max() >= n:
        raise CheckFailed("SA column holds a value outside 0..n-1")
    isa = np.full(n, -1, dtype=np.int64)
    isa[sa] = np.arange(n)
    if (isa < 0).any():
        raise CheckFailed("SA column is not a permutation of 0..n-1")

    ends = np.append(collection.starts[1:], n) - 1
    following = np.empty(n, dtype=np.int64)
    following[:-1] = n + isa[1:]
    following[ends[:-1]] = isa[collection.starts[1:]]
    following[ends[-1]] = -1
    letters = text[sa]
    keys = following[sa]
    in_order = (letters[:-1] < letters[1:]) | ((letters[:-1] == letters[1:]) & (keys[:-1] < keys[1:]))
    if not in_order.all():
        row = int(np.argmin(in_order))
        raise CheckFailed(f"suffix order broken between rows {row} and {row + 1}")

    is_start = np.zeros(n, dtype=bool)
    is_start[collection.starts] = True
    expected_bwt = np.where(is_start[sa], SENTINEL, text[sa - 1])
    if (bwt != expected_bwt).any():
        raise CheckFailed(f"BWT column wrong at row {int(np.argmax(bwt != expected_bwt))}")

    k = gfa.k
    lengths = np.array([len(s) for s in gfa.segments], dtype=np.int64)
    if seg_id.min() < 0 or seg_id.max() >= lengths.size:
        raise CheckFailed("seg_id column names no GFA segment")
    if pos.min() < 0 or (pos >= lengths[seg_id] - k).any():
        raise CheckFailed("pos column points outside the letters of its segment")
    seg_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    joined = np.frombuffer(b"".join(gfa.segments), dtype=np.uint8)
    wrong = joined[seg_starts[seg_id] + pos] != letters
    if wrong.any():
        raise CheckFailed(f"segment letter differs from the text at row {int(np.argmax(wrong))}")
    # The segment must also occur in a path at pangenome offset sa - pos.
    steps = np.concatenate([np.asarray(ids, dtype=np.int64) for _, ids in gfa.paths])
    step_len = lengths[steps] - k
    step_start = np.cumsum(step_len) - step_len
    occurrence = np.sort(steps * (n + 1) + step_start)
    claimed = seg_id * (n + 1) + sa - pos
    at = np.minimum(np.searchsorted(occurrence, claimed), occurrence.size - 1)
    missing = occurrence[at] != claimed
    if missing.any():
        raise CheckFailed(f"segment does not occur at sa - pos, row {int(np.argmax(missing))}")
