import random

import numpy as np
import pytest

from pfg import Pangenome, PrefixFreeGraph, TriggerSet, build_graph
from pfg.graph import PAD, SENTINEL, SEPARATOR, SegmentJoin

RUNNING_SEQUENCES = [("s1", "CACGTACT"), ("s2", "CACACT"), ("s3", "CACGACT")]
RUNNING_TRIGGERS = ["AC", "CG"]

# (i, SA, LCP, ID, pos) rows of the running example's suffix table
SUFFIX_TABLE_ROWS = [
    (0, 30, -1, 6, 0),
    (1, 29, 0, 5, 5),
    (2, 4, 1, 0, 4),
    (3, 8, 3, 1, 3),
    (4, 14, 1, 2, 5),
    (5, 18, 2, 3, 3),
    (6, 23, 3, 4, 4),
    (7, 13, 0, 2, 4),
    (8, 12, 1, 2, 3),
    (9, 27, 0, 5, 3),
    (10, 2, 3, 0, 2),
    (11, 16, 3, 3, 1),
    (12, 21, 5, 4, 2),
    (13, 0, 2, 0, 0),
    (14, 5, 2, 1, 0),
    (15, 9, 2, 2, 0),
    (16, 28, 0, 5, 4),
    (17, 3, 2, 0, 3),
    (18, 17, 2, 3, 2),
    (19, 22, 4, 4, 3),
    (20, 1, 1, 0, 1),
    (21, 15, 4, 3, 0),
    (22, 6, 1, 1, 1),
    (23, 19, 2, 4, 0),
    (24, 24, 2, 5, 0),
    (25, 10, 1, 2, 1),
    (26, 7, 0, 1, 2),
    (27, 20, 1, 4, 1),
    (28, 25, 1, 5, 1),
    (29, 11, 0, 2, 2),
    (30, 26, 1, 5, 2),
]

# id -> (length, [(start, rank), ...]) rows of the running example's segment table
SEGMENT_TABLE_ROWS = {
    0: (4, [(9, 9)]),
    1: (3, [(15, 13), (1, 14)]),
    2: (5, [(18, 1), (5, 2), (11, 3)]),
    3: (3, [(8, 4), (14, 5), (0, 6)]),
    4: (4, [(16, 7)]),
    5: (5, [(2, 8)]),
}

def separator_runs(text, sa, lcp) -> list[bool]:
    """Run starts over a full suffix array of a join: a row starts a run
    unless its suffix shares the row above's suffix up to and including the
    separator (SEPARATOR or SENTINEL) that ends it."""
    text = text.decode("ascii") if isinstance(text, bytes) else text
    reach = [
        min(i for i in (text.find(SEPARATOR, p), text.find(SENTINEL, p)) if i >= 0) - p + 1 for p in range(len(text))
    ]
    return [r == 0 or lcp[r] < reach[sa[r - 1]] for r in range(len(sa))]


def runs(head, *columns) -> list[list[tuple]]:
    """The rows of ``columns`` cut at ``head``, each run's rows sorted."""
    cuts = [r for r, start in enumerate(head) if start] + [len(head)]
    rows = list(zip(*(np.asarray(column).tolist() for column in columns)))
    return [sorted(rows[a:b]) for a, b in zip(cuts, cuts[1:])]


def join_positions(graph, table) -> np.ndarray:
    """The join position of each row of suffix table ``table``."""
    return graph.join.boundaries[table.seg_id] + table.pos


def occurrences(table, sid):
    """(start, rank, prev) of each occurrence of segment ``sid``, in rank order."""
    lo, hi = table.offsets[sid], table.offsets[sid + 1]
    prev = table.prev[lo:hi].tobytes().decode("ascii")
    return list(zip(table.start[lo:hi].tolist(), table.rank[lo:hi].tolist(), prev))


FULL_SA = [9, 15, 1, 18, 5, 11, 8, 14, 0, 10, 16, 2, 19, 6, 12, 17, 3, 20, 7, 13, 4]


@pytest.fixture
def pangenome():
    return Pangenome(sequences=list(RUNNING_SEQUENCES))


@pytest.fixture
def triggers():
    return TriggerSet.from_words(RUNNING_TRIGGERS)


@pytest.fixture
def graph(pangenome, triggers):
    return build_graph(pangenome, triggers)


def random_instance(rng: random.Random):
    """A random pangenome plus trigger set, as used by the property tests."""
    k = rng.choice([1, 2, 3])
    words = {
        "".join(rng.choice("ACGT") for _ in range(k))
        for _ in range(rng.randint(1, 4))
    }
    n_seqs = rng.randint(1, 8)
    sequences = []
    for j in range(n_seqs):
        length = rng.randint(10, 2000)
        sequences.append((f"seq{j}", "".join(rng.choices("ACGT", k=length))))
    return Pangenome(sequences=sequences), TriggerSet.from_words(words)


def random_dictionary(rng: random.Random, k: int) -> PrefixFreeGraph:
    """A graph over a random sorted dictionary of distinct segments, each at
    least k long and some ending with k pads; each segment is one path."""
    alphabet = rng.choice(["A", "AC", "ACG", "ACGT"])
    contents = set()
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            contents.add("".join(rng.choices(alphabet, k=rng.randint(1, 6))) + PAD * k)
        else:
            contents.add("".join(rng.choices(alphabet, k=rng.randint(k, k + 6))))
    contents = sorted(contents)
    paths = [(f"p{i}", [i]) for i in range(len(contents))]
    return make_graph(k, contents, paths)


def make_graph(k: int, contents: list[str], paths: list[tuple[str, list[int]]]) -> PrefixFreeGraph:
    """The graph of these segments and (name, segment ids) paths, taken as
    they are: neither normalized nor checked."""
    return PrefixFreeGraph(
        k=k,
        join=SegmentJoin.of(contents),
        steps=np.array([sid for _, path in paths for sid in path], dtype=np.int32),
        path_offsets=np.cumsum([0] + [len(path) for _, path in paths], dtype=np.int64),
        path_names=[name for name, _ in paths],
    )


def proper_prefixes(graph: PrefixFreeGraph) -> list[tuple[int, int, int, int]]:
    """Brute force: every (a, offset a, b, offset b) where the suffix of
    segment a, longer than k, is a proper prefix of the suffix of segment b."""
    suffixes = [(i, p, seg.content[p:]) for i, seg in enumerate(graph.segments) for p in range(len(seg.content))]
    return [
        (a, p, b, q)
        for a, p, s in suffixes
        if len(s) > graph.k
        for b, q, t in suffixes
        if len(t) > len(s) and t.startswith(s)
    ]


def rename_segments(gfa: str, name) -> str:
    """``gfa`` with each segment id ``i`` in its S-, L- and P-records
    replaced by ``name(i)``, ``i`` as written."""
    lines = []
    for line in gfa.split("\n"):
        fields = line.split("\t")
        if fields[0] == "S":
            fields[1] = name(fields[1])
        elif fields[0] == "L":
            fields[1], fields[3] = name(fields[1]), name(fields[3])
        elif fields[0] == "P":
            fields[2] = ",".join(name(step[:-1]) + step[-1] for step in fields[2].split(","))
        lines.append("\t".join(fields))
    return "\n".join(lines)
