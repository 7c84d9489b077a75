import random

from pfg import (
    Pangenome,
    TriggerSet,
    build_graph,
    validate,
)
from pfg.graph import reconstruct
from pfg.partition import partition_sequence


class TestPartitionSequence:
    def test_running_example_first(self, triggers):
        assert partition_sequence("CACGTACT", triggers) == [
            "CAC", "ACG", "CGTAC", "ACT..",
        ]

    def test_running_example_second(self, triggers):
        assert partition_sequence("CACACT", triggers) == ["CAC", "ACAC", "ACT.."]

    def test_no_trigger_single_segment(self, triggers):
        assert partition_sequence("GGGG", triggers) == ["GGGG.."]

    def test_leading_trigger_closes_no_segment(self):
        triggers = TriggerSet.from_words(["TAG"])
        assert partition_sequence("TAGACGTACC", triggers) == ["TAGACGTACC..."]
        assert partition_sequence("TAGTAGA", triggers) == ["TAGTAG", "TAGA..."]

    def test_segment_cover(self, triggers):
        for seq in ["CACGTACT", "CACACT", "ACGT", "AC"]:
            segments = partition_sequence(seq, triggers)
            assert sum(len(s) - 2 for s in segments) == len(seq)


class TestBuildGraph:
    def test_running_example_shape(self, graph):
        assert len(graph.segments) == 6
        assert [len(p) for _, p in graph.paths] == [4, 3, 4]

    def test_dedup_across_duplicate_sequences(self):
        p = Pangenome(sequences=[("a", "CAC"), ("b", "CAC")])
        g = build_graph(p, TriggerSet.from_words(["AC"]))
        # both sequences share both segments; the paths are identical
        assert [s.content for s in g.segments] == ["AC..", "CAC"]
        assert [path for _, path in g.paths] == [[1, 0], [1, 0]]

    def test_single_unmatched_sequence(self):
        p = Pangenome(sequences=[("a", "G")])
        g = build_graph(p, TriggerSet.from_words(["AC"]))
        assert [s.content for s in g.segments] == ["G.."]
        assert g.paths[0][1] == [0]

    def test_result_validates_and_reconstructs(self, pangenome, graph):
        assert validate(graph).ok
        for j, (_, data) in enumerate(pangenome.sequences):
            assert reconstruct(graph, j) == data


class TestRepetitionLocality:
    def test_shared_substring_segments_identical(self):
        rng = random.Random(7)
        shared = "GG" + "AC" + "TTTT" + "AC" + "GGGG" + "CG" + "TT"
        left = "".join(rng.choices("ACGT", k=200))
        right = "".join(rng.choices("ACGT", k=200))
        seq_a = left + shared + right
        seq_b = shared + left
        triggers = TriggerSet.from_words(["AC", "CG"])

        def interior_segments(seq, lo, hi):
            spans = []
            boundary = 0
            for seg in partition_sequence(seq, triggers):
                spans.append((boundary, seg))
                boundary += len(seg) - 2
            return [s for b, s in spans if b > lo and b + len(s) <= hi]

        a_lo = len(left)
        got_a = interior_segments(seq_a, a_lo, a_lo + len(shared))
        got_b = interior_segments(seq_b, 0, len(shared))
        # segments strictly inside the shared region agree between embeddings
        assert got_a == got_b
        assert any("TTTT" in s for s in got_a)
