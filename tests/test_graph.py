import tracemalloc

import pytest

from pfg import (
    Pangenome,
    PrefixFreeGraph,
    Segment,
    StructureError,
    TriggerSet,
    build_graph,
    normalize,
    reconstruct,
    validate,
)

DISCOVERY = {0: "CAC", 1: "ACG", 2: "CGTAC", 3: "ACT..", 4: "ACAC", 5: "CGAC"}
DISCOVERY_PATHS = [[0, 1, 2, 3], [0, 4, 3], [0, 1, 5, 3]]


class TestNormalize:
    def test_running_example_segment_order(self):
        g = normalize(DISCOVERY, DISCOVERY_PATHS, k=2)
        assert [len(s.content) for s in g.segments] == [4, 3, 5, 3, 4, 5]
        assert [s.content for s in g.segments] == [
            "ACAC", "ACG", "ACT..", "CAC", "CGAC", "CGTAC",
        ]

    def test_running_example_paths_relabel(self):
        g = normalize(DISCOVERY, DISCOVERY_PATHS, k=2)
        assert [path for _, path in g.paths] == [[3, 1, 5, 2], [3, 0, 2], [3, 1, 4, 2]]

    def test_single_sorted_segment_is_identity(self):
        g = normalize({0: "AB.."}, [[0]], k=2)
        assert [s.content for s in g.segments] == ["AB.."]
        assert g.paths[0][1] == [0]

    def test_duplicate_content_rejected(self):
        with pytest.raises(StructureError):
            normalize({0: "CAC", 1: "CAC"}, [[0, 1]], k=2)

    def test_idempotent(self):
        g = normalize(DISCOVERY, DISCOVERY_PATHS, k=2)
        again = normalize(
            {s.id: s.content for s in g.segments},
            [path for _, path in g.paths],
            k=2,
        )
        assert [s.content for s in again.segments] == [s.content for s in g.segments]
        assert [p for _, p in again.paths] == [p for _, p in g.paths]


def validate_peak(sequence):
    """tracemalloc peak of validate on one trigger-free sequence, in bytes."""
    g = build_graph(Pangenome([("a", sequence)]), TriggerSet.from_words(["TAG"]))
    tracemalloc.start()
    try:
        report = validate(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    return peak


class TestValidate:
    def test_running_example_passes(self, graph):
        report = validate(graph)
        assert report.ok
        assert not report.warnings

    def test_length_k_segment_is_warning(self):
        g = normalize({0: "AC", 1: "ACT.."}, [[0, 1]], k=2)
        report = validate(g)
        assert report.ok
        assert any("degenerate" in w.message for w in report.warnings)

    def test_overlap_violation_flagged(self, graph):
        bad = PrefixFreeGraph(
            k=graph.k,
            segments=graph.segments,
            paths=[("bad", [0, 3])],  # ACAC then CAC: "AC" != "CA"
        )
        report = validate(bad)
        assert not report.ok
        assert any("overlap" in e.message for e in report.errors)

    def test_unsorted_segments_flagged(self, graph):
        segs = list(graph.segments)
        segs[0], segs[1] = Segment(0, segs[1].content), Segment(1, segs[0].content)
        report = validate(PrefixFreeGraph(k=2, segments=segs, paths=graph.paths))
        assert not report.ok

    def test_not_prefix_free_is_one_error(self):
        # "ACG" (segment 2, offset 1) is a proper prefix of "ACGT..", and
        # "GACG" of "GACGT..": only the first violation is reported
        g = normalize({0: "GACG", 1: "CGACGT..", 2: "ACGT.."}, [[0, 1], [2]], k=2)
        report = validate(g)
        assert len(report.errors) == 1
        assert "not prefix-free" in report.errors[0].message

    def test_long_trigger_free_sequence_memory(self):
        # one segment of 100 kb: a sort of its suffixes as strings needs GBs
        assert validate_peak("ACG" * 33334) < 32 << 20

    def test_periodic_megabase_memory_does_not_grow_with_rounds(self):
        # about 20 doubling rounds; a rank array kept per round took 139 MB
        assert validate_peak("ACG" * 333334) < 96 << 20


class TestReconstruct:
    def test_running_example(self, graph):
        assert reconstruct(graph, 0) == "CACGTACT"
        assert reconstruct(graph, 1) == "CACACT"
        assert reconstruct(graph, 2) == "CACGACT"

    def test_single_segment(self):
        g = normalize({0: "XY.."}, [[0]], k=2)
        assert reconstruct(g, 0) == "XY"


class TestPangenome:
    def test_empty_sequence_rejected(self):
        with pytest.raises(StructureError):
            Pangenome(sequences=[("x", "")])

    def test_reserved_character_rejected(self):
        with pytest.raises(StructureError):
            Pangenome(sequences=[("x", "AC#GT")])

    def test_total_length(self, pangenome):
        assert pangenome.total_length == 21
