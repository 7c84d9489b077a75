import importlib
import io
import random

import pytest

from pfg import (
    FormatError,
    build_graph,
    expand_gfa_paths,
    graph_from_gfa,
    read_gfa,
    write_gfa,
)

from conftest import random_instance

GFA_MODULE = importlib.import_module("pfg.gfa")


def roundtrip(graph):
    buf = io.StringIO()
    write_gfa(graph, buf)
    return read_gfa(io.StringIO(buf.getvalue()))


class TestWriteGfa:
    def test_running_example(self, graph):
        buf = io.StringIO()
        write_gfa(graph, buf)
        lines = buf.getvalue().splitlines()
        s_lines = [l for l in lines if l.startswith("S")]
        p_lines = [l for l in lines if l.startswith("P")]
        assert [l.split("\t")[2] for l in s_lines] == [
            "ACAC", "ACG", "ACT..", "CAC", "CGAC", "CGTAC",
        ]
        assert [l.split("\t")[2] for l in p_lines] == [
            "3+,1+,5+,2+", "3+,0+,2+", "3+,1+,4+,2+",
        ]
        assert lines[0].startswith("H\tVN:Z:1.0\tTL:i:2")

    def test_links_present_with_k_overlap(self, graph):
        buf = io.StringIO()
        write_gfa(graph, buf)
        l_lines = [l for l in buf.getvalue().splitlines() if l.startswith("L")]
        assert l_lines
        assert all(l.split("\t")[5] == "2M" for l in l_lines)

    def test_links_are_the_distinct_step_pairs_in_order(self, graph):
        buf = io.StringIO()
        write_gfa(graph, buf)
        pairs = [
            (int(l.split("\t")[1]), int(l.split("\t")[3]))
            for l in buf.getvalue().splitlines()
            if l.startswith("L")
        ]
        # paths 3 1 5 2, 3 0 2 and 3 1 4 2: (3, 1) twice, and no pair
        # across the end of one path and the start of the next, like (2, 3)
        assert pairs == [(0, 2), (1, 4), (1, 5), (3, 0), (3, 1), (4, 2), (5, 2)]

    def test_deterministic(self, graph):
        a, b = io.StringIO(), io.StringIO()
        write_gfa(graph, a)
        write_gfa(graph, b)
        assert a.getvalue() == b.getvalue()

    def test_lines_before_the_paths_are_written_in_blocks(self, monkeypatch):
        # one write per LINES_PER_WRITE H-, S- and L-lines, and one per P-line
        graph = build_graph(*random_instance(random.Random(5)))
        expected = io.StringIO()
        write_gfa(graph, expected)
        monkeypatch.setattr(GFA_MODULE, "LINES_PER_WRITE", 2)
        writes = []

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        sink = Sink()
        write_gfa(graph, sink)
        lines = sink.getvalue().splitlines(keepends=True)
        n_p = sum(line.startswith("P") for line in lines)
        assert len(lines) - n_p > 2 and n_p == len(graph.paths)
        assert len(writes) == -(-(len(lines) - n_p) // 2) + n_p
        assert all(w.count("\n") <= 2 for w in writes)
        assert sink.getvalue() == expected.getvalue()

    def test_single_segment(self):
        from pfg import normalize

        g = normalize({0: "AB.."}, [[0]], k=2)
        buf = io.StringIO()
        write_gfa(g, buf)
        lines = buf.getvalue().splitlines()
        kinds = [l[0] for l in lines]
        assert kinds == ["H", "S", "P"]
        assert lines[2].split("\t")[3] == "*"


class TestReadGfa:
    def test_roundtrip_document(self, graph):
        doc = roundtrip(graph)
        assert len(doc.segments) == 6
        assert len(doc.paths) == 3
        assert doc.trigger_length == 2

    def test_star_overlaps_accepted(self):
        doc = read_gfa(io.StringIO("S\ta\tACGT\nP\tp\ta+\t*\n"))
        assert doc.paths[0][2] is None

    def test_reverse_orientation_rejected(self):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO("S\t5\tACGT\nP\tp\t5-\t*\n"))
        assert "line 2" in str(exc.value)

    def test_unknown_segment_rejected(self):
        with pytest.raises(FormatError):
            read_gfa(io.StringIO("S\t0\tACGT\nP\tp\t1+\t*\n"))

    @pytest.mark.parametrize(
        "p_line, message",
        [
            ("P\tp\t0+,0-\t*", "reverse-orientation step '0-' is unsupported"),
            ("P\tp\t0+,0\t*", "malformed step '0'"),
            ("P\tp\t0+,,0+\t*", "malformed step ''"),
            ("P\tp\t\t*", "malformed step ''"),
            ("P\tp\t0+,1+\t*", "path step references unknown segment '1'"),
            # the first bad step decides, whatever is wrong with it
            ("P\tp\t9+,0-\t*", "path step references unknown segment '9'"),
            ("P\tp\t0+,0+\t2M,2M", "overlap count does not match step count"),
            ("P\tp\t0+,0+\t*,2M", "overlap count does not match step count"),
            ("P\tp\t0+,0+\t2X", "unsupported overlap '2X'"),
            ("P\tp\t0+", "P-record needs a name, steps and overlaps"),
            # a step splits at commas, so a name with one cannot be a step
            ("P\tp\ta,b+\t*", "malformed step 'a'"),
        ],
    )
    def test_path_errors_name_their_line(self, p_line, message):
        gfa = f"H\tVN:Z:1.0\nS\t0\tAC..\nS\ta,b\tAC..\n{p_line}\nS\t1x\tCA..\n"
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(gfa))
        assert str(exc.value) == f"line 4: {message}"

    def test_paths_before_their_segments(self):
        doc = read_gfa(io.StringIO("P\tp\t1+,0+\t1M\nS\t0\tAC..\nS\t1\tCA\n"))
        assert doc.paths == [("p", ["1", "0"], [1])]
        assert doc.segments == {"0": "AC..", "1": "CA"}

    def test_unknown_segment_names_its_path_line(self):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO("P\tp\t0+,1+\t*\nS\t0\tAC..\nP\tq\t0+\t*\n"))
        assert str(exc.value) == "line 1: path step references unknown segment '1'"

    def test_repeated_segment_name_rejected(self):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO("S\t0\tAC..\nS\t1\tCA..\nS\t0\tCA..\n"))
        assert str(exc.value) == "line 3: segment name '0' is repeated"

    @pytest.mark.parametrize(
        "l_line, message",
        [
            ("L\t0\t+\t0\t+", "L-record needs five fields"),
            ("L\t0\t+\t0\t-\t2M", "reverse orientation is unsupported"),
            ("L\t0\t-\t0\t+\t2M", "reverse orientation is unsupported"),
            ("L\t0\t+\t0\t+\t2", "unsupported overlap '2'"),
        ],
    )
    def test_link_errors_name_their_line(self, l_line, message):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(f"S\t0\tAC..\n{l_line}\n"))
        assert str(exc.value) == f"line 2: {message}"

    def test_links_are_checked_not_kept(self):
        doc = read_gfa(io.StringIO("S\t0\tAC..\nL\t0\t+\t0\t+\t*\nL\t0\t+\t9\t+\t2M\n"))
        assert not hasattr(doc, "links")

    def test_unknown_record_types_ignored(self):
        doc = read_gfa(io.StringIO("W\twhatever\nS\t0\tACGT\n"))
        assert doc.segments == {"0": "ACGT"}


class TestExpandPaths:
    def test_running_example(self, graph):
        pangenome = expand_gfa_paths(roundtrip(graph))
        assert [d for _, d in pangenome.sequences] == [
            "CACGTACT", "CACACT", "CACGACT",
        ]

    def test_zero_overlap_concatenation(self):
        doc = read_gfa(io.StringIO("S\ta\tAC\nS\tb\tGT\nP\tp\ta+,b+\t*\n"))
        pangenome = expand_gfa_paths(doc)
        assert pangenome.sequences == [("p", "ACGT")]

    def test_mismatched_overlap_rejected(self):
        doc = read_gfa(io.StringIO("S\ta\tAC\nS\tb\tGT\nP\tp\ta+,b+\t1M\n"))
        with pytest.raises(FormatError):
            expand_gfa_paths(doc)


class TestGraphFromGfa:
    def test_roundtrip_preserves_graph(self, graph):
        parsed = graph_from_gfa(roundtrip(graph))
        assert parsed.k == graph.k
        assert [s.content for s in parsed.segments] == [
            s.content for s in graph.segments
        ]
        assert [p for _, p in parsed.paths] == [p for _, p in graph.paths]

    def test_missing_trigger_length_rejected(self):
        with pytest.raises(FormatError):
            graph_from_gfa(read_gfa(io.StringIO("S\t0\tAC..\nP\tp\t0+\t*\n")))


class TestFixedPoint:
    @pytest.mark.parametrize("seed", range(10))
    def test_repartition_is_identity(self, seed):
        rng = random.Random(2000 + seed)
        pangenome, triggers = random_instance(rng)
        first = build_graph(pangenome, triggers)
        expanded = expand_gfa_paths(roundtrip(first))
        second = build_graph(expanded, triggers)
        assert [s.content for s in second.segments] == [
            s.content for s in first.segments
        ]
        assert [p for _, p in second.paths] == [p for _, p in first.paths]
