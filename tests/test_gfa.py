import importlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pfg import (
    FormatError,
    build_graph,
    expand_gfa_paths,
    graph_from_gfa,
    read_gfa,
    write_gfa,
)

from conftest import make_graph, random_instance, rename_segments

GFA_MODULE = importlib.import_module("pfg.gfa")
DOCUMENT_MODULE = importlib.import_module("pfg.document")
PATHS_MODULE = importlib.import_module("pfg.paths")
SRC = Path(__file__).resolve().parent.parent / "src"


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
        g = make_graph(2, ["AB.."], [("p", [0])])
        buf = io.StringIO()
        write_gfa(g, buf)
        lines = buf.getvalue().splitlines()
        kinds = [l[0] for l in lines]
        assert kinds == ["H", "S", "P"]
        assert lines[2].split("\t")[3] == "*"


class TestReadGfa:
    def test_roundtrip_document(self, graph):
        doc = roundtrip(graph)
        assert doc.ids.tolist() == list(range(6))
        assert doc.join.contents() == graph.join.contents()
        assert doc.path_names == ["s1", "s2", "s3"]
        assert doc.steps.tolist() == graph.steps.tolist()
        assert doc.path_offsets.tolist() == [0, 4, 7, 11]
        assert doc.overlaps.tolist() == [0, 2, 2, 2, 0, 2, 2, 0, 2, 2, 2]
        assert doc.k == 2

    def test_star_overlaps_accepted(self):
        doc = read_gfa(io.StringIO("S\ta\tAC\nS\tb\tGT\nP\tp\ta+,b+\t*\n"))
        assert doc.ids.tolist() == [-1, -1]
        assert (doc.steps.tolist(), doc.overlaps.tolist()) == ([0, 1], [0, 0])

    @pytest.mark.parametrize(
        "names",
        [
            ("a", "b"),
            ("segment_10", "segment_9"),  # longer than 8 bytes
            ("chromosome_1_segment_10", "chromosome_1_segment_9"),  # longer than 18 bytes
            ("\u00e9", "\u540d\u524d"),  # non-ASCII UTF-8
            ("a", "a\0"),  # apart only by a trailing NUL
            ("", "0"),
            ("1", "0"),
        ],
    )
    def test_segment_names_of_any_form(self, names):
        a, b = names
        gfa = f"S\t{a}\tACG\nS\t{b}\tCGT\nL\t{b}\t+\t{a}\t+\t*\nP\t{b}\t{b}+,{a}+,{b}+\t2M,*\n"
        doc = read_gfa(io.StringIO(gfa))
        assert (doc.path_names, doc.join.contents()) == ([b], ["ACG", "CGT"])
        # a * among the overlaps of a path declares none
        assert (doc.steps.tolist(), doc.overlaps.tolist()) == ([1, 0, 1], [0, 2, 0])

    def test_a_long_segment_name_widens_no_other_key(self):
        def peak(names):
            steps = "+,".join(names[:1000] * 20)
            gfa = "".join(f"S\t{name}\tAC\n" for name in names) + f"P\tp\t{steps}+\t*\n"
            tracemalloc.start()
            try:
                read_gfa(io.StringIO(gfa))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        names = [f"s{i}" for i in range(1000)]
        # keyed as wide as the longest name, the 20 k steps would take 80 MB
        assert peak(names + ["x" * 4000]) < 1.5 * peak(names)

    def test_segment_name_with_a_comma(self):
        # a link may name it; a step cannot, as steps split at commas
        doc = read_gfa(io.StringIO("S\ta,b\tAC\nL\ta,b\t+\ta,b\t+\t*\n"))
        assert (doc.ids.tolist(), doc.join.contents()) == ([-1], ["AC"])

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_first_bad_overlap_token_decides(self, seed):
        # in field order, whatever order the hash seed gives a set of tokens
        gfa = "S\ta\tAC..\nP\tp\ta+,a+,a+\t2X,3Y\n"
        code = "\n".join(
            ["import io, pfg", "try:", f" pfg.read_gfa(io.StringIO({gfa!r}))", "except pfg.FormatError as e:", " print(e)"]
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (result.returncode, result.stdout) == (0, "line 2: unsupported overlap '2X'\n")

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

    @pytest.mark.parametrize(
        "p_line, message",
        [
            ("P\tp\t0+,0-\t*", "reverse-orientation step '0-' is unsupported"),
            ("P\tp\t0+,0\t*", "malformed step '0'"),
            ("P\tp\t0+,,0+\t*", "malformed step ''"),
            ("P\tp\t\t*", "malformed step ''"),
            ("P\tp\t0+,1+\t*", "path step references unknown segment '1'"),
            ("P\tp\t0+,02+\t*", "path step references unknown segment '02'"),
            ("P\tp\t0x+,0+\t*", "path step references unknown segment '0x'"),
            ("P\tp\t+2+\t*", "path step references unknown segment '+2'"),
            ("P\tp\t0+,0+\t2M,2M", "overlap count does not match step count"),
            ("P\tp\t0+,0+,0+\t2M", "overlap count does not match step count"),
            ("P\tp\t0+,0+\t2X", "unsupported overlap '2X'"),
            ("P\tp\t0+,0+\t2\u00b2M", "unsupported overlap '2\u00b2M'"),
            ("P\tp\t0+,0+\t", "unsupported overlap ''"),
            ("P\tp\t0+", "P-record needs a name, steps and overlaps"),
        ],
    )
    def test_path_errors_with_plain_ids(self, p_line, message):
        # every segment name is a plain id, so the column reader sees the file first
        gfa = f"H\tVN:Z:1.0\nS\t0\tAC..\nS\t2\tCA..\n{p_line}\nS\t3\tCA..\n"
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(gfa))
        assert str(exc.value) == f"line 4: {message}"

    @pytest.mark.parametrize(
        "sequence, letter", [("AC#G", "#"), ("AC%G", "%"), ("AC$", "$"), ("A C", " "), ("AC\u00c9", "\u00c9")]
    )
    def test_reserved_letter_in_segment_rejected(self, sequence, letter):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(f"S\t0\tAC..\nS\t1\t{sequence}\n"))
        assert str(exc.value) == f"line 2: reserved or invalid character {letter!r} in S-record"

    def test_paths_before_their_segments(self):
        doc = read_gfa(io.StringIO("P\tp\t1+,0+\t1M\nS\t0\tAC..\nS\t1\tCA\n"))
        assert doc.path_names == ["p"]
        assert (doc.steps.tolist(), doc.overlaps.tolist()) == ([1, 0], [0, 1])
        assert (doc.ids.tolist(), doc.join.contents()) == ([0, 1], ["AC..", "CA"])

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
        doc = read_gfa(io.StringIO("S\t0\tAC..\nL\t0\t+\t0\t+\t*\nL\t0\t+\t0\t+\t2M\n"))
        assert not hasattr(doc, "links")

    @pytest.mark.parametrize("names", [("0", "1"), ("a", "b")], ids=["ids", "names"])
    @pytest.mark.parametrize("link", ["L\t{0}\t+\t9\t+\t2M", "L\t9\t+\t{1}\t+\t2M", "L\t9\t+\t8\t+\t2M"])
    def test_link_to_unknown_segment_rejected(self, names, link):
        # checked once every record is read, like the steps of a path
        gfa = "L\t{0}\t+\t{1}\t+\t2M\nS\t{0}\tAC..\nP\tp\t{0}+\t*\n" + link + "\nS\t{1}\tCA..\n"
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(gfa.format(*names)))
        assert str(exc.value) == "line 4: link references unknown segment '9'"

    def test_first_bad_line_decides_between_links_and_paths(self):
        links_first = "S\t0\tAC..\nL\t0\t+\t7\t+\t2M\nP\tp\t0+,9+\t2M\n"
        with pytest.raises(FormatError, match="^line 2: link references unknown segment '7'$"):
            read_gfa(io.StringIO(links_first))
        paths_first = "S\t0\tAC..\nP\tp\t0+,9+\t2M\nL\t0\t+\t7\t+\t2M\n"
        with pytest.raises(FormatError, match="^line 2: path step references unknown segment '9'$"):
            read_gfa(io.StringIO(paths_first))

    @pytest.mark.parametrize("names", [("0", "1"), ("a", "b")], ids=["ids", "names"])
    def test_repeated_path_name_rejected(self, names):
        gfa = "S\t{0}\tAC..\nP\tp\t{0}+\t*\nS\t{1}\tCA..\nP\tp\t{1}+\t*\n".format(*names)
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(gfa))
        assert str(exc.value) == "line 4: path name 'p' is repeated"

    @pytest.mark.parametrize("carriage_returns", [1, 3, 100_000])
    def test_trailing_carriage_returns_are_not_read(self, carriage_returns):
        cr = "\r" * carriage_returns
        text = f"H\tTL:i:2{cr}\nS\t0\tAC..{cr}\nP\tp\t0+\t*{cr}\n{cr}\n"
        # the column reader takes the file itself
        doc = DOCUMENT_MODULE.read_columns(text.encode())
        assert (doc.k, doc.join.contents(), doc.path_names) == (2, ["AC.."], ["p"])

    def test_unknown_record_types_ignored(self):
        doc = read_gfa(io.StringIO("X\twhatever\nS\t0\tACGT\n"))
        assert doc.join.contents() == ["ACGT"]

    @pytest.mark.parametrize("walk", ["W\tsample\t1\tchr1\t0\t4\t>0", "W\twhatever", "W"], ids=["full", "short", "bare"])
    def test_walks_rejected(self, walk):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(f"S\t0\tACGT\nP\tp\t0+\t*\n{walk}\nW\tsecond\n"))
        assert str(exc.value) == "line 3: walks (W-records) are unsupported"

    @pytest.mark.parametrize(
        "header, message",
        [
            ("H\tTL:Z:1\n", "line 1: TL header tag must have type i, not 'Z'"),
            ("H\tVN:Z:1.0\tTL:f:1\n", "line 1: TL header tag must have type i, not 'f'"),
            ("H\tTL:i:1\nH\tVN:Z:1.0\tTL:i:2\n", "line 2: TL header tag is repeated"),
            ("H\tTL:i:2\tTL:i:2\n", "line 1: TL header tag is repeated"),
            ("H\tVN:Z:1.0\nH\tTL:i:2\tTL\n", "line 2: malformed tag 'TL'"),
            ("H\tVN:Z:1.0\nH\tTL:i:0\n", f"line 2: TL header tag must be a positive integer up to {sys.maxsize}"),
            ("H\tTL:i:+1\n", f"line 1: TL header tag must be a positive integer up to {sys.maxsize}"),
        ],
        ids=["string", "float", "two-records", "one-record", "malformed", "zero", "signed"],
    )
    def test_header_tag_errors_name_their_line(self, header, message):
        with pytest.raises(FormatError) as exc:
            read_gfa(io.StringIO(header + "S\t0\tAC..\nP\tp\t0+\t*\n"))
        assert str(exc.value) == message


class TestExpandPaths:
    def test_running_example(self, graph):
        pangenome = expand_gfa_paths(roundtrip(graph))
        assert [d for _, d in pangenome.sequences] == [
            "CACGTACT", "CACACT", "CACGACT",
        ]

    def test_single_segment(self):
        g = make_graph(2, ["XY.."], [("p", [0])])
        assert expand_gfa_paths(roundtrip(g)).sequences == [("p", "XY")]

    @pytest.mark.parametrize(
        "records, step",
        [
            ("S\ta\tAC..\nS\tb\tCG\nP\tp\ta+,b+\t*\n", 0),
            ("S\ta\tAC\nS\tb\tCG.A\nP\tp\ta+,b+\t*\n", 1),
            # b lies wholly in the overlap, so it adds no letter
            ("S\ta\tACG\nS\tb\tCG\nS\tc\tG.T\nP\tp\ta+,b+,c+\t2M,1M\n", 2),
        ],
        ids=["first-step", "inside-the-last-segment", "after-an-empty-step"],
    )
    def test_pad_before_the_end_names_the_step(self, records, step):
        with pytest.raises(FormatError) as exc:
            expand_gfa_paths(read_gfa(io.StringIO(records)))
        assert str(exc.value) == f"path 'p' step {step}: pad '.' before the end of the path"

    def test_zero_overlap_concatenation(self):
        doc = read_gfa(io.StringIO("S\ta\tAC\nS\tb\tGT\nP\tp\ta+,b+\t*\n"))
        pangenome = expand_gfa_paths(doc)
        assert pangenome.sequences == [("p", "ACGT")]

    @pytest.mark.parametrize("group", [1, 2, 3, 1 << 16])
    @pytest.mark.parametrize(
        "q_line, message",
        [
            ("P\tq\ta+,c+,a+\t1M,1M", "path 'q' step 1: declared overlap 1 does not match the segment sequences"),
            ("P\tq\tb+,c+,a+\t1M,4M", "path 'q' step 2: declared overlap 4 is longer than a segment it joins"),
            # more digits than int64 holds, then 19 digits that it holds
            (
                "P\tq\tb+,c+,a+\t1M,99999999999999999999M",
                "path 'q' step 2: declared overlap 9223372036854775807 is longer than a segment it joins",
            ),
            (
                "P\tq\tb+,c+,a+\t1M,0001000000000000000000M",
                "path 'q' step 2: declared overlap 1000000000000000000 is longer than a segment it joins",
            ),
            ("P\tq\tb+,c+,a+,b+\t1M,1M,2M", None),
        ],
    )
    def test_overlaps_checked_in_groups(self, group, q_line, message, monkeypatch):
        # the first bad join in path order decides, whichever group it is in
        monkeypatch.setattr(GFA_MODULE, "STEPS_PER_CHECK", group)
        gfa = f"S\ta\tACG\nS\tb\tCGT\nS\tc\tTTA\nP\tp\ta+,b+,c+,a+\t2M,1M,1M\n{q_line}\nP\tr\tc+,a+\t1M\n"
        doc = read_gfa(io.StringIO(gfa))
        if message is None:
            assert expand_gfa_paths(doc).sequences == [("p", "ACGTTACG"), ("q", "CGTTACGT"), ("r", "TTACG")]
            return
        with pytest.raises(FormatError) as exc:
            expand_gfa_paths(doc)
        assert str(exc.value) == message

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


# optional fields and records of types that the reader skips
EXTRA_TAGS = ["LN:i:7", "RC:i:3", "xy:Z:some tag", "KC:f:0.5"]
SKIPPED_LINES = ["", "J\t0\t+\t1\t+\t*", "C\t0\t+\t1\t+\t0\t*", "# not a record"]


def respell(gfa: str, rng: random.Random) -> str:
    """Another valid spelling of ``gfa``: records shuffled but the paths
    kept in order, some sequences in lowercase, optional fields, blank
    lines and skipped record types added, and LF or CR/LF line ends."""
    lines = []
    for line in gfa.splitlines():
        fields = line.split("\t")
        if fields[0] == "S" and rng.random() < 0.5:
            fields[2] = fields[2].lower()
        if rng.random() < 0.3:
            fields.append(rng.choice(EXTRA_TAGS))
        lines.append("\t".join(fields))
    lines += rng.choices(SKIPPED_LINES, k=rng.randint(0, 4))
    paths = iter([line for line in lines if line.startswith("P")])
    rng.shuffle(lines)
    lines = [next(paths) if line.startswith("P") else line for line in lines]
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + end


def columns(graph):
    join = graph.join
    return (
        graph.k,
        join.text,
        join.boundaries.tolist(),
        join.lengths.tolist(),
        graph.steps.tolist(),
        graph.path_offsets.tolist(),
        graph.path_names,
    )


def document_columns(doc):
    join = doc.join
    return (
        doc.k,
        join.text,
        join.boundaries.tolist(),
        join.lengths.tolist(),
        doc.ids.tolist(),
        doc.steps.tolist(),
        doc.path_offsets.tolist(),
        doc.path_names,
        doc.overlaps.tolist(),
    )


class TestSpellings:
    """Every valid spelling of a graph's GFA reads as the same graph."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_columns_and_output(self, seed):
        from pfg.cli import pfg2sa_main

        rng = random.Random(3000 + seed)
        graph = build_graph(*random_instance(rng))
        buf = io.StringIO()
        write_gfa(graph, buf)
        gfa = buf.getvalue()
        expected = io.StringIO()
        assert pfg2sa_main(["--bwt"], stdin=io.StringIO(gfa), stdout=expected) == 0
        for _ in range(3):
            spelled = respell(gfa, rng)
            assert columns(graph_from_gfa(read_gfa(io.StringIO(spelled)))) == columns(graph)
            out = io.StringIO()
            assert pfg2sa_main(["--bwt"], stdin=io.StringIO(spelled), stdout=out) == 0
            assert out.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("seed", range(12))
    def test_renamed_segments_read_as_their_decimal_ids(self, seed, monkeypatch):
        """A spelling with its segments renamed reads as the decimal-named
        one does, but that no name is an id."""
        rng = random.Random(4000 + seed)
        graph = build_graph(*random_instance(rng))
        buf = io.StringIO()
        write_gfa(graph, buf)
        spelled = respell(buf.getvalue(), rng)
        # names of one 64-bit key word, or of several, some not ASCII
        if seed % 2:
            renamed = rename_segments(spelled, lambda i: f"\u00e9{i}" if int(i) % 3 else f"segment {i} of the graph")
        else:
            renamed = rename_segments(spelled, lambda i: f"s{i}")
        # a few bytes of steps per group, so that most paths are parsed apart
        monkeypatch.setattr(PATHS_MODULE, "PATH_BYTES_PER_PARSE", 64)
        by_ids = read_gfa(io.StringIO(spelled))
        assert columns(graph_from_gfa(by_ids)) == columns(graph)
        by_names = read_gfa(io.StringIO(renamed))
        assert by_names.ids.tolist() == [-1] * len(by_ids.ids)
        by_names.ids = by_ids.ids
        assert document_columns(by_names) == document_columns(by_ids)
