import gc
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
    Pangenome,
    TriggerSet,
    build_graph,
    build_segment_table,
    build_suffix_table,
    graph_from_gfa,
    read_gfa,
    stream,
    write_gfa,
)
from pfg.cli import fasta2pfg_main, gfa2pfg_main, pfg2sa_main
from pfg.emission import emission_batches

from conftest import make_graph, rename_segments

FASTA = ">s1\nCACGTACT\n>s2\nCACACT\n>s3\nCACGACT\n"
STREAM_MODULE = importlib.import_module("pfg.emission")
CLI_MODULE = importlib.import_module("pfg.cli")
ORACLE_MODULE = importlib.import_module("pfg.oracle")
# the builders import build_graph when they run, so a patch here reaches them
PARTITION_MODULE = importlib.import_module("pfg.partition")
SORTING_MODULES = [importlib.import_module("pfg.suffixes"), importlib.import_module("pfg.occurrences")]
SRC = Path(__file__).resolve().parent.parent / "src"
MAINS = {"fasta2pfg": fasta2pfg_main, "gfa2pfg": gfa2pfg_main, "pfg2sa": pfg2sa_main}
# a byte that UTF-8 never uses, in the sequence and in a line of its own
NOT_UTF8 = {
    "fasta2pfg": b">a\nAC\xffGT\n",
    "gfa2pfg": b"H\tVN:Z:1.0\tTL:i:3\n\xff\xfe\n",
    "pfg2sa": b"H\tVN:Z:1.0\tTL:i:3\n\xff\xfe\n",
}


@pytest.fixture
def trigger_file(tmp_path):
    path = tmp_path / "triggers.txt"
    path.write_text("AC\nCG\n")
    return str(path)


def run(main, argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    status = main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return status, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def running_gfa(trigger_file):
    status, gfa, _ = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
    assert status == 0
    return gfa


def tool_input(tool, trigger_file, gfa):
    """The arguments and input of a run of ``tool`` on the running example."""
    argv = [] if tool == "pfg2sa" else ["-t", trigger_file]
    return argv, FASTA if tool == "fasta2pfg" else gfa


def stream_lines(gfa, bwt):
    """The expected ``pfg2sa`` output, formatted row by row from ``stream()``."""
    graph = graph_from_gfa(read_gfa(io.StringIO(gfa)))
    emissions = stream(graph, build_suffix_table(graph), build_segment_table(graph), with_bwt=bwt)
    return "".join(
        f"{e.index}\t{e.sa}\t{e.seg_id}\t{e.pos}" + (f"\t{e.bwt}" if bwt else "") + "\n"
        for e in emissions
    )


@pytest.fixture(scope="module")
def wide_gfa():
    """A GFA whose index, SA and pos columns pass 9, 99, 999 and 9999.

    One trigger-free sequence makes a segment of 10,050 letters; the
    random ones add a few hundred short segments.
    """
    rng = random.Random(12)
    sequences = [("long", "".join(rng.choice("ACG") for _ in range(10_050)))]
    sequences += [(f"r{i}", "".join(rng.choice("ACGT") for _ in range(400))) for i in range(5)]
    graph = build_graph(Pangenome(sequences=sequences), TriggerSet.from_words(["TA", "TC", "TG", "TT"]))
    sink = io.StringIO()
    write_gfa(graph, sink)
    return sink.getvalue()


@pytest.fixture(scope="module")
def wide_lines(wide_gfa):
    return {bwt: stream_lines(wide_gfa, bwt) for bwt in (False, True)}


class TestFasta2Pfg:
    def test_running_example(self, trigger_file):
        status, out, err = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
        assert status == 0
        lines = out.splitlines()
        assert sum(l.startswith("S") for l in lines) == 6
        assert sum(l.startswith("P") for l in lines) == 3

    def test_missing_trigger_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(fasta2pfg_main, [], FASTA)
        assert exc.value.code != 0

    def test_reserved_character_error_names_line(self, trigger_file):
        status, out, err = run(fasta2pfg_main, ["-t", trigger_file], ">x\nAC\nA#T\n")
        assert status == 1
        assert "line 3" in err

    @pytest.mark.parametrize(
        "fasta, message",
        [
            (">\nACGT\n", "line 1: record has an empty name"),
            ("ACGT\n>a\nAC\n", "line 1: sequence data before the first header"),
        ],
        ids=["empty-name", "data-before-header"],
    )
    def test_malformed_record_fails_with_one_line(self, trigger_file, fasta, message):
        assert run(fasta2pfg_main, ["-t", trigger_file], fasta) == (1, "", f"fasta2pfg: {message}\n")

    def test_non_ascii_letter_rejected(self, tmp_path):
        triggers = tmp_path / "tag.txt"
        triggers.write_text("TAG\n")
        status, out, err = run(fasta2pfg_main, ["-t", str(triggers)], ">a\nACGT\u00c9ACGTACGTAG\n")
        assert status == 1
        assert out == ""
        assert err.startswith("fasta2pfg: ") and err.count("\n") == 1
        assert "line 2" in err

    def test_leading_trigger_makes_no_degenerate_segment(self, tmp_path):
        triggers = tmp_path / "tag.txt"
        triggers.write_text("TAG\n")
        status, out, err = run(fasta2pfg_main, ["-t", str(triggers)], ">a\nTAGACGTACC\n")
        assert status == 0
        assert err == ""
        assert [l for l in out.splitlines() if l.startswith("S")] == ["S\t0\tTAGACGTACC..."]

    def test_reads_input_file(self, trigger_file, tmp_path):
        fa = tmp_path / "p.fna"
        fa.write_text(FASTA)
        status, out, _ = run(fasta2pfg_main, ["-t", trigger_file, str(fa)])
        assert status == 0
        assert out

    def test_carriage_returns_end_lines_in_a_file(self, trigger_file, tmp_path):
        # a lone CR ends a FASTA line too, so line numbers stay the same
        path = tmp_path / "input.fa"
        argv = ["-t", trigger_file, str(path)]
        for end in ["\r", "\r\n"]:
            path.write_bytes(FASTA.replace("\n", end).encode())
            assert run(fasta2pfg_main, argv) == run(fasta2pfg_main, ["-t", trigger_file], FASTA)
            path.write_bytes(f">x{end}AC{end}A#T{end}".encode())
            assert run(fasta2pfg_main, argv) == (1, "", "fasta2pfg: line 3: reserved or invalid character '#'\n")

    def test_deterministic(self, trigger_file):
        first = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
        second = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
        assert first == second

    def test_invalid_graph_fails_with_one_line(self, trigger_file, monkeypatch):
        # unsorted segments and a path that neither overlaps nor ends with pads
        graph = make_graph(2, ["CA", "AC"], [("p", [0, 1])])
        monkeypatch.setattr(PARTITION_MODULE, "build_graph", lambda pangenome, triggers: graph)
        status, out, err = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
        assert (status, out) == (1, "")
        assert err.startswith("fasta2pfg: ") and err.count("\n") == 1
        assert "not in strict lexicographic order" in err and "does not end with 2 pad characters" in err


class TestGfa2Pfg:
    def test_fixed_point(self, trigger_file, running_gfa):
        status, out, _ = run(gfa2pfg_main, ["-t", trigger_file], running_gfa)
        assert status == 0
        assert out == running_gfa

    def test_star_overlap_input(self, trigger_file):
        gfa = "S\ta\tCACGTA\nS\tb\tCT\nP\ts1\ta+,b+\t*\n"
        status, out, _ = run(gfa2pfg_main, ["-t", trigger_file], gfa)
        assert status == 0
        assert sum(l.startswith("S") for l in out.splitlines()) == 4

    def test_overlap_longer_than_a_segment_fails(self, trigger_file):
        gfa = "S\ta\tACG\nS\tb\tACG\nP\tp\ta+,b+\t10M\n"
        status, out, err = run(gfa2pfg_main, ["-t", trigger_file], gfa)
        assert (status, out) == (1, "")
        assert err == "gfa2pfg: path 'p' step 1: declared overlap 10 is longer than a segment it joins\n"
        status, out, err = run(gfa2pfg_main, ["-t", trigger_file], gfa.replace("10M", "3M"))
        assert (status, err) == (0, "")
        assert [l for l in out.splitlines() if l.startswith("P")] == ["P\tp\t0+,1+\t2M"]

    @pytest.mark.parametrize("gfa", ["", "H\tVN:Z:1.0\tTL:i:2\nS\t0\tACGT\n"], ids=["empty", "segments-only"])
    def test_no_paths_fails(self, trigger_file, gfa):
        assert run(gfa2pfg_main, ["-t", trigger_file], gfa) == (1, "", "gfa2pfg: no P-records found\n")

    @pytest.mark.parametrize(
        "name",
        [lambda i: f"s{i}", lambda i: f"\u00e9 segment {i} of the graph"],
        ids=["short", "long-non-ascii"],
    )
    def test_renamed_segments_give_the_same_output(self, trigger_file, running_gfa, wide_gfa, name):
        for gfa in (running_gfa, wide_gfa):
            expected = run(gfa2pfg_main, ["-t", trigger_file], gfa)
            assert expected[0] == 0
            assert run(gfa2pfg_main, ["-t", trigger_file], rename_segments(gfa, name)) == expected

    def test_path_of_pads_fails(self, trigger_file):
        gfa = "H\tTL:i:2\nS\t0\t..\nP\tp\t0+\t*\n"
        message = "gfa2pfg: path 'p' expands to an empty sequence\n"
        assert run(gfa2pfg_main, ["-t", trigger_file], gfa) == (1, "", message)

    def test_reverse_orientation_fails(self, trigger_file):
        gfa = "S\ta\tCACG\nP\ts1\ta-\t*\n"
        status, _, err = run(gfa2pfg_main, ["-t", trigger_file], gfa)
        assert status == 1
        assert "unsupported" in err


class TestBuilders:
    @pytest.mark.parametrize("tool", ["fasta2pfg", "gfa2pfg"])
    def test_sort_no_suffixes(self, tool, trigger_file, running_gfa, wide_gfa, monkeypatch):
        inputs = [FASTA] if tool == "fasta2pfg" else [running_gfa, wide_gfa]
        expected = [run(MAINS[tool], ["-t", trigger_file], text) for text in inputs]
        assert expected[0] == (0, running_gfa, "")

        def refuse(*args):
            raise AssertionError("a suffix sort ran")

        for module in SORTING_MODULES:
            monkeypatch.setattr(module, "_prefix_doubling", refuse)
        assert [run(MAINS[tool], ["-t", trigger_file], text) for text in inputs] == expected
        # the patch does reach the sort that pfg2sa needs
        with pytest.raises(AssertionError, match="a suffix sort ran"):
            run(pfg2sa_main, [], running_gfa)


class TestPfg2Sa:
    def test_first_line_and_count(self, running_gfa):
        status, out, _ = run(pfg2sa_main, [], running_gfa)
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "0\t9\t0\t0"
        assert len(lines) == 21

    def test_bwt_column(self, running_gfa):
        status, out, _ = run(pfg2sa_main, ["--bwt"], running_gfa)
        assert status == 0
        bwt = "".join(line.split("\t")[4] for line in out.splitlines())
        assert bwt == "CCCGTC$$$AAAAAACCCCCG"

    def test_verify_passes(self, running_gfa):
        # success is exit status 0 alone
        status, out, err = run(pfg2sa_main, ["--verify"], running_gfa)
        assert (status, err) == (0, "")
        assert len(out.splitlines()) == 21

    def test_verify_refuses_a_large_input_before_spelling_it(self, running_gfa, monkeypatch):
        # the running example's 21 letters pass a limit of 21 but not of 20
        def unspelled(doc):
            raise AssertionError("path spelled before the size check")

        monkeypatch.setattr(ORACLE_MODULE, "MAX_ORACLE_BYTES", 20)
        monkeypatch.setattr(CLI_MODULE, "expand_gfa_paths", unspelled)
        assert run(pfg2sa_main, ["--verify"], running_gfa) == (1, "", "pfg2sa: --verify is limited to small inputs\n")
        monkeypatch.setattr(ORACLE_MODULE, "MAX_ORACLE_BYTES", 21)
        with pytest.raises(AssertionError, match="spelled"):
            run(pfg2sa_main, ["--verify"], running_gfa)

    def test_verify_rejects_a_structurally_broken_gfa(self, running_gfa):
        # the padded segment 2 mid-path fails the structural checks before
        # the oracle is consulted
        corrupted = running_gfa.replace("3+,0+,2+", "3+,2+,0+")
        status, out, err = run(pfg2sa_main, ["--verify"], corrupted)
        assert (status, out) == (1, "")
        assert err.startswith("pfg2sa: GFA does not encode a valid prefix-free graph: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [[], ["--bwt"]], ids=["plain", "bwt"])
    def test_verify_keeps_the_output(self, running_gfa, argv):
        status, out, err = run(pfg2sa_main, ["--verify", *argv], running_gfa)
        assert (status, err) == (0, "")
        assert out == run(pfg2sa_main, argv, running_gfa)[1]

    def test_verify_checks_the_graph_against_the_file(self, running_gfa, monkeypatch):
        # a graph with paths s2 and s3 swapped spells the file's sequences in
        # another order, so its stream is not the file's
        def swapped(doc):
            graph = graph_from_gfa(doc)
            paths = graph.paths
            paths[1], paths[2] = paths[2], paths[1]
            return make_graph(graph.k, graph.join.contents(), paths)

        monkeypatch.setattr(CLI_MODULE, "graph_from_gfa", swapped)
        assert run(pfg2sa_main, ["--verify"], running_gfa) == (1, "", "pfg2sa: stream disagrees with the oracle\n")

    @pytest.mark.parametrize(
        "sequences", [[("a", "cacgt"), ("b", "CACGT")], [("a", "acACac")]], ids=["two-cases", "mixed-case"]
    )
    def test_verify_passes_on_lower_case_library_input(self, sequences):
        # the reader upper-cases the letters, so the graph must be built from them upper-cased
        gfa = io.StringIO()
        write_gfa(build_graph(Pangenome(sequences), TriggerSet.from_words(["AC", "CG"])), gfa)
        status, out, err = run(pfg2sa_main, ["--verify"], gfa.getvalue())
        assert (status, err) == (0, "")
        assert len(out.splitlines()) == sum(len(data) for _, data in sequences)

    def test_verify_checks_the_batches_it_writes(self, running_gfa, monkeypatch):
        def reversed_sa(*args, **kwargs):
            for batch in emission_batches(*args, **kwargs):
                yield batch._replace(sa=batch.sa[::-1])

        monkeypatch.setattr(STREAM_MODULE, "emission_batches", reversed_sa)
        assert run(pfg2sa_main, ["--verify"], running_gfa) == (1, "", "pfg2sa: stream disagrees with the oracle\n")

    def test_non_ascii_segment_rejected(self):
        gfa = "H\tVN:Z:1.0\tTL:i:2\nS\t0\tAC\u00c9G..\nP\tp\t0+\t*\n"
        status, out, err = run(pfg2sa_main, [], gfa)
        assert status == 1
        assert out == ""
        assert err.startswith("pfg2sa: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_not_prefix_free_fails_before_output(self):
        # "ACG", at offset 1 of segment 2, is a proper prefix of segment 0, "ACGT.."
        gfa = "H\tVN:Z:1.0\tTL:i:2\nS\t0\tACGT..\nS\t1\tCGACGT..\nS\t2\tGACG\nP\ta\t2+,1+\t2M\nP\tb\t0+\t*\n"
        status, out, err = run(pfg2sa_main, ["--bwt"], gfa)
        assert status == 1
        assert out == ""
        assert err.startswith("pfg2sa: ") and err.count("\n") == 1
        assert "not prefix-free" in err

    @pytest.mark.parametrize("argv", [[], ["--bwt"]], ids=["plain", "bwt"])
    @pytest.mark.parametrize("size", [1, 3, None])
    def test_output_matches_stream_byte_for_byte(self, wide_gfa, wide_lines, argv, size, monkeypatch):
        if size is not None:
            monkeypatch.setattr(STREAM_MODULE, "BATCH_EMISSIONS", size)
        status, out, err = run(pfg2sa_main, argv, wide_gfa)
        assert (status, err) == (0, "")
        # lists, so that a failure reports the first differing line quickly
        assert out.split("\n") == wide_lines[bool(argv)].split("\n")

    @pytest.mark.parametrize("argv", [[], ["--bwt"], ["--verify"]], ids=["plain", "bwt", "verify"])
    def test_no_paths_prints_nothing(self, running_gfa, argv):
        gfa = "".join(l for l in running_gfa.splitlines(True) if not l.startswith("P"))
        assert run(pfg2sa_main, argv, gfa) == (0, "", "")

    @pytest.mark.parametrize("argv", [[], ["--verify"]], ids=["plain", "verify"])
    def test_segments_without_paths_print_nothing(self, argv):
        # no P-record is gfa2pfg's error only: pfg2sa streams an empty pangenome
        assert run(pfg2sa_main, argv, "H\tTL:i:2\nS\t0\tAC..\n") == (0, "", "")

    @pytest.mark.parametrize("argv", [[], ["--bwt"], ["--verify"]], ids=["plain", "bwt", "verify"])
    def test_path_that_spells_no_letter_fails(self, argv):
        # path q's one step is all pads: it spells an empty sequence
        gfa = "H\tTL:i:2\nS\t0\t..\nS\t1\tAC..\nP\tp\t1+\t*\nP\tq\t0+\t*\n"
        message = "GFA does not encode a valid prefix-free graph: path 1 ('q') spells an empty sequence"
        assert run(pfg2sa_main, argv, gfa) == (1, "", f"pfg2sa: {message}\n")

    @pytest.mark.parametrize(
        "records, message",
        [
            ("S\t0\tA\nS\t1\tAC..\nP\tp\t1+\t*\n", "segment 0 shorter than k"),
            ("S\t0\tCA..\nS\t1\tAC..\nP\tp\t0+\t*\n", "segments 0 and 1 not in strict lexicographic order"),
            ("S\t0\tA.C..\nS\t1\tAC..\nP\tp\t1+\t*\n", "segment 0 has misplaced pad characters"),
            # GTG ends with TG, but AC.. starts with AC
            ("S\t0\tAC..\nS\t1\tGTG\nP\tp\t1+,0+\t2M\n", "path 0 step 1: adjacent segments do not overlap by k"),
            ("S\t0\tACG\nP\tp\t0+\t*\n", "path 0 does not end with 2 pad characters"),
            # AC.. ends with the two pads that the segment of only pads starts with
            ("S\t0\t..\nS\t1\tAC..\nP\tp\t1+,0+\t2M\n", "path 0 step 0: padded segment 1 is not path-final"),
            ("S\t0\t..\nP\tp\t0+\t*\n", "path 0 ('p') spells an empty sequence"),
        ],
        ids=["short", "unordered", "misplaced-pads", "broken-overlap", "unpadded-end", "stray-pad", "spells-nothing"],
    )
    def test_each_structural_message_is_one_line(self, records, message):
        gfa = "H\tVN:Z:1.0\tTL:i:2\n" + records
        expected = f"pfg2sa: GFA does not encode a valid prefix-free graph: {message}\n"
        assert run(pfg2sa_main, [], gfa) == (1, "", expected)

    @pytest.mark.parametrize("argv", [[], ["--bwt"]], ids=["plain", "bwt"])
    @pytest.mark.parametrize("size", [None, 1, 2, 3])
    def test_unused_segment(self, running_gfa, argv, size, monkeypatch):
        # without path s3, segment 4 (CGAC) has no occurrence: its rows emit
        # nothing, so a batch's end is sought where row_begin is flat
        gfa = "".join(l for l in running_gfa.splitlines(True) if not l.startswith("P\ts3"))
        default = run(pfg2sa_main, argv, gfa)
        if size is not None:
            monkeypatch.setattr(STREAM_MODULE, "BATCH_EMISSIONS", size)
        status, out, err = run(pfg2sa_main, argv, gfa)
        assert (status, out, err) == default
        assert (status, err) == (0, "")
        assert len(out.splitlines()) == 14
        assert out == stream_lines(gfa, bwt=bool(argv))

    @pytest.mark.parametrize("tag", ["x", "0", "99999999999999999999"])
    def test_bad_header_tag_fails(self, running_gfa, tag):
        gfa = running_gfa.replace("TL:i:2", f"TL:i:{tag}")
        status, out, err = run(pfg2sa_main, [], gfa)
        assert status == 1
        assert out == ""
        assert err == f"pfg2sa: line 1: TL header tag must be a positive integer up to {sys.maxsize}\n"

    def test_large_header_tag_allocates_nothing_of_its_size(self, running_gfa):
        gfa = running_gfa.replace("TL:i:2", "TL:i:100000000")
        tracemalloc.start()
        try:
            status, out, err = run(pfg2sa_main, [], gfa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (status, out) == (1, "")
        assert "shorter than k" in err and err.count("\n") == 1
        assert peak < 16 << 20

    def test_missing_header_tag_fails(self):
        gfa = "S\t0\tAC..\nP\tp\t0+\t*\n"
        status, _, err = run(pfg2sa_main, [], gfa)
        assert status == 1
        assert "TL" in err

    @pytest.mark.parametrize("old, new", [("\t2M,2M\n", "\t0M,0M\n"), ("\t2M,2M\n", "\t*\n")], ids=["0M", "star"])
    def test_path_overlaps_must_be_k(self, running_gfa, old, new):
        # gfa2pfg expands a path by its declared overlaps, so pfg2sa must
        # not read the same path as overlapping by k
        gfa = running_gfa.replace(old, new)
        assert gfa != running_gfa
        assert run(pfg2sa_main, [], gfa) == (1, "", "pfg2sa: path 's2' must declare an overlap of 2M at every join\n")

    @pytest.mark.parametrize("first, second", [("0", "0_1"), ("00", "1")])
    def test_segment_names_must_be_plain_ids(self, first, second):
        # int() reads 0_1 as 1 and 00 as 0, so both GFAs once made a valid graph
        gfa = f"H\tVN:Z:1.0\tTL:i:2\nS\t{first}\tAC..\nS\t{second}\tCAC\nP\tp\t{second}+,{first}+\t2M\n"
        status, out, err = run(pfg2sa_main, [], gfa)
        assert (status, out) == (1, "")
        assert err == "pfg2sa: segment names must be the ids 0 to 1 in plain decimal\n"


class TestRecordOrder:
    """GFA fixes no record order; segment names must be unique."""

    @pytest.mark.parametrize("argv", [[], ["--bwt"], ["--verify"]], ids=["plain", "bwt", "verify"])
    def test_paths_before_segments(self, running_gfa, argv):
        lines = running_gfa.splitlines(True)
        reordered = "".join([l for l in lines if l[0] == "P"] + [l for l in lines if l[0] != "P"][::-1])
        assert run(pfg2sa_main, argv, reordered) == run(pfg2sa_main, argv, running_gfa)

    def test_gfa2pfg_paths_before_segments(self, trigger_file, running_gfa):
        lines = running_gfa.splitlines(True)
        reordered = "".join([l for l in lines if l[0] == "P"] + [l for l in lines if l[0] != "P"])
        assert run(gfa2pfg_main, ["-t", trigger_file], reordered) == (0, running_gfa, "")

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    def test_repeated_segment_name_fails(self, tool, trigger_file, running_gfa):
        s_lines = [l for l in running_gfa.splitlines(True) if l.startswith("S\t")]
        gfa = running_gfa + s_lines[1].replace("\tACG\n", "\tACGG\n")
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        status, out, err = run(MAINS[tool], argv, gfa)
        assert (status, out) == (1, "")
        line = len(running_gfa.splitlines()) + 1
        assert err == f"{tool}: line {line}: segment name '1' is repeated\n"

    def test_unknown_step_names_the_path_line(self, running_gfa):
        gfa = "P\tx\t3+,9+\t2M\n" + running_gfa
        assert run(pfg2sa_main, [], gfa) == (1, "", "pfg2sa: line 1: path step references unknown segment '9'\n")


class TestRecordNames:
    """Sequence and path names are unique, and links name known segments."""

    def test_fasta2pfg_repeated_record_name_fails(self, tmp_path):
        triggers = tmp_path / "tag.txt"
        triggers.write_text("TAG\n")
        fasta = ">a\nACGTAGCA\n>a\nACGTAGCC\n"
        assert run(fasta2pfg_main, ["-t", str(triggers)], fasta) == (
            1,
            "",
            "fasta2pfg: line 3: record name 'a' is repeated\n",
        )

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    def test_repeated_path_name_fails(self, tool, trigger_file, running_gfa):
        p_line = next(l for l in running_gfa.splitlines(True) if l.startswith("P\ts2\t"))
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        line = len(running_gfa.splitlines()) + 1
        expected = f"{tool}: line {line}: path name 's2' is repeated\n"
        assert run(MAINS[tool], argv, running_gfa + p_line) == (1, "", expected)

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    def test_link_to_unknown_segment_fails(self, tool, trigger_file, running_gfa):
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        line = len(running_gfa.splitlines()) + 1
        expected = f"{tool}: line {line}: link references unknown segment '99'\n"
        assert run(MAINS[tool], argv, running_gfa + "L\t99\t+\t0\t+\t3M\n") == (1, "", expected)


class TestOverlapTokens:
    """An overlap is ASCII digits then M; str.isdigit() also takes "²" and "٣"."""

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    @pytest.mark.parametrize("token", ["\u00b2M", "\u0663M"], ids=["superscript-two", "arabic-indic-three"])
    @pytest.mark.parametrize(
        "old, line", [("L\t0\t+\t2\t+\t2M\n", 8), ("P\ts2\t3+,0+,2+\t2M,2M\n", 16)], ids=["L", "P"]
    )
    def test_non_ascii_digits_fail_with_one_line(self, tool, token, old, line, trigger_file, running_gfa):
        assert running_gfa.splitlines(True)[line - 1] == old
        gfa = running_gfa.replace(old, old[: old.rindex("2M")] + token + "\n")
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        assert run(MAINS[tool], argv, gfa) == (1, "", f"{tool}: line {line}: unsupported overlap {token!r}\n")


class TestUnsupportedRecords:
    """Walks and a trigger length tag that cannot be read fail with one line."""

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    @pytest.mark.parametrize("paths", ["", "P\tp\t0+,1+\t2M\n"], ids=["walks-only", "with-paths"])
    def test_walks_fail(self, tool, paths, trigger_file):
        # pfg2sa printed nothing on the walks alone, and gfa2pfg kept only the P-path
        gfa = "H\tVN:Z:1.1\tTL:i:2\nS\t0\tACG\nS\t1\tCGT..\n" + paths + "W\tsample\t1\tchr1\t0\t4\t>0>1\n"
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        line = gfa.count("\n")
        assert run(MAINS[tool], argv, gfa) == (1, "", f"{tool}: line {line}: walks (W-records) are unsupported\n")

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("H\tTL:Z:2\n", "line 1: TL header tag must have type i, not 'Z'"),
            ("H\tVN:Z:1.0\tTL:f:2\n", "line 1: TL header tag must have type i, not 'f'"),
            ("H\tTL:i:1\nH\tTL:i:2\n", "line 2: TL header tag is repeated"),
            ("H\tTL:i:2\tTL:i:2\n", "line 1: TL header tag is repeated"),
            # gfa2pfg reads no k from the header, but its value is checked too
            ("H\tTL:i:abc\n", f"line 1: TL header tag must be a positive integer up to {sys.maxsize}"),
            ("H\tVN:Z:1.0\nH\tTL:i:0\n", f"line 2: TL header tag must be a positive integer up to {sys.maxsize}"),
            ("H\tTL:i:1_0\n", f"line 1: TL header tag must be a positive integer up to {sys.maxsize}"),
            (f"H\tTL:i:{'9' * 5000}\n", f"line 1: TL header tag must be a positive integer up to {sys.maxsize}"),
        ],
        ids=["string", "float", "two-records", "one-record", "letters", "zero", "underscore", "5000-digits"],
    )
    def test_trigger_length_tag_must_be_one_integer(self, tool, header, message, trigger_file, running_gfa):
        gfa = header + "".join(l for l in running_gfa.splitlines(True) if not l.startswith("H"))
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        assert run(MAINS[tool], argv, gfa) == (1, "", f"{tool}: {message}\n")


class TestCollector:
    """A tool run as a program freezes the objects loaded before it reads
    its input, so that the collections at exit skip them; a call with an
    argument list leaves the caller's collector alone."""

    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_program_freezes_the_loaded_heap(self, tool, trigger_file, running_gfa):
        argv, text = tool_input(tool, trigger_file, running_gfa)
        code = (
            f"import gc, sys; from pfg.cli import {tool}_main as main; "
            "status = main(); print(gc.get_freeze_count(), file=sys.stderr); sys.exit(status)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            input=text.encode(),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert (result.returncode, result.stdout.decode()) == (0, run(MAINS[tool], argv, text)[1])
        assert int(result.stderr) > 0

    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_call_with_arguments_leaves_the_collector_alone(self, tool, trigger_file, running_gfa):
        argv, text = tool_input(tool, trigger_file, running_gfa)
        frozen = gc.get_freeze_count()
        status, _, err = run(MAINS[tool], argv, text)
        assert (status, err, gc.get_freeze_count()) == (0, "", frozen)


class ClosedPipe(io.StringIO):
    """An output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBoundary:
    @pytest.mark.parametrize("tool", sorted(MAINS))
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_non_utf8_input_fails_with_one_line(self, tool, via, tmp_path):
        triggers = tmp_path / "tag.txt"
        triggers.write_text("TAG\n")
        argv = [] if tool == "pfg2sa" else ["-t", str(triggers)]
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8[tool]), encoding="utf-8", errors="strict")
        if via == "file":
            path = tmp_path / "input"
            path.write_bytes(NOT_UTF8[tool])
            argv.append(str(path))
            stdin = io.StringIO("")
        stdout, stderr = io.StringIO(), io.StringIO()
        status = MAINS[tool](argv, stdin=stdin, stdout=stdout, stderr=stderr)
        assert (status, stdout.getvalue()) == (1, "")
        err = stderr.getvalue()
        assert err.startswith(f"{tool}: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_non_utf8_stdin_fails_under_c_locale(self, tool, tmp_path):
        # the C locale's standard input decodes bad bytes to surrogates
        # instead of failing, unless the tool reads it as strict UTF-8
        triggers = tmp_path / "tag.txt"
        triggers.write_text("TAG\n")
        argv = [] if tool == "pfg2sa" else ["-t", str(triggers)]
        code = f"import sys; from pfg.cli import {tool}_main as main; sys.exit(main())"
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            input=NOT_UTF8[tool],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C"),
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        err = result.stderr.decode()
        assert err.startswith(f"{tool}: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_closed_output_pipe_exits_quietly(self, tool, trigger_file, running_gfa):
        argv, text = tool_input(tool, trigger_file, running_gfa)
        stderr = io.StringIO()
        status = MAINS[tool](argv, stdin=io.StringIO(text), stdout=ClosedPipe(), stderr=stderr)
        assert (status, stderr.getvalue()) == (141, "")

    @pytest.mark.parametrize("tool", ["gfa2pfg", "pfg2sa"])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_carriage_return_inside_a_segment_fails(self, tool, via, trigger_file, tmp_path):
        # read with universal newlines, the CR would end the line and cut the segment to AC..
        gfa = b"H\tVN:Z:1.0\tTL:i:2\nS\t0\tAC..\rGT\nP\tp\t0+\t*\n"
        argv = ["-t", trigger_file] if tool == "gfa2pfg" else []
        if via == "file":
            (tmp_path / "input.gfa").write_bytes(gfa)
            argv.append(str(tmp_path / "input.gfa"))
        code = f"import sys; from pfg.cli import {tool}_main as main; sys.exit(main())"
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            input=gfa if via == "stdin" else b"",
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode() == f"{tool}: line 2: reserved or invalid character '\\r' in S-record\n"

    def test_pipe_into_head(self, wide_gfa, wide_lines, tmp_path):
        # about 240 kB of output, more than a pipe holds, so writes go on
        # after head has exited
        gfa = tmp_path / "wide.gfa"
        gfa.write_text(wide_gfa)
        code = "import sys; from pfg.cli import pfg2sa_main as main; sys.exit(main())"
        with open(tmp_path / "stderr", "wb") as err:
            tool = subprocess.Popen(
                [sys.executable, "-c", code, str(gfa)],
                stdout=subprocess.PIPE,
                stderr=err,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
            )
            head = subprocess.Popen(["head", "-1"], stdin=tool.stdout, stdout=subprocess.PIPE)
            tool.stdout.close()
            first, _ = head.communicate(timeout=60)
            status = tool.wait(timeout=60)
        assert first.decode() == wide_lines[False].split("\n")[0] + "\n"
        assert (status, (tmp_path / "stderr").read_bytes()) == (141, b"")
