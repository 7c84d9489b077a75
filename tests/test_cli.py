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
from pfg.stream import emission_batches

FASTA = ">s1\nCACGTACT\n>s2\nCACACT\n>s3\nCACGACT\n"
# the package exports the function ``stream`` under the module's name
STREAM_MODULE = importlib.import_module("pfg.stream")
CLI_MODULE = importlib.import_module("pfg.cli")
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

    def test_deterministic(self, trigger_file):
        first = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
        second = run(fasta2pfg_main, ["-t", trigger_file], FASTA)
        assert first == second


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

    def test_reverse_orientation_fails(self, trigger_file):
        gfa = "S\ta\tCACG\nP\ts1\ta-\t*\n"
        status, _, err = run(gfa2pfg_main, ["-t", trigger_file], gfa)
        assert status == 1
        assert "unsupported" in err


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
        status, out, err = run(pfg2sa_main, ["--verify"], running_gfa)
        assert status == 0
        assert "verified" in err

    def test_verify_detects_corruption(self, running_gfa):
        # swap two path steps so the GFA no longer matches its own joins
        corrupted = running_gfa.replace("3+,0+,2+", "3+,2+,0+")
        status, _, err = run(pfg2sa_main, ["--verify"], corrupted)
        assert status == 1

    @pytest.mark.parametrize("argv", [[], ["--bwt"]], ids=["plain", "bwt"])
    def test_verify_keeps_the_output(self, running_gfa, argv):
        status, out, err = run(pfg2sa_main, ["--verify", *argv], running_gfa)
        assert (status, err) == (0, "verified against the brute-force oracle\n")
        assert out == run(pfg2sa_main, argv, running_gfa)[1]

    def test_verify_checks_the_batches_it_writes(self, running_gfa, monkeypatch):
        def reversed_sa(*args, **kwargs):
            for batch in emission_batches(*args, **kwargs):
                yield batch._replace(sa=batch.sa[::-1])

        monkeypatch.setattr(CLI_MODULE, "emission_batches", reversed_sa)
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

    @pytest.mark.parametrize("argv", [[], ["--bwt"], ["--verify", "-q"]], ids=["plain", "bwt", "verify"])
    def test_no_paths_prints_nothing(self, running_gfa, argv):
        gfa = "".join(l for l in running_gfa.splitlines(True) if not l.startswith("P"))
        assert run(pfg2sa_main, argv, gfa) == (0, "", "")

    @pytest.mark.parametrize("argv", [[], ["--bwt"]], ids=["plain", "bwt"])
    def test_unused_segment(self, running_gfa, argv):
        # without path s3, segment 4 (CGAC) has no occurrence
        gfa = "".join(l for l in running_gfa.splitlines(True) if not l.startswith("P\ts3"))
        status, out, err = run(pfg2sa_main, argv, gfa)
        assert (status, err) == (0, "")
        assert len(out.splitlines()) == 14
        assert out == stream_lines(gfa, bwt=bool(argv))

    @pytest.mark.parametrize("tag", ["x", "0", "99999999999999999999"])
    def test_bad_header_tag_fails(self, running_gfa, tag):
        gfa = running_gfa.replace("TL:i:2", f"TL:i:{tag}")
        status, out, err = run(pfg2sa_main, [], gfa)
        assert status == 1
        assert out == ""
        assert err.startswith("pfg2sa: TL header tag must be a positive integer") and err.count("\n") == 1

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

    @pytest.mark.parametrize("first, second", [("0", "0_1"), ("00", "1")])
    def test_segment_names_must_be_plain_ids(self, first, second):
        # int() reads 0_1 as 1 and 00 as 0, so both GFAs once made a valid graph
        gfa = f"H\tVN:Z:1.0\tTL:i:2\nS\t{first}\tAC..\nS\t{second}\tCAC\nP\tp\t{second}+,{first}+\t2M\n"
        status, out, err = run(pfg2sa_main, [], gfa)
        assert (status, out) == (1, "")
        assert err == "pfg2sa: segment names must be the ids 0 to 1 in plain decimal\n"


class TestRecordOrder:
    """GFA fixes no record order; segment names must be unique."""

    @pytest.mark.parametrize("argv", [[], ["--bwt"]], ids=["plain", "bwt"])
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
        argv = [] if tool == "pfg2sa" else ["-t", trigger_file]
        text = FASTA if tool == "fasta2pfg" else running_gfa
        stderr = io.StringIO()
        status = MAINS[tool](argv, stdin=io.StringIO(text), stdout=ClosedPipe(), stderr=stderr)
        assert (status, stderr.getvalue()) == (141, "")

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
