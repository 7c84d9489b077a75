import io

import pytest

from pfg.cli import fasta2pfg_main, gfa2pfg_main, pfg2sa_main

FASTA = ">s1\nCACGTACT\n>s2\nCACACT\n>s3\nCACGACT\n"


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

    def test_missing_header_tag_fails(self):
        gfa = "S\t0\tAC..\nP\tp\t0+\t*\n"
        status, _, err = run(pfg2sa_main, [], gfa)
        assert status == 1
        assert "TL" in err
