import io

import pytest

from pfg import FormatError, read_fasta


class TestReadFasta:
    def test_line_joining(self):
        p = read_fasta(io.StringIO(">s1\nCACG\nTACT\n"))
        assert p.sequences == [("s1", "CACGTACT")]

    def test_running_example_total_length(self):
        text = ">s1\nCACGTACT\n>s2\nCACACT\n>s3\nCACGACT\n"
        assert read_fasta(io.StringIO(text)).total_length == 21

    def test_empty_sequence_rejected(self):
        with pytest.raises(FormatError):
            read_fasta(io.StringIO(">x\n\n"))

    def test_repeated_name_rejected(self):
        with pytest.raises(FormatError) as exc:
            read_fasta(io.StringIO(">a first\nACGT\n>b\nAC\n>a second\nACGG\n"))
        assert str(exc.value) == "line 5: record name 'a' is repeated"

    def test_name_up_to_whitespace(self):
        p = read_fasta(io.StringIO(">chr1 homo sapiens\nACGT\n"))
        assert p.sequences[0][0] == "chr1"

    def test_lowercase_uppercased(self):
        p = read_fasta(io.StringIO(">x\nacgt\n"))
        assert p.sequences[0][1] == "ACGT"

    def test_crlf_tolerated(self):
        p = read_fasta(io.StringIO(">x\r\nAC\r\nGT\r\n"))
        assert p.sequences[0][1] == "ACGT"

    def test_reserved_character_rejected_with_line(self):
        with pytest.raises(FormatError) as exc:
            read_fasta(io.StringIO(">x\nAC\nA#T\n"))
        assert "line 3" in str(exc.value)

    def test_no_records_rejected(self):
        with pytest.raises(FormatError):
            read_fasta(io.StringIO(""))

