import random
import tracemalloc

import pytest

from pfg import Pangenome
from pfg.oracle import oracle_bwt, oracle_sa, oracle_text

from conftest import FULL_SA


class TestOracleSa:
    def test_running_example(self, pangenome):
        assert oracle_sa(pangenome, 2) == FULL_SA

    def test_two_char_sequence(self):
        p = Pangenome(sequences=[("x", "AB")])
        assert oracle_sa(p, 2) == [0, 1]

    def test_identical_sequences_permutation(self):
        p = Pangenome(sequences=[("a", "ACGTACG"), ("b", "ACGTACG")])
        sa = oracle_sa(p, 2)
        assert sorted(sa) == list(range(14))

    def test_suffixes_strictly_increase(self, pangenome):
        text, starts = oracle_text(pangenome, 2)
        sa = oracle_sa(pangenome, 2)
        bases = []
        offset = 0
        for (_, data), padded in zip(pangenome.sequences, starts):
            bases.append((offset, padded))
            offset += len(data)

        def expanded(s):
            for base, padded in reversed(bases):
                if s >= base:
                    return text[padded + (s - base):]

        strings = [expanded(s) for s in sa]
        assert all(a < b for a, b in zip(strings, strings[1:]))

    def test_memory_is_linear_in_the_text(self):
        # 48 kB, under MAX_ORACLE_BYTES: one string per suffix would hold
        # about n**2 / 2 bytes, over a gigabyte
        rng = random.Random(5)
        p = Pangenome(sequences=[(f"r{i}", "".join(rng.choices("ACGT", k=12_000))) for i in range(4)])
        tracemalloc.start()
        try:
            sa = oracle_sa(p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(sa) == list(range(48_000))
        assert peak < 32 * 2**20

    def test_size_guard(self):
        rng = random.Random(0)
        p = Pangenome(sequences=[("big", "".join(rng.choices("ACGT", k=60_000)))])
        with pytest.raises(ValueError):
            oracle_sa(p, 2)


class TestOracleBwt:
    def test_running_example_first_entry(self, pangenome):
        sa = oracle_sa(pangenome, 2)
        bwt = oracle_bwt(pangenome, sa)
        assert bwt[0] == "C"  # preceding character of suffix at 9

    def test_sequence_start_marker(self, pangenome):
        sa = oracle_sa(pangenome, 2)
        bwt = oracle_bwt(pangenome, sa)
        assert bwt[sa.index(0)] == "$"
        assert bwt[sa.index(8)] == "$"
        assert bwt[sa.index(14)] == "$"

    def test_length(self, pangenome):
        sa = oracle_sa(pangenome, 2)
        assert len(oracle_bwt(pangenome, sa)) == 21
