import random
from functools import cmp_to_key

import numpy as np
import pytest

from pfg import build_join, build_suffix_table, normalize, suffixes
from pfg.graph import char_rank
from pfg.suffixes import (
    _lcp_from_levels,
    _packed_keys,
    _prefix_doubling,
    _symbols,
    annotate,
    lcp_array,
    suffix_array,
)

from conftest import SUFFIX_TABLE_ROWS


def naive_suffix_array(text):
    mapped = [tuple(char_rank(c) for c in text[i:]) for i in range(len(text))]
    return sorted(range(len(text)), key=lambda i: mapped[i])


def naive_int_suffix_array(symbols):
    """Sorted suffixes, compared one symbol at a time; past the end is smallest."""
    n = len(symbols)

    def compare(i, j):
        while i < n and j < n and symbols[i] == symbols[j]:
            i, j = i + 1, j + 1
        if i == n or j == n:
            return (i < n) - (j < n)
        return (symbols[i] > symbols[j]) - (symbols[i] < symbols[j])

    return sorted(range(n), key=cmp_to_key(compare))


def naive_lcp(text, sa):
    lcp = [-1]
    for a, b in zip(sa, sa[1:]):
        h = 0
        while a + h < len(text) and b + h < len(text) and text[a + h] == text[b + h]:
            h += 1
        lcp.append(h)
    return lcp


class TestBuildJoin:
    def test_running_example(self, graph):
        join = build_join(graph)
        assert join.text == b"ACAC#ACG#ACT..#CAC#CGAC#CGTAC#$"
        assert len(join.text) == 31
        assert join.boundaries.tolist() == [0, 5, 9, 15, 19, 24]

    def test_single_segment(self):
        g = normalize({0: "AB.."}, [[0]], k=2)
        assert build_join(g).text == b"AB..#$"

    def test_two_segments(self):
        g = normalize({0: "X..", 1: "XY.."}, [[0]], k=2)
        assert build_join(g).text == b"X..#XY..#$"


class TestSuffixArray:
    def test_running_example_spots(self, graph):
        sa = suffix_array(build_join(graph).text)
        assert sa[0] == 30
        assert sa[1] == 29
        assert sa[2] == 4
        assert sa[13] == 0
        assert sa[30] == 26

    def test_two_char_text(self):
        assert suffix_array("A$").tolist() == [1, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = random.Random(seed)
        text = "".join(rng.choices("ACGT.#", k=200)) + "$"
        assert suffix_array(text).tolist() == naive_suffix_array(text)

    def test_reserved_ranking_applies(self):
        # '$' sorts below '#' although byte order says otherwise
        assert suffix_array("#$").tolist() == [1, 0]


class TestLcpArray:
    def test_running_example_spots(self, graph):
        text = build_join(graph).text
        lcp = lcp_array(text, suffix_array(text))
        assert lcp[0] == -1
        assert lcp[13] == 2
        assert lcp[21] == 4
        assert lcp[12] == 5

    def test_periodic_text_lifts_more_than_ten_rounds(self):
        text = "ACG" * 370 + "$"
        sa, _, _, levels = _prefix_doubling(_symbols(text))
        assert len(levels) > 10
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle(self, seed):
        rng = random.Random(100 + seed)
        text = "".join(rng.choices("ACG", k=rng.randint(2, 300)))
        sa = suffix_array(text)
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())


class TestPackedFirstSort:
    """The first sort packs ``width`` symbols per key: 16 for the join's
    alphabet, fewer for larger alphabets; code 0 stands past the end."""

    @pytest.mark.parametrize("seed", range(10))
    def test_texts_without_sentinel(self, seed):
        rng = random.Random(200 + seed)
        text = "".join(rng.choices(rng.choice(["A", "AC", "ACGT.#"]), k=rng.randint(1, 120)))
        sa = suffix_array(text)
        assert sa.tolist() == naive_suffix_array(text)
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 15, 16, 17])
    def test_texts_around_the_packing_width(self, length):
        for text in ("A" * length, ("ACG" * length)[:length], ("CA" * length)[: length - 1] + "$"):
            sa = suffix_array(text)
            assert sa.tolist() == naive_suffix_array(text)
            assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())

    @pytest.mark.parametrize("distinct, width", [(1, 32), (3, 16), (8, 8), (300, 4), (40_000, 2)])
    def test_sparse_integer_alphabets(self, distinct, width):
        rng = random.Random(distinct)
        values = rng.sample(range(100_001), distinct)
        symbols = values + rng.choices(values, k=400)
        symbols += symbols[:60]  # a repeat that needs doubling rounds
        assert _packed_keys(np.array(symbols))[2] == width
        sa, isa, shared, levels = _prefix_doubling(np.array(symbols))
        expected = naive_int_suffix_array(symbols)
        assert sa.tolist() == expected
        assert isa[sa].tolist() == list(range(len(symbols)))
        assert _lcp_from_levels(sa, isa, shared, levels).tolist() == naive_lcp(symbols, expected)


    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_adjacent_lcp_around_the_packing_width(self, extra):
        # a word and its copy, told apart by the letter after them, share
        # exactly width + extra letters
        width = _packed_keys(_symbols("GTA#C$"))[2]
        rng = random.Random(extra)
        word = "".join(rng.choices("GT", k=width + extra))
        text = word + "A#" + word + "C$"
        sa = suffix_array(text)
        lcp = lcp_array(text, sa).tolist()
        assert width == 16
        assert lcp == naive_lcp(text, sa.tolist())
        assert max(lcp) == width + extra

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("distinct, width", [(1, 32), (3, 16), (8, 8), (300, 4), (40_000, 2)])
    def test_sparse_alphabets_around_the_packing_width(self, distinct, width, extra):
        rng = random.Random(distinct + extra)
        values = rng.sample(range(100_001), distinct)
        word = rng.choices(values, k=width + extra)
        # with one value every LCP up to the length occurs
        symbols = values + word + values[:1] + rng.choices(values, k=40) + word + values[-1:]
        assert _packed_keys(np.array(symbols))[2] == width
        sa, isa, shared, levels = _prefix_doubling(np.array(symbols))
        expected = naive_int_suffix_array(symbols)
        lcp = _lcp_from_levels(sa, isa, shared, levels).tolist()
        assert sa.tolist() == expected
        assert lcp == naive_lcp(symbols, expected)
        assert width + extra in lcp


class TestAnnotate:
    def test_running_example_rows(self, graph):
        join = build_join(graph)
        sa = suffix_array(join.text)
        seg_id, pos = annotate(join, sa)
        assert (seg_id[13], pos[13]) == (0, 0)
        assert (seg_id[0], pos[0]) == (6, 0)
        assert (seg_id[1], pos[1]) == (5, 5)
        assert (seg_id[21], pos[21]) == (3, 0)


class TestSuffixTable:
    def test_full_table_matches_fixture(self, graph):
        table = build_suffix_table(graph)
        assert len(table) == 31
        for i, sa, lcp, seg_id, pos in SUFFIX_TABLE_ROWS:
            assert table.sa[i] == sa
            assert table.lcp[i] == lcp
            assert table.seg_id[i] == seg_id
            assert table.pos[i] == pos

    def test_int64_columns_past_2_to_the_31(self, graph, monkeypatch):
        assert suffixes._index_dtype(2**31 - 1) is np.int32
        assert suffixes._index_dtype(2**31) is np.int64
        # a join that long is too large to build here, so force the wide type
        monkeypatch.setattr(suffixes, "_index_dtype", lambda n: np.int64)
        table = build_suffix_table(graph)
        columns = (table.sa, table.lcp, table.seg_id, table.pos)
        assert {column.dtype for column in columns} == {np.dtype(np.int64)}
        assert [list(row) for row in zip(*(c.tolist() for c in columns))] == [
            list(row[1:]) for row in SUFFIX_TABLE_ROWS
        ]

    def test_rows_point_at_join_characters(self, graph):
        join = build_join(graph)
        table = build_suffix_table(graph)
        for i in range(len(table)):
            sid, pos = table.seg_id[i], table.pos[i]
            if sid < len(graph.segments) and pos < len(graph.content(sid)):
                assert chr(join.text[table.sa[i]]) == graph.content(sid)[pos]
