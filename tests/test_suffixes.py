import random

import pytest

from pfg import build_join, build_suffix_table, normalize
from pfg.graph import char_rank
from pfg.suffixes import _prefix_doubling, _symbols, annotate, lcp_array, suffix_array

from conftest import SUFFIX_TABLE_ROWS


def naive_suffix_array(text):
    mapped = [tuple(char_rank(c) for c in text[i:]) for i in range(len(text))]
    return sorted(range(len(text)), key=lambda i: mapped[i])


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
        assert join.text == "ACAC#ACG#ACT..#CAC#CGAC#CGTAC#$"
        assert len(join.text) == 31
        assert join.boundaries == [0, 5, 9, 15, 19, 24]

    def test_single_segment(self):
        g = normalize({0: "AB.."}, [[0]], k=2)
        assert build_join(g).text == "AB..#$"

    def test_two_segments(self):
        g = normalize({0: "X..", 1: "XY.."}, [[0]], k=2)
        assert build_join(g).text == "X..#XY..#$"


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
        sa, ranks = _prefix_doubling(_symbols(text))
        assert len(ranks) > 10
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle(self, seed):
        rng = random.Random(100 + seed)
        text = "".join(rng.choices("ACG", k=rng.randint(2, 300)))
        sa = suffix_array(text)
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())


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

    def test_rows_point_at_join_characters(self, graph):
        join = build_join(graph)
        table = build_suffix_table(graph)
        for i in range(len(table)):
            sid, pos = table.seg_id[i], table.pos[i]
            if sid < len(graph.segments) and pos < len(graph.content(sid)):
                assert join.text[table.sa[i]] == graph.content(sid)[pos]
