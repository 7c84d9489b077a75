import random
import tracemalloc
from functools import cmp_to_key

import numpy as np
import pytest

from pfg import Pangenome, TriggerSet, build_graph, build_suffix_table, suffixes
from pfg.graph import _LETTERS, PAD, SENTINEL, SEPARATOR
from pfg.suffixes import (
    _packed_keys,
    _prefix_doubling,
    _reach,
    annotate,
    build_join,
    lcp_array,
    suffix_array,
)

from conftest import (
    SUFFIX_TABLE_ROWS,
    join_positions,
    make_graph,
    random_dictionary,
    random_instance,
    runs,
    separator_runs,
)


def naive_suffix_array(text):
    return sorted(range(len(text)), key=lambda i: text[i:])


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
        assert join.text == b"ACAC%ACG%ACT..%CAC%CGAC%CGTAC%$"
        assert len(join.text) == 31
        assert join.boundaries.tolist() == [0, 5, 9, 15, 19, 24]

    def test_single_segment(self):
        g = make_graph(2, ["AB.."], [("p", [0])])
        assert build_join(g).text == b"AB..%$"

    def test_two_segments(self):
        g = make_graph(2, ["X..", "XY.."], [("p", [0])])
        assert build_join(g).text == b"X..%XY..%$"


class TestSuffixArray:
    def test_running_example_spots(self, graph):
        sa = suffix_array(build_join(graph).text)
        assert sa[0] == 30
        assert sa[1] == 29
        assert sa[2] == 4
        assert sa[13] == 0
        assert sa[30] == 26

    def test_two_char_text(self):
        assert suffix_array(b"A$").tolist() == [1, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = random.Random(seed)
        text = bytes(rng.choices(b"ACGT.%", k=200)) + b"$"
        assert suffix_array(text).tolist() == naive_suffix_array(text)

    def test_reserved_characters_sort_below_every_letter_in_byte_order(self):
        assert ord(SENTINEL) < ord(SEPARATOR) < ord(PAD) < min(_LETTERS)


class TestLcpArray:
    def test_running_example_spots(self, graph):
        text = build_join(graph).text
        lcp = lcp_array(text, suffix_array(text))
        assert lcp[0] == -1
        assert lcp[13] == 2
        assert lcp[21] == 4
        assert lcp[12] == 5

    def test_periodic_text_lifts_more_than_ten_rounds(self):
        # adjacent suffixes share more than 2**10 symbols
        text = b"ACG" * 370 + b"$"
        sa = suffix_array(text)
        lcp = lcp_array(text, sa).tolist()
        assert max(lcp) > 2**10
        assert lcp == naive_lcp(text, sa.tolist())

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle(self, seed):
        rng = random.Random(100 + seed)
        text = bytes(rng.choices(b"ACG", k=rng.randint(2, 300)))
        sa = suffix_array(text)
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())


class TestPackedFirstSort:
    """The first sort packs ``width`` symbols per key: 16 for the join's
    alphabet, fewer for larger alphabets; code 0 stands past the end."""

    @pytest.mark.parametrize("seed", range(10))
    def test_texts_without_sentinel(self, seed):
        rng = random.Random(200 + seed)
        text = bytes(rng.choices(rng.choice([b"A", b"AC", b"ACGT.%"]), k=rng.randint(1, 120)))
        sa = suffix_array(text)
        assert sa.tolist() == naive_suffix_array(text)
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa.tolist())

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 15, 16, 17])
    def test_texts_around_the_packing_width(self, length):
        for text in (b"A" * length, (b"ACG" * length)[:length], (b"CA" * length)[: length - 1] + b"$"):
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
        sa, isa, head = _prefix_doubling(np.array(symbols))
        expected = naive_int_suffix_array(symbols)
        assert sa.tolist() == expected
        assert isa[sa].tolist() == list(range(len(symbols)))
        assert head.all()


    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_adjacent_lcp_around_the_packing_width(self, extra):
        # a word and its copy, told apart by the letter after them, share
        # exactly width + extra letters
        width = _packed_keys(np.frombuffer(b"GTA%C$", dtype=np.uint8))[2]
        rng = random.Random(extra)
        word = bytes(rng.choices(b"GT", k=width + extra))
        text = word + b"A%" + word + b"C$"
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
        sa, _, _ = _prefix_doubling(np.array(symbols))
        expected = naive_int_suffix_array(symbols)
        assert sa.tolist() == expected
        assert width + extra in naive_lcp(symbols, expected)


class TestAnnotate:
    def test_running_example_rows(self, graph):
        join = build_join(graph)
        sa = suffix_array(join.text)
        seg_id, pos = annotate(join, sa)
        assert (seg_id[13], pos[13]) == (0, 0)
        assert (seg_id[0], pos[0]) == (6, 0)
        assert (seg_id[1], pos[1]) == (5, 5)
        assert (seg_id[21], pos[21]) == (3, 0)

    def test_peak_is_one_whole_join_column(self):
        # on the full suffix array the two int32 results and one int32
        # column over the whole join come to 12 bytes per join symbol; a
        # second column over the join would pass 13
        rng = random.Random(3)
        sequences = [(f"u{j}", "".join(rng.choices("ACGT", k=30_000))) for j in range(16)]
        join = build_graph(Pangenome(sequences=sequences), TriggerSet.from_words(["TAA", "TAG", "TGA"])).join
        sa = suffix_array(join.text)
        tracemalloc.start()
        try:
            annotate(join, sa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * len(join.text)


def emitting(graph, head, *columns):
    """``head`` and ``columns`` of a full suffix array of the segment join
    (segment ids and offsets last) restricted to the rows whose segment
    suffix is longer than k."""
    lengths = graph.join.lengths.tolist()
    rows = zip(head, *(np.asarray(column).tolist() for column in columns))
    kept = [row for row in rows if row[-2] < len(lengths) and lengths[row[-2]] - row[-1] > graph.k]
    return list(map(list, zip(*kept))) if kept else [[] for _ in range(1 + len(columns))]


def assert_runs_match(graph):
    """The table's runs and their rows are those of the full suffix array,
    cut where the LCP stops short of the upper row's separator, restricted
    to the rows whose segment suffix is longer than k."""
    join = build_join(graph)
    sa = suffix_array(join.text)
    head = separator_runs(join.text, sa.tolist(), lcp_array(join.text, sa).tolist())
    head, *columns = emitting(graph, head, sa, *annotate(join, sa))
    table = build_suffix_table(graph)
    assert table.head.tolist() == head
    assert runs(table.head, join_positions(graph, table), table.seg_id, table.pos) == runs(head, *columns)


class TestSuffixTable:
    def test_table_matches_fixture(self, graph):
        # rows come sorted up to their separators: the same runs of rows as
        # in the full suffix array, in any order inside a run, and only the
        # rows whose segment suffix is longer than k
        table = build_suffix_table(graph)
        _, sa, lcp, seg_id, pos = map(list, zip(*SUFFIX_TABLE_ROWS))
        head = separator_runs(build_join(graph).text, sa, lcp)
        head, sa, seg_id, pos = emitting(graph, head, sa, seg_id, pos)
        assert len(table.seg_id) == 12
        assert table.head.tolist() == head
        assert runs(table.head, join_positions(graph, table), table.seg_id, table.pos) == runs(head, sa, seg_id, pos)

    def test_int64_columns_past_2_to_the_31(self, graph, monkeypatch):
        assert suffixes._index_dtype(2**31 - 1) is np.int32
        assert suffixes._index_dtype(2**31) is np.int64
        # a join that long is too large to build here, so force the wide type
        monkeypatch.setattr(suffixes, "_index_dtype", lambda n: np.int64)
        table = build_suffix_table(graph)
        columns = (join_positions(graph, table), table.seg_id, table.pos)
        assert {column.dtype for column in columns} == {np.dtype(np.int64)}
        _, sa, lcp, seg_id, pos = map(list, zip(*SUFFIX_TABLE_ROWS))
        head = separator_runs(build_join(graph).text, sa, lcp)
        head, sa, seg_id, pos = emitting(graph, head, sa, seg_id, pos)
        assert table.head.tolist() == head
        assert runs(table.head, *columns) == runs(head, sa, seg_id, pos)

    def test_rows_point_at_join_characters(self, graph):
        join = build_join(graph)
        table = build_suffix_table(graph)
        sa = join_positions(graph, table)
        contents = join.contents()
        for i in range(len(table.seg_id)):
            assert chr(join.text[sa[i]]) == contents[table.seg_id[i]][table.pos[i]]

    @pytest.mark.parametrize("k", range(1, 10))
    def test_runs_match_the_full_suffix_array(self, k):
        # any dictionary, prefix-free or not
        rng = random.Random(9000 + k)
        for _ in range(100):
            assert_runs_match(random_dictionary(rng, k))

    @pytest.mark.parametrize("seed", range(10))
    def test_runs_match_on_partitioned_pangenomes(self, seed):
        assert_runs_match(build_graph(*random_instance(random.Random(9100 + seed))))

    def test_runs_match_on_long_periodic_segments(self):
        # runs that stay tied through several doubling rounds, until their
        # shared prefix passes their separator
        rng = random.Random(9200)
        contents = {("ACG" * 100)[: rng.randint(20, 300)] + rng.choice(["", "T", "TT"]) for _ in range(12)}
        assert_runs_match(make_graph(1, sorted(contents), [(f"p{i}", [i]) for i in range(len(contents))]))

    def test_reach_runs_to_each_separator(self):
        assert _reach(b"AB..%C%$").tolist() == [5, 4, 3, 2, 1, 2, 1, 1]
