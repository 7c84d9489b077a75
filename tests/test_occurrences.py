from pfg import (
    build_graph,
    build_segment_table,
    Pangenome,
    TriggerSet,
)
from pfg.occurrences import (
    END,
    SEP,
    build_path_join,
    occurrence_starts,
    preceding_chars,
    right_context_ranks,
)

from conftest import SEGMENT_TABLE_ROWS, make_graph, occurrences


class TestPathJoin:
    def test_running_example_symbols(self, graph):
        symbols = build_path_join(graph)
        ids = [3, 1, 5, 2, None, 3, 0, 2, None, 3, 1, 4, 2, None, None]
        assert len(symbols) == 15
        expected = []
        for sid in ids[:-1]:
            expected.append(SEP if sid is None else sid + 2)
        expected.append(END)
        assert symbols.tolist() == expected

    def test_single_path(self):
        g = make_graph(2, ["AB.."], [("p", [0])])
        assert build_path_join(g).tolist() == [2, SEP, END]

    def test_identical_paths_repeat(self):
        g = make_graph(2, ["AB.."], [("p", [0]), ("q", [0])])
        assert build_path_join(g).tolist() == [2, SEP, 2, SEP, END]


class TestStarts:
    def test_running_example(self, graph):
        starts = occurrence_starts(graph)
        assert starts.tolist() == [0, 1, 2, 5, 8, 9, 11, 14, 15, 16, 18]

    def test_segment_starts_by_id(self, graph):
        starts = occurrence_starts(graph).tolist()
        steps = [sid for _, path in graph.paths for sid in path]
        by_id = {}
        for sid, s in zip(steps, starts):
            by_id.setdefault(sid, []).append(s)
        assert sorted(by_id[3]) == [0, 8, 14]
        assert sorted(by_id[2]) == [5, 11, 18]
        assert by_id[0] == [9]


class TestRanks:
    def test_running_example_table(self, graph):
        table = build_segment_table(graph)
        for sid, (length, rows) in SEGMENT_TABLE_ROWS.items():
            assert graph.join.lengths[sid] == length
            assert [(start, rank) for start, rank, _ in occurrences(table, sid)] == rows

    def test_ranks_are_distinct(self, graph):
        table = build_segment_table(graph)
        ranks = table.rank.tolist()
        assert len(ranks) == len(set(ranks))
        assert set(ranks) <= set(range(len(build_path_join(graph))))

    def test_duplicate_sequences_get_distinct_ranks(self):
        p = Pangenome(sequences=[("a", "CACT"), ("b", "CACT")])
        g = build_graph(p, TriggerSet.from_words(["AC"]))
        table = build_segment_table(g)
        ranks = table.rank.tolist()
        assert len(ranks) == len(set(ranks))


class TestPrecedingChars:
    def test_running_example(self, graph):
        table = build_segment_table(graph)
        by_start = {
            start: prev
            for sid in range(len(graph.segments))
            for start, _, prev in occurrences(table, sid)
        }
        assert by_start[9] == "C"  # P[8] within CACACT
        assert by_start[0] == "$"  # sequence start
        assert by_start[2] == "A"  # P[1] of CACGTACT

    def test_sequence_starts_marked(self, graph):
        prevs = preceding_chars(graph).tobytes().decode("ascii")
        path_starts = [0, 4, 7]  # first step of each path
        assert [prevs[t] for t in path_starts] == ["$", "$", "$"]
        assert prevs.count("$") == 3


class TestPositionOwnership:
    def test_every_position_owned_once(self, graph):
        table = build_segment_table(graph)
        owned = []
        for sid in range(len(graph.segments)):
            for start, _, _ in occurrences(table, sid):
                owned.extend(range(start, start + graph.join.lengths[sid] - graph.k))
        assert sorted(owned) == list(range(21))

    def test_single_segment_graph(self):
        g = make_graph(2, ["AB.."], [("p", [0])])
        table = build_segment_table(g)
        assert g.join.lengths.tolist() == [4]
        assert len(occurrences(table, 0)) == 1
