import importlib
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pfg import (
    Pangenome,
    StructureError,
    TriggerSet,
    build_graph,
    build_segment_table,
    build_suffix_table,
    stream,
    validate,
)
from pfg.oracle import oracle_bwt, oracle_sa, oracle_text
from pfg.emission import emission_batches
from pfg.suffixes import SuffixTable

from conftest import (
    FULL_SA,
    RUNNING_SEQUENCES,
    SUFFIX_TABLE_ROWS,
    join_positions,
    make_graph,
    proper_prefixes,
    random_dictionary,
    random_instance,
)

SRC = Path(__file__).resolve().parent.parent / "src"
STREAM_MODULE = importlib.import_module("pfg.emission")

# "ACG" (segment 2, offset 1) is a proper prefix of "ACGT.." and "ACGTT.."
NOT_PREFIX_FREE = 'normalize(["GACG", "CGACGT..", "ACGTT.."], [0, 1, 2], [0, 1, 2, 3], 2, ["a", "b", "c"])'


@pytest.fixture
def tables(graph):
    return build_suffix_table(graph), build_segment_table(graph)


def table_keys(table):
    """(ID, pos) of every row of ``table``."""
    return list(zip(table.seg_id.tolist(), table.pos.tolist()))


def paper_key(row):
    """(ID, pos) of row ``row`` of the paper's full suffix table."""
    return SUFFIX_TABLE_ROWS[row][3:]


def block_of(table, row):
    """(ID, pos) of the rows in the block of the paper's row ``row``, sorted."""
    keys = table_keys(table)
    block = np.cumsum(table.head).tolist()
    b = block[keys.index(paper_key(row))]
    return sorted(key for key, other in zip(keys, block) if other == b)


class TestIsSkipped:
    def test_first_thirteen_rows_skipped(self, tables):
        table, _ = tables
        assert not {paper_key(row) for row in range(13)} & set(table_keys(table))
        assert table_keys(table)[0] == paper_key(13)

    def test_short_segment_suffix_skipped(self, tables):
        # row 10: ID 0, pos 2, remaining length 2 <= k
        assert paper_key(10) not in table_keys(tables[0])

    def test_long_segment_suffix_reported(self, tables):
        # row 24: ID 5, pos 0, remaining length 5 > k
        assert paper_key(24) in table_keys(tables[0])


class TestBlocks:
    def test_rows_20_21_form_one_block(self, tables):
        assert block_of(tables[0], 20) == sorted([paper_key(20), paper_key(21)])

    def test_rows_13_to_15_are_singletons(self, tables):
        for i in (13, 14, 15):
            assert block_of(tables[0], i) == [paper_key(i)]


class TestChecks:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_prefix_freeness_violation_raises_before_first_row(self, flags):
        code = textwrap.dedent(
            f"""
            from pfg import StructureError, build_segment_table, build_suffix_table, stream
            from pfg.graph import normalize
            g = {NOT_PREFIX_FREE}
            rows = 0
            try:
                for _ in stream(g, build_suffix_table(g), build_segment_table(g)):
                    rows += 1
            except StructureError as exc:
                print(__debug__, rows, exc)
            """
        )
        result = subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        debug, rows, message = result.stdout.split(" ", 2)
        assert debug == str(not flags)
        assert rows == "0"
        assert "not prefix-free" in message

    def test_emission_count_mismatch_raises_before_first_row(self, graph, tables):
        table, seg = tables
        # drop the row of segment 0, offset 0, which has one occurrence
        row = int(np.flatnonzero(join_positions(graph, table) == 0)[0])
        short = SuffixTable(*(np.delete(column, row) for column in (table.seg_id, table.pos, table.head)))
        emissions = stream(graph, short, seg)
        with pytest.raises(StructureError, match="20 emissions, expected 21"):
            next(emissions)

    def test_tables_of_another_graph_raise_before_first_row(self, graph, triggers):
        # a fourth copy of s1 keeps the segment join, so the suffix table
        # fits both graphs; only the pangenome's length tells them apart
        other = build_graph(Pangenome(sequences=[*RUNNING_SEQUENCES, ("s4", "CACGTACT")]), triggers)
        assert other.join.text == graph.join.text
        batches = emission_batches(graph, build_suffix_table(graph), build_segment_table(other))
        with pytest.raises(StructureError, match="^the tables give 29 emissions, expected 21$"):
            next(batches)


    @pytest.mark.parametrize("k", range(1, 10))
    def test_validate_and_stream_agree(self, k):
        rng = random.Random(8000 + k)
        for _ in range(150):
            g = random_dictionary(rng, k)
            suffix_table = build_suffix_table(g)
            try:
                batches = list(emission_batches(g, suffix_table, build_segment_table(g)))
                streamed = []
            except StructureError as exc:
                batches, streamed = None, [str(exc)]
            assert [e for e in validate(g).errors if "not prefix-free" in e] == streamed
            assert bool(streamed) == bool(proper_prefixes(g))
            if batches is not None:
                # the blocks the stream merges hold equal segment suffixes,
                # each longer than k
                suffix_len = g.join.lengths[suffix_table.seg_id] - suffix_table.pos
                block = np.cumsum(suffix_table.head)
                assert (suffix_len > k).all()
                assert (suffix_len[1:] == suffix_len[:-1])[block[1:] == block[:-1]].all()


class TestEmissions:
    def test_first_emission(self, graph, tables):
        e = next(iter(stream(graph, *tables)))
        assert (e.index, e.sa, e.seg_id, e.pos) == (0, 9, 0, 0)

    def test_singleton_multi_occurrence(self, graph, tables):
        sa = [e.sa for e in stream(graph, *tables)]
        assert sa[1:3] == [15, 1]

    def test_block_merge_order(self, graph, tables):
        sa = [e.sa for e in stream(graph, *tables)]
        assert sa[6:10] == [8, 14, 0, 10]

    def test_first_seven(self, graph, tables):
        sa = [e.sa for e in stream(graph, *tables)]
        assert sa[:7] == [9, 15, 1, 18, 5, 11, 8]

    def test_full_output(self, graph, tables):
        assert [e.sa for e in stream(graph, *tables)] == FULL_SA

    def test_bwt_matches_oracle(self, graph, tables, pangenome):
        got = [e.bwt for e in stream(graph, *tables)]
        assert got == oracle_bwt(pangenome, oracle_sa(pangenome, graph.k))

    def test_without_bwt(self, graph, tables):
        assert all(e.bwt is None for e in stream(graph, *tables, with_bwt=False))


class TestProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_permutation_and_oracle_agreement(self, seed):
        rng = random.Random(1000 + seed)
        pangenome, triggers = random_instance(rng)
        graph = build_graph(pangenome, triggers)
        table = build_suffix_table(graph)
        seg = build_segment_table(graph)
        emissions = list(stream(graph, table, seg))
        got_sa = [e.sa for e in emissions]
        n = pangenome.total_length
        assert sorted(got_sa) == list(range(n))
        expected_sa = oracle_sa(pangenome, graph.k)
        assert got_sa == expected_sa
        assert [e.bwt for e in emissions] == oracle_bwt(pangenome, expected_sa)

    def test_emitted_suffixes_strictly_increase(self, graph, tables, pangenome):
        text, starts = oracle_text(pangenome, graph.k)
        bases = []
        offset = 0
        for (_, data), padded in zip(pangenome.sequences, starts):
            bases.append((offset, padded))
            offset += len(data)
        def padded_suffix(sa):
            for base, padded in reversed(bases):
                if sa >= base:
                    return text[padded + (sa - base):]
        suffixes = [padded_suffix(e.sa) for e in stream(graph, *tables)]
        assert all(a < b for a, b in zip(suffixes, suffixes[1:]))

    def test_single_segment_stream(self):
        g = make_graph(2, ["AB.."], [("p", [0])])
        table = build_suffix_table(g)
        seg = build_segment_table(g)
        assert [e.sa for e in stream(g, table, seg)] == [0, 1]


def shuffled_in_runs(table: SuffixTable, rng: random.Random) -> SuffixTable:
    """``table`` with the rows of every run of equal suffixes shuffled."""
    cuts = np.flatnonzero(table.head).tolist() + [len(table.seg_id)]
    order = []
    for a, b in zip(cuts, cuts[1:]):
        run = list(range(a, b))
        rng.shuffle(run)
        order += run
    return SuffixTable(table.seg_id[order], table.pos[order], table.head)


def batch_bytes(graph, suffix_table, segment_table) -> bytes:
    return b"".join(
        column.tobytes()
        for batch in emission_batches(graph, suffix_table, segment_table)
        for column in (batch.sa, batch.seg_id, batch.pos, batch.bwt)
    )


class TestRowOrderInsideRuns:
    """The stream orders each block by right-context rank, so the order of
    the suffix table's rows inside a run never reaches the output."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_shuffled_runs_give_the_same_batches(self, k):
        rng = random.Random(9300 + k)
        checked = 0
        while checked < 40:
            g = random_dictionary(rng, k)
            if proper_prefixes(g):
                continue
            table, segment_table = build_suffix_table(g), build_segment_table(g)
            expected = batch_bytes(g, table, segment_table)
            assert batch_bytes(g, shuffled_in_runs(table, rng), segment_table) == expected
            checked += 1

    @pytest.mark.parametrize("seed", range(10))
    def test_shuffled_runs_give_the_same_batches_on_pangenomes(self, seed):
        rng = random.Random(9400 + seed)
        pangenome, triggers = random_instance(rng)
        g = build_graph(pangenome, triggers)
        table, segment_table = build_suffix_table(g), build_segment_table(g)
        expected = batch_bytes(g, table, segment_table)
        assert batch_bytes(g, shuffled_in_runs(table, rng), segment_table) == expected


class TestSetUp:
    def test_holds_one_column_per_row(self):
        # unrelated sequences: the suffix table has about one row per input
        # letter, and nearly every row emits once
        rng = random.Random(3)
        sequences = [(f"u{j}", "".join(rng.choices("ACGT", k=30_000))) for j in range(64)]
        graph = build_graph(Pangenome(sequences=sequences), TriggerSet.from_words(["TAA", "TAG", "TGA"]))
        suffix_table, segment_table = build_suffix_table(graph), build_segment_table(graph)
        tracemalloc.start()
        try:
            next(emission_batches(graph, suffix_table, segment_table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # row_begin is 8 bytes per row and the block starts 1; the rest is
        # one batch and headroom
        assert peak <= 11 * len(suffix_table.seg_id)


class TestBatches:
    @pytest.mark.parametrize(
        "size, lengths",
        [
            (1, [1, 2, 3, 4, 1, 1, 3, 1, 1, 3, 1]),  # one batch per block
            (3, [3, 3, 4, 2, 3, 2, 3, 1]),  # the 4-wide block of rows 20-21 alone
            (4096, [21]),
        ],
    )
    def test_batches_hold_whole_blocks(self, graph, tables, size, lengths, monkeypatch):
        monkeypatch.setattr(STREAM_MODULE, "BATCH_EMISSIONS", size)
        batches = list(emission_batches(graph, *tables))
        assert [len(batch.sa) for batch in batches] == lengths
        assert [batch.first for batch in batches] == [sum(lengths[:i]) for i in range(len(lengths))]

    @pytest.mark.parametrize("size", [1, 3, 4096])
    def test_batch_order_is_the_lexsort_order(self, size, monkeypatch):
        # each batch lists its emissions by block, then by right-context rank
        monkeypatch.setattr(STREAM_MODULE, "BATCH_EMISSIONS", size)
        for seed in range(20):
            rng = random.Random(3000 + seed)
            pangenome, triggers = random_instance(rng)
            graph = build_graph(pangenome, triggers)
            suffix_table, segment_table = build_suffix_table(graph), build_segment_table(graph)
            block_of_row = np.cumsum(suffix_table.head)
            row_of = {key: r for r, key in enumerate(zip(suffix_table.seg_id.tolist(), suffix_table.pos.tolist()))}
            # an occurrence that emits anything has its own start in its segment
            occurrence_seg = np.repeat(np.arange(len(segment_table.offsets) - 1), np.diff(segment_table.offsets))
            rank_of = dict(
                zip(zip(occurrence_seg.tolist(), segment_table.start.tolist()), segment_table.rank.tolist())
            )
            for batch in emission_batches(graph, suffix_table, segment_table):
                seg_ids, positions = batch.seg_id.tolist(), batch.pos.tolist()
                blocks = [block_of_row[row_of[key]] for key in zip(seg_ids, positions)]
                starts = (batch.sa - batch.pos).tolist()
                ranks = [rank_of[key] for key in zip(seg_ids, starts)]
                assert np.lexsort((ranks, blocks)).tolist() == list(range(len(batch.sa)))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_batches_match_oracle(self, size, monkeypatch):
        monkeypatch.setattr(STREAM_MODULE, "BATCH_EMISSIONS", size)
        for seed in range(25):
            rng = random.Random(1000 + seed)
            pangenome, triggers = random_instance(rng)
            graph = build_graph(pangenome, triggers)
            emissions = list(stream(graph, build_suffix_table(graph), build_segment_table(graph)))
            expected_sa = oracle_sa(pangenome, graph.k)
            assert [e.index for e in emissions] == list(range(len(expected_sa)))
            assert [e.sa for e in emissions] == expected_sa
            assert [e.bwt for e in emissions] == oracle_bwt(pangenome, expected_sa)
