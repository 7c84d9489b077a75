import io
import random
import re
import tracemalloc

import numpy as np
import pytest

from pfg import (
    ConfigError,
    FormatError,
    Pangenome,
    StructureError,
    TriggerSet,
    build_graph,
    build_suffix_table,
    read_fasta,
    read_gfa,
    validate,
)
from pfg.graph import SEPARATOR, PrefixFreeGraph, SegmentJoin, invalid_letter, normalize
from pfg.validation import _structural_errors, check_prefix_free

from conftest import make_graph, proper_prefixes, random_dictionary

VIOLATION = re.compile(
    r"segment suffixes are not prefix-free: the suffix of segment (\d+) at offset (\d+) "
    r"is a proper prefix of the suffix of segment (\d+) at offset (\d+)"
)

# the input letters are the characters from just above the pad "." to "~"
LETTERS_REGEX = re.compile("[^\x2f-\x7e]")
# every code point below 0x180 (DEL, NEL and the no-break space among
# them), the line separator, a full-width letter and an emoji
ODD_CHARACTERS = [chr(c) for c in range(0x180)] + ["\u2028", "\uff21", "\U0001F600"]

DISCOVERY = ["CAC", "ACG", "CGTAC", "ACT..", "ACAC", "CGAC"]
DISCOVERY_PATHS = [[0, 1, 2, 3], [0, 4, 3], [0, 1, 5, 3]]


def discovered(contents, paths, k):
    """``normalize`` on discovery-ordered ``contents`` and lists of ids."""
    steps = np.array([sid for path in paths for sid in path], dtype=np.int32)
    offsets = np.cumsum([0, *map(len, paths)])
    return normalize(contents, steps, offsets, k, [f"p{j}" for j in range(len(paths))])


class TestNormalize:
    def test_running_example_segment_order(self):
        g = discovered(DISCOVERY, DISCOVERY_PATHS, k=2)
        assert [len(s.content) for s in g.segments] == [4, 3, 5, 3, 4, 5]
        assert [s.content for s in g.segments] == [
            "ACAC", "ACG", "ACT..", "CAC", "CGAC", "CGTAC",
        ]

    def test_running_example_paths_relabel(self):
        g = discovered(DISCOVERY, DISCOVERY_PATHS, k=2)
        assert [path for _, path in g.paths] == [[3, 1, 5, 2], [3, 0, 2], [3, 1, 4, 2]]
        assert g.steps.dtype == np.int32 and g.path_offsets.dtype == np.int64

    def test_single_sorted_segment_is_identity(self):
        g = discovered(["AB.."], [[0]], k=2)
        assert [s.content for s in g.segments] == ["AB.."]
        assert g.paths[0][1] == [0]

    def test_idempotent(self):
        g = discovered(DISCOVERY, DISCOVERY_PATHS, k=2)
        again = normalize(g.join.contents(), g.steps, g.path_offsets, 2, g.path_names)
        assert [s.content for s in again.segments] == [s.content for s in g.segments]
        assert [p for _, p in again.paths] == [p for _, p in g.paths]


def peak(function, sequence):
    """tracemalloc peak of ``function`` on the graph of one trigger-free
    sequence, in bytes, and its result."""
    g = build_graph(Pangenome([("a", sequence)]), TriggerSet.from_words(["TAG"]))
    tracemalloc.start()
    try:
        result = function(g)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestValidate:
    def test_running_example_passes(self, graph):
        assert validate(graph).errors == []

    def test_length_k_segment_is_valid(self):
        # the partition never makes one, but nothing in the graph forbids it
        g = make_graph(2, ["AC", "ACT.."], [("p", [0, 1])])
        assert validate(g).errors == []

    def test_overlap_violation_flagged(self, graph):
        bad = make_graph(graph.k, graph.join.contents(), [("bad", [0, 3])])  # ACAC then CAC: "AC" != "CA"
        report = validate(bad)
        assert not report.ok
        assert any("overlap" in e for e in report.errors)

    def test_unsorted_segments_flagged(self, graph):
        segs = graph.join.contents()
        segs[0], segs[1] = segs[1], segs[0]
        report = validate(make_graph(2, segs, graph.paths))
        assert not report.ok

    def test_not_prefix_free_is_one_error(self):
        # "ACG" (segment 2, offset 1) is a proper prefix of "ACGT..", and
        # "GACG" of "GACGT..": only the first violation is reported
        g = discovered(["GACG", "CGACGT..", "ACGT.."], [[0, 1], [2]], k=2)
        report = validate(g)
        assert len(report.errors) == 1
        assert "not prefix-free" in report.errors[0]

    def test_path_that_spells_no_letter_flagged(self):
        # "AC" spells path p; q's one step is all pads, so it spells nothing
        g = make_graph(2, ["..", "AC.."], [("p", [1]), ("q", [0])])
        assert validate(g).errors == ["path 1 ('q') spells an empty sequence"]

    def test_long_trigger_free_sequence_memory(self):
        # one segment of 100 kb: no suffix is sorted, and the window scan
        # runs in fixed-size chunks (0.9 MB)
        used, report = peak(validate, "ACG" * 33334)
        assert report.ok
        assert used < 8 << 20

    def test_periodic_megabase_memory_does_not_grow_with_rounds(self):
        # about 20 doubling rounds; a rank array kept per round took 139 MB
        used, table = peak(build_suffix_table, "ACG" * 333334)
        # every position but the last k of the segment, its separator and
        # the sentinel
        assert len(table.seg_id) == 1_000_002
        assert used < 96 << 20


class TestCheckPrefixFree:
    # k + 1 <= 8 letters pack exactly into the scan's hash; past that each
    # hit is confirmed against the words
    @pytest.mark.parametrize("k", range(1, 10))
    def test_agrees_with_brute_force(self, k):
        rng = random.Random(7000 + k)
        outcomes = set()
        for _ in range(300):
            g = random_dictionary(rng, k)
            pairs = proper_prefixes(g)
            try:
                check_prefix_free(g)
                reported = None
            except StructureError as exc:
                match = VIOLATION.fullmatch(str(exc))
                assert match, str(exc)
                reported = tuple(map(int, match.groups()))
            outcomes.add(reported is None)
            if not pairs:
                assert reported is None
                continue
            # the shortest violations are k + 1 letters long; the one reported
            # has its longer suffix first in join order, and the first
            # segment that ends with those letters
            shortest = [(b, q, a, p) for a, p, b, q in pairs if len(g.segments[a].content) - p == k + 1]
            b, q, a, p = min(shortest)
            assert reported == (a, p, b, q)
        assert outcomes == {True, False}

    def test_suffix_of_own_segment(self):
        # "AAA" ends "AAAA" and starts its suffix at offset 0, k = 2
        g = make_graph(2, ["AAAA"], [("p", [0])])
        with pytest.raises(StructureError, match="segment 0 at offset 1 is a proper prefix of the suffix of segment 0 at offset 0$"):
            check_prefix_free(g)

    def test_suffixes_of_k_letters_are_not_checked(self):
        # "AC" is a prefix of "ACG..", but no suffix of k letters is kept
        check_prefix_free(make_graph(2, ["AC", "ACG.."], [("p", [0, 1])]))
        check_prefix_free(make_graph(9, ["ACGTACGT"], [("p", [0])]))
        check_prefix_free(make_graph(3, [], []))


def errors(graph):
    return _structural_errors(graph)


class TestStructuralReport:
    """Every message, in order, on hand-made graphs over the running
    example's segments: ACAC, ACG, ACT.., CAC, CGAC, CGTAC with k = 2."""

    def test_valid_paths_pass(self, graph):
        assert errors(graph) == []

    def test_path_messages_in_order(self, graph):
        paths = [
            ("good", [3, 1, 5, 2]),
            ("mismatch", [3, 1, 0, 2]),  # ACG then ACAC: "CG" != "AC"
            ("stray pad", [3, 1, 4, 2, 3]),  # ACT.. then CAC, and CAC ends it
            ("unpadded", [3, 0]),
            ("pad twice", [2, 2]),
            ("lone pad", [2]),
        ]
        bad = make_graph(2, graph.join.contents(), paths)
        assert errors(bad) == [
            "path 1 step 2: adjacent segments do not overlap by k",
            "path 2 step 4: adjacent segments do not overlap by k",
            "path 2 does not end with 2 pad characters",
            "path 2 step 3: padded segment 2 is not path-final",
            "path 3 does not end with 2 pad characters",
            "path 4 step 1: adjacent segments do not overlap by k",
            "path 4 step 0: padded segment 2 is not path-final",
        ]

    def test_segment_messages_in_order(self):
        g = make_graph(2, ["CA", "AC", "AC..", "C.A..", "G", "GA."], [])
        assert errors(g) == [
            "segments 0 and 1 not in strict lexicographic order",
            "segment 3 has misplaced pad characters",
            "segment 4 shorter than k",
            "segment 5 has misplaced pad characters",
        ]

    def test_overlaps_of_segments_shorter_than_k(self):
        # with k = 3, "AC" overlaps itself as a whole: each side of the
        # comparison is whatever of its k letters the segment has
        g = make_graph(3, ["AC", "C..."], [("a", [0, 0, 1]), ("b", [1])])
        assert errors(g) == [
            "segment 0 shorter than k",
            "path 0 step 2: adjacent segments do not overlap by k",
        ]

    def test_end_pads_count_from_the_end(self):
        # the last segment needs k trailing pads, and a padded segment
        # anywhere but last is reported once per step
        g = make_graph(2, ["AC", "AC..", "C."], [("a", [0, 2]), ("b", [1, 1, 1])])
        assert errors(g) == [
            "segment 2 has misplaced pad characters",
            "path 0 step 1: adjacent segments do not overlap by k",
            "path 0 does not end with 2 pad characters",
            "path 0 ('a') spells an empty sequence",
            "path 1 step 1: adjacent segments do not overlap by k",
            "path 1 step 2: adjacent segments do not overlap by k",
            "path 1 step 0: padded segment 1 is not path-final",
            "path 1 step 1: padded segment 1 is not path-final",
        ]


class TestConstruction:
    """A graph refuses, when it is made, a step that names no segment and
    offsets that leave a path without steps or do not span the steps."""

    @pytest.mark.parametrize(
        "contents, paths, message",
        [
            ([], [("p", [0, 1])], "path 0 step 0 references unknown segment 0"),
            (["AC.."], [("p", [0]), ("q", [])], "path 1 has no steps"),
            (["AC", "AC.."], [("p", [0, 1]), ("q", [1, -1])], "path 1 step 1 references unknown segment -1"),
            (["AC", "AC.."], [("p", [0, 2])], "path 0 step 1 references unknown segment 2"),
            # write_gfa's link key 0 * 3 + 5 of this pair would read as (1, 2)
            (["ACT..", "CAC", "GA.."], [("p", [0, 5])], "path 0 step 1 references unknown segment 5"),
            (["ACT..", "CAC", "GA.."], [("p", [1, 0]), ("q", [])], "path 1 has no steps"),
        ],
        ids=["no-segments", "empty-path", "negative-id", "id-n", "id-past-n", "empty-after-a-path"],
    )
    def test_refuses_what_is_not_a_graph(self, contents, paths, message):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            make_graph(2, contents, paths)

    @pytest.mark.parametrize(
        "steps, offsets, message",
        [
            ([0, 0], [0, 1], "path offsets must run from 0 to the step count 2"),
            ([0, 0], [0, 3], "path offsets must run from 0 to the step count 2"),
            ([0, 0], [1, 2], "path offsets must run from 0 to the step count 2"),
            ([0, 0], [], "path offsets must run from 0 to the step count 2"),
            ([0, 0, 0], [0, 2, 1, 3], "path 1 has no steps"),
        ],
        ids=["short", "long", "late-start", "none", "decreasing"],
    )
    def test_offsets_must_span_the_steps(self, steps, offsets, message):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            PrefixFreeGraph(
                k=2,
                join=SegmentJoin.of(["AC.."]),
                steps=np.array(steps, dtype=np.int32),
                path_offsets=np.array(offsets, dtype=np.int64),
                path_names=["p"] * max(len(offsets) - 1, 0),
            )


class TestPangenome:
    def test_empty_sequence_rejected(self):
        with pytest.raises(StructureError):
            Pangenome(sequences=[("x", "")])

    def test_reserved_character_rejected(self):
        with pytest.raises(StructureError):
            Pangenome(sequences=[("x", "AC#GT")])

    def test_total_length(self, pangenome):
        assert pangenome.total_length == 21

    def test_repeated_name_rejected(self):
        with pytest.raises(StructureError) as exc:
            Pangenome(sequences=[("a", "ACGTAC"), ("a", "ACGGAC")])
        assert str(exc.value) == "sequence name 'a' is repeated"

    def test_letters_are_upper_cased(self):
        upper = ("b", "CACGT")
        p = Pangenome(sequences=[("a", "cacgt"), upper, ("c", "acACac")])
        assert p.sequences == [("a", "CACGT"), ("b", "CACGT"), ("c", "ACACAC")]
        # a record that is already upper-case is stored as given
        assert p.sequences[1] is upper

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "\t", "a\n"])
    def test_name_with_a_tab_or_line_end_rejected(self, name):
        with pytest.raises(StructureError) as exc:
            Pangenome(sequences=[(name, "ACGT")])
        assert str(exc.value) == f"sequence name {name!r} holds a tab or a line end"


class TestInvalidLetter:
    @pytest.mark.parametrize("place", ["start", "middle", "end", "before-a-nul"])
    def test_agrees_with_the_regex(self, place):
        valid = "ACGTacgt/~"
        for c in ODD_CHARACTERS:
            data = {
                "start": c + valid,
                "middle": valid[:5] + c + valid[5:],
                "end": valid + c,
                "before-a-nul": c + valid + "\0",
            }[place]
            match = LETTERS_REGEX.search(data)
            assert invalid_letter(data) == (match.group() if match else None), repr(data)

    def test_valid_and_empty_texts_have_none(self):
        assert invalid_letter("") is None
        assert invalid_letter("".join(map(chr, range(0x2F, 0x7F))) * 3) is None

    @pytest.mark.parametrize("c", ["#", SEPARATOR, ".", " ", "\x7f", "\x85", "\xa0", "\u2028", "\uff21", "\U0001F600", "ß", "ﬁ"])
    def test_errors_name_the_character(self, c):
        data = f"AC{c}GT"
        with pytest.raises(StructureError) as exc:
            Pangenome(sequences=[("x", data)])
        assert str(exc.value) == f"reserved or invalid character {c!r} in sequence"
        with pytest.raises(FormatError) as exc:
            read_fasta(io.StringIO(f">x\nACGT\n{data}\n"))
        assert str(exc.value) == f"line 3: reserved or invalid character {c!r}"
        with pytest.raises(ConfigError) as exc:
            TriggerSet.from_words([data])
        assert str(exc.value) == f"trigger word {data!r} contains a reserved or invalid character"
        if c != ".":  # a pad is a letter of an S-record
            with pytest.raises(FormatError) as exc:
                read_gfa(io.StringIO(f"S\t0\tAC..\nS\t1\t{data}\n"))
            assert str(exc.value) == f"line 2: reserved or invalid character {c!r} in S-record"
