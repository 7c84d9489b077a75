"""The library names that perfbench/tracing.py looks up or reads.

The traced benchmark run reports a per-layer metric as null when a name it
times is gone, so a rename here must come with a change to the benchmark.
"""

import importlib

import pytest

from pfg import Pangenome, TriggerSet, build_graph, build_segment_table, build_suffix_table, stream, validate

LOOKED_UP = [
    ("pfg.automaton", "compile_triggers"),
    ("pfg.suffixes", "build_join"),
    ("pfg.suffixes", "suffix_array"),
    ("pfg.suffixes", "lcp_array"),
    ("pfg.suffixes", "annotate"),
    ("pfg.occurrences", "build_path_join"),
    ("pfg.occurrences", "right_context_ranks"),
    ("pfg.cli", "read_gfa"),
    ("pfg.cli", "graph_from_gfa"),
    ("pfg.cli", "build_suffix_table"),
    ("pfg.cli", "build_segment_table"),
    ("pfg.cli", "pfg2sa_main"),
]
IMPORTED = [
    "build_graph",
    "build_segment_table",
    "build_suffix_table",
    "expand_gfa_paths",
    "graph_from_gfa",
    "read_fasta",
    "read_gfa",
    "read_triggers",
    "stream",
    "validate",
    "write_gfa",
]


@pytest.mark.parametrize("module, name", LOOKED_UP)
def test_looked_up_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("name", IMPORTED)
def test_package_name_resolves(name):
    assert callable(getattr(importlib.import_module("pfg"), name, None))


def test_scanner_has_match_ends():
    compile_triggers = importlib.import_module("pfg.automaton").compile_triggers
    scanner = compile_triggers(TriggerSet.from_words(["TAG"]))
    assert list(scanner.match_ends("ACTAGT")) == [4]


def test_graph_exposes_contents_and_paths():
    graph = build_graph(Pangenome(sequences=[("a", "ACTAGT")]), TriggerSet.from_words(["TAG"]))
    assert all(isinstance(graph.segments[i].content, str) for i in range(len(graph.segments)))
    assert [(name, type(path)) for name, path in graph.paths] == [("a", list)]


def test_validate_report_has_ok(graph):
    # the traced run stops with an error unless validate(graph).ok is True
    assert validate(graph).ok is True


def test_helpers_take_what_the_benchmark_passes(graph):
    """Each timed helper called as the traced run calls it, on the running
    example: 31 join symbols, 11 path steps and 21 emissions."""
    suffixes = importlib.import_module("pfg.suffixes")
    occurrences = importlib.import_module("pfg.occurrences")
    join = suffixes.build_join(graph)
    sa = suffixes.suffix_array(join.text)
    assert len(sa) == 31
    assert len(suffixes.lcp_array(join.text, sa)) == 31
    seg_id, pos = suffixes.annotate(join, sa)
    assert (len(seg_id), len(pos)) == (31, 31)
    ranks = occurrences.right_context_ranks(occurrences.build_path_join(graph))
    assert len(ranks) == 11
    tables = build_suffix_table(graph), build_segment_table(graph)
    assert sum(1 for _ in stream(graph, *tables, with_bwt=True)) == 21
