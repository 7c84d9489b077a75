"""The library names that perfbench/tracing.py looks up or reads.

The traced benchmark run reports a per-layer metric as null when a name it
times is gone, so a rename here must come with a change to the benchmark.
"""

import importlib

import pytest

from pfg import Pangenome, TriggerSet, build_graph

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
