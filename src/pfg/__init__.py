"""Prefix-free graphs: compressed pangenome representation with streaming
suffix-array iteration."""

from .automaton import TriggerSet, compile_triggers
from .errors import ConfigError, FormatError, PfgError, StructureError
from .fasta import read_fasta, read_triggers
from .gfa import GfaDocument, expand_gfa_paths, graph_from_gfa, read_gfa, write_gfa
from .graph import (
    PAD,
    SENTINEL,
    SEPARATOR,
    Pangenome,
    PrefixFreeGraph,
    Segment,
    SegmentJoin,
    normalize,
    reconstruct,
)
from .occurrences import SegmentTable, build_path_join, build_segment_table
from .partition import build_graph, partition_sequence
from .stream import Emission, stream
from .suffixes import SuffixTable, build_join, build_suffix_table
from .validation import validate

__all__ = [
    "ConfigError",
    "Emission",
    "FormatError",
    "GfaDocument",
    "PAD",
    "Pangenome",
    "PfgError",
    "PrefixFreeGraph",
    "SENTINEL",
    "SEPARATOR",
    "Segment",
    "SegmentJoin",
    "SegmentTable",
    "StructureError",
    "SuffixTable",
    "TriggerSet",
    "build_graph",
    "build_join",
    "build_path_join",
    "build_segment_table",
    "build_suffix_table",
    "compile_triggers",
    "expand_gfa_paths",
    "graph_from_gfa",
    "normalize",
    "partition_sequence",
    "read_fasta",
    "read_gfa",
    "read_triggers",
    "reconstruct",
    "stream",
    "validate",
    "write_gfa",
]
