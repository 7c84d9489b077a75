"""Prefix-free graphs: compressed pangenome representation with streaming
suffix-array iteration.

No submodule is imported here.  Each public name loads its module on first
access (PEP 562), so a tool compiles and runs only the modules it uses.
"""

from importlib import import_module

# each public name, in __all__ order, and the module that defines it
_MODULE_OF = {
    "ConfigError": "errors",
    "Emission": "emission",
    "FormatError": "errors",
    "GfaDocument": "document",
    "PAD": "graph",
    "Pangenome": "graph",
    "PfgError": "errors",
    "PrefixFreeGraph": "graph",
    "SENTINEL": "graph",
    "SEPARATOR": "graph",
    "SegmentJoin": "graph",
    "SegmentTable": "occurrences",
    "StructureError": "errors",
    "SuffixTable": "suffixes",
    "TriggerSet": "automaton",
    "build_graph": "partition",
    "build_join": "suffixes",
    "build_path_join": "occurrences",
    "build_segment_table": "occurrences",
    "build_suffix_table": "suffixes",
    "compile_triggers": "automaton",
    "expand_gfa_paths": "gfa",
    "graph_from_gfa": "gfa",
    "normalize": "graph",
    "partition_sequence": "partition",
    "read_fasta": "fasta",
    "read_gfa": "gfa",
    "read_triggers": "fasta",
    "reconstruct": "graph",
    "stream": "emission",
    "validate": "validation",
    "write_gfa": "gfa",
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """The public ``name``, from its module; kept here once it is loaded."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value

