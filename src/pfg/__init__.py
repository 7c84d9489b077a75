"""Prefix-free graphs: compressed pangenome representation with streaming
suffix-array iteration.

No submodule is imported here.  Each public name loads its module on first
access (PEP 562), so a tool compiles and runs only the modules it uses.
"""

from importlib import import_module

# each public name, in __all__ order, and the module that defines it
_MODULE_OF = {
    "ConfigError": "errors",
    "FormatError": "errors",
    "Pangenome": "graph",
    "PfgError": "errors",
    "PrefixFreeGraph": "graph",
    "StructureError": "errors",
    "TriggerSet": "automaton",
    "build_graph": "partition",
    "build_segment_table": "occurrences",
    "build_suffix_table": "suffixes",
    "expand_gfa_paths": "gfa",
    "graph_from_gfa": "gfa",
    "read_fasta": "fasta",
    "read_gfa": "gfa",
    "read_triggers": "automaton",
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

