"""Per-layer spans and counts from one in-process run of a workload.

Spans are recorded here, around calls into the library's public functions;
nothing inside ``pfg`` is changed.  Each span has a name, a start, an end
and the span that caused it, and a layer's self time is its span minus the
part its child spans cover.  Spans stay in memory and are written as JSON
when the run ends.

Helpers that planned refactors may remove (``compile_triggers``,
``suffix_array``, ``lcp_array``, ``annotate``, ``right_context_ranks``) are
timed in calls of their own, and a helper that no longer exists is reported
as absent: its metric value is null.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

MIB = 1 << 20

# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER = {
    "fasta.read_s": "s",
    "automaton.scan_s": "s",
    "automaton.hits": "count",
    "partition.build_graph_s": "s",
    "partition.segments": "count",
    "partition.dict_bytes": "bytes",
    "partition.path_steps": "count",
    "graph.validate_s": "s",
    "graph.validate_peak_mb": "MB",
    "gfa.write_s": "s",
    "gfa.bytes": "bytes",
    "gfa.read_s": "s",
    "gfa.expand_s": "s",
    "gfa.graph_from_gfa_s": "s",
    "suffixes.table_s": "s",
    "suffixes.sa_s": "s",
    "suffixes.lcp_s": "s",
    "suffixes.annotate_s": "s",
    "suffixes.join_len": "count",
    "suffixes.table_mb": "MB",
    "occurrences.table_s": "s",
    "occurrences.ranks_s": "s",
    "occurrences.count": "count",
    "occurrences.table_mb": "MB",
    "stream.drain_s": "s",
    "stream.emissions": "count",
    "stream.emissions_per_s": "1/s",
    "stream.peak_growth_mb": "MB",
    "cli.pfg2sa_s": "s",
    "cli.format_s": "s",
    "trace.build_ratio": "ratio",
    "trace.sa_ratio": "ratio",
}

# The library calls pfg2sa_main makes, wrapped with spans while it runs
# in-process.  The stream is drained inside its span before pfg2sa_main
# formats it, so that pfg2sa_main's self time is output formatting.
CLI_CALLS = ("read_gfa", "graph_from_gfa", "build_suffix_table", "build_segment_table")
CLI_STREAM = "stream"


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def duration(self, name: str) -> float:
        record = next(s for s in self.spans if s["name"] == name)
        return record["end"] - record["start"]

    def self_time(self, record: dict) -> float:
        covered = 0.0
        reach = record["start"]
        children = sorted((s["start"], s["end"]) for s in self.spans if s["parent"] == record["id"])
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return record["end"] - record["start"] - covered

    def dump(self, path: Path, extra: dict) -> None:
        spans = [dict(s, self_s=self.self_time(s)) for s in self.spans]
        path.write_text(json.dumps(dict(extra, spans=spans, counts=self.counts), indent=1))


def optional(module: str, name: str):
    """``module.name`` from the library, or None when it no longer exists."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def drain(emissions) -> int:
    """Consume a stream; return its length."""
    count = 0
    for _ in emissions:
        count += 1
    return count


def retained_mb(build, *args):
    """Bytes that ``build(*args)`` allocates and keeps, in MiB, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build(*args)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return size / MIB


def peak_mb(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs, in MiB, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / MIB


def traced_layers(tracer: Tracer, inputs, work: Path) -> dict:
    """Run the library layers of all three tools once; return layer metrics."""
    from pfg import (
        build_graph,
        build_segment_table,
        build_suffix_table,
        expand_gfa_paths,
        graph_from_gfa,
        read_fasta,
        read_gfa,
        read_triggers,
        stream,
        validate,
        write_gfa,
    )

    span = tracer.span
    m: dict = {}
    gfa_path = work / "traced.gfa"
    with open(inputs.triggers) as fh:
        triggers = read_triggers(fh)

    with span("fasta2pfg"):
        with span("fasta.read"), open(inputs.fasta) as fh:
            pangenome = read_fasta(fh)
        with span("partition.build_graph"):
            graph = build_graph(pangenome, triggers)
        with span("graph.validate"):
            report = validate(graph)
        with span("gfa.write"), open(gfa_path, "w") as fh:
            write_gfa(graph, fh)
    if not report.ok:
        raise RuntimeError("validate rejected the graph built from the workload")
    steps = sum(len(path) for _, path in graph.paths)
    tracer.counts.update(
        {
            "partition.segments": len(graph.segments),
            "partition.dict_bytes": sum(len(s.content) for s in graph.segments),
            "partition.path_steps": steps,
            "automaton.hits": steps - len(graph.paths),  # each hit closes one segment
            "gfa.bytes": gfa_path.stat().st_size,
        }
    )

    with span("pfg2sa"):
        with span("gfa.read"), open(gfa_path) as fh:
            doc = read_gfa(fh)
        with span("gfa.graph_from_gfa"):
            graph = graph_from_gfa(doc)
        with span("suffixes.table"):
            suffix_table = build_suffix_table(graph)
        with span("occurrences.table"):
            segment_table = build_segment_table(graph)
        with span("stream.drain"):
            emissions = drain(stream(graph, suffix_table, segment_table, with_bwt=True))
    tracer.counts.update(
        {
            "suffixes.join_len": sum(len(s.content) + 1 for s in graph.segments) + 1,
            "occurrences.count": steps,
            "stream.emissions": emissions,
        }
    )
    with span("memory.stream"):
        emissions_again = stream(graph, suffix_table, segment_table, with_bwt=True)
        m["stream.peak_growth_mb"] = peak_mb(drain, emissions_again)
    del suffix_table, segment_table

    # Helpers timed in calls of their own, apart from the tools' spans.
    with span("helpers"):
        with span("gfa.expand"):
            expand_gfa_paths(doc)
        compile_triggers = optional("pfg.automaton", "compile_triggers")
        if compile_triggers is not None:
            with span("automaton.scan"):
                automaton = compile_triggers(triggers)
                for _, data in pangenome.sequences:
                    automaton.match_ends(data)
        build_join = optional("pfg.suffixes", "build_join")
        suffix_array = optional("pfg.suffixes", "suffix_array")
        lcp_array = optional("pfg.suffixes", "lcp_array")
        annotate = optional("pfg.suffixes", "annotate")
        if build_join is not None and suffix_array is not None:
            join = build_join(graph)
            with span("suffixes.sa"):
                sa = suffix_array(join.text)
            if lcp_array is not None:
                with span("suffixes.lcp"):
                    lcp_array(join.text, sa)
            if annotate is not None:
                with span("suffixes.annotate"):
                    annotate(join, sa)
        build_path_join = optional("pfg.occurrences", "build_path_join")
        right_context_ranks = optional("pfg.occurrences", "right_context_ranks")
        if build_path_join is not None and right_context_ranks is not None:
            path_join = build_path_join(graph)
            with span("occurrences.ranks"):
                right_context_ranks(path_join)

    # Sizes, measured under tracemalloc in calls of their own.
    with span("memory"):
        m["graph.validate_peak_mb"] = peak_mb(validate, graph)
        m["suffixes.table_mb"] = retained_mb(build_suffix_table, graph)
        m["occurrences.table_mb"] = retained_mb(build_segment_table, graph)
    return m


def traced_cli(tracer: Tracer, gfa_path: Path) -> None:
    """pfg2sa_main in-process into a null sink, its library calls spanned."""
    import pfg.cli

    def drained(fn):
        def traced(*args, **kwargs):
            with tracer.span(f"cli.{CLI_STREAM}"):
                return iter(list(fn(*args, **kwargs)))

        return traced

    saved = {name: getattr(pfg.cli, name) for name in (*CLI_CALLS, CLI_STREAM) if hasattr(pfg.cli, name)}
    for name, fn in saved.items():
        setattr(pfg.cli, name, drained(fn) if name == CLI_STREAM else tracer.wrap(f"cli.{name}", fn))
    try:
        with open(os.devnull, "w") as sink, open(os.devnull, "w") as errors:
            with tracer.span("cli.pfg2sa"):
                status = pfg.cli.pfg2sa_main(["--bwt", str(gfa_path)], stdout=sink, stderr=errors)
    finally:
        for name, fn in saved.items():
            setattr(pfg.cli, name, fn)
    if status:
        raise RuntimeError(f"pfg2sa_main returned {status} in the traced run")


def run(inputs, run_round, trace_path: Path) -> dict:
    """One untraced round of the CLIs, then one traced in-process run."""
    untraced, failed = run_round(inputs)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    m = traced_layers(tracer, inputs, trace_path.parent)
    traced_cli(tracer, trace_path.parent / "traced.gfa")

    # A timed metric "<span>_s" is the duration of the span of that name.
    cli = next(s for s in tracer.spans if s["name"] == "cli.pfg2sa")
    m["cli.format_s"] = tracer.self_time(cli)
    recorded = {s["name"] for s in tracer.spans}
    absent = []
    for name, unit in PER_LAYER.items():
        if unit == "s" and name not in m:
            m[name] = tracer.duration(name[:-2]) if name[:-2] in recorded else None
            if m[name] is None:
                absent.append(name)
    m.update(tracer.counts)
    m["stream.emissions_per_s"] = m["stream.emissions"] / m["stream.drain_s"]

    # Overhead: traced totals against the same round run untraced.
    overhead = {}
    if "build_s" in untraced:
        m["trace.build_ratio"] = tracer.duration("fasta2pfg") / untraced["build_s"]
        overhead["fasta2pfg"] = {"traced_s": tracer.duration("fasta2pfg"), "untraced_s": untraced["build_s"]}
    if "sa_s" in untraced:
        m["trace.sa_ratio"] = m["cli.pfg2sa_s"] / untraced["sa_s"]
        overhead["pfg2sa"] = {"traced_s": m["cli.pfg2sa_s"], "untraced_s": untraced["sa_s"]}
    tracer.dump(trace_path, {"absent": absent, "untraced": untraced, "overhead": overhead})
    print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
    if absent:
        print(f"perfbench: absent helpers: {', '.join(absent)}", file=sys.stderr)
    metrics = {name: {"value": m.get(name), "unit": unit} for name, unit in PER_LAYER.items()}
    return {"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}
