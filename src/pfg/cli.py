"""Command line tools: fasta2pfg, gfa2pfg and pfg2sa.

All three are filters: they read from standard input (or an optional file
argument), write results to standard output and diagnostics to standard
error.  Exit status 0 means no errors, 1 an error, and 141 that the
reader of standard output went away.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

# _pfg2sa calls read_gfa, graph_from_gfa, build_suffix_table and
# build_segment_table as globals of this module, where a caller may wrap
# them.  A module that only some tools run is imported inside the code
# that runs it, so the other tools never load it.
from .automaton import read_triggers
from .errors import FormatError, PfgError, StructureError
from .gfa import expand_gfa_paths, graph_from_gfa, read_gfa, write_gfa
from .occurrences import build_segment_table
from .suffixes import build_suffix_table
from .validation import validate

if TYPE_CHECKING:
    from .emission import Batch


def _builder_parser(prog, description):
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("-t", "--triggers", required=True, help="trigger word file, one word per line")
    parser.add_argument("input", nargs="?", help="input file (default: standard input)")
    return parser


def _run_builder(pangenome, args, stdout):
    from .partition import build_graph

    with open(args.triggers, encoding="utf-8") as fh:
        triggers = read_triggers(fh)
    graph = build_graph(pangenome, triggers)
    report = validate(graph)
    if not report.ok:
        raise StructureError("built graph is not a valid prefix-free graph: " + "; ".join(report.errors))
    write_gfa(graph, stdout)
    return 0


def _run_tool(body, parser, argv, stdin, stdout, stderr):
    """Parse ``argv`` with ``parser``, run ``body`` at a tool's boundary and
    return its exit status.

    Bad input and failed I/O print one ``tool: ...`` line and give 1.  A
    reader that closed the output pipe ends the tool quietly with 141, the
    status of a filter killed by SIGPIPE.

    Without ``argv`` the tool runs as a program: it reads ``sys.argv`` and
    the process ends when it returns.  Everything loaded by then, numpy
    above all, is frozen out of the garbage collector, so that neither a
    full collection during the run nor those the interpreter runs at exit
    traverses it.  A call with an argument list leaves the caller's
    collector alone.
    """
    args = parser.parse_args(argv)
    if argv is None:
        gc.freeze()
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        status = body(args, stdin, stdout, stderr)
        stdout.flush()
        return status
    except BrokenPipeError:
        _discard_output(stdout)
        return 141
    except (PfgError, OSError, UnicodeDecodeError) as exc:
        print(f"{parser.prog}: {exc}", file=stderr)
        return 1


def _discard_output(stdout):
    """Point stdout's file descriptor at the null device, so that flushing
    what is still buffered, at exit too, meets no closed pipe."""
    try:
        fd = stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _read(path, stdin, reader):
    """``reader`` applied to the file at ``path``, or to stdin without one.

    Both are decoded as strict UTF-8 whatever the locale, so a byte that is
    not UTF-8 fails the same way on either, and neither translates line
    ends, so a carriage return inside a record reaches the reader.
    """
    if path is not None:
        with open(path, encoding="utf-8", newline="") as source:
            return reader(source)
    return reader(stdin or io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline=""))


def _fasta2pfg(args, stdin, stdout, stderr):
    from .fasta import read_fasta

    return _run_builder(_read(args.input, stdin, read_fasta), args, stdout)


def _gfa2pfg(args, stdin, stdout, stderr):
    doc = _read(args.input, stdin, read_gfa)
    if not doc.path_names:
        raise FormatError("no P-records found")
    pangenome = expand_gfa_paths(doc)
    del doc  # the partitioning needs only the sequences
    return _run_builder(pangenome, args, stdout)


def fasta2pfg_main(argv=None, stdin=None, stdout=None, stderr=None):
    """Build a normalized prefix-free graph from FASTA and print it as GFA."""
    parser = _builder_parser("fasta2pfg", fasta2pfg_main.__doc__)
    return _run_tool(_fasta2pfg, parser, argv, stdin, stdout, stderr)


def gfa2pfg_main(argv=None, stdin=None, stdout=None, stderr=None):
    """Re-partition the paths of a GFA graph and print the result as GFA."""
    parser = _builder_parser("gfa2pfg", gfa2pfg_main.__doc__)
    return _run_tool(_gfa2pfg, parser, argv, stdin, stdout, stderr)


_TAB, _NEWLINE, _ZERO = b"\t\n0"


def _format_batch(batch: Batch) -> str:
    """The batch's output: a line of tab-separated index, SA, ID and pos
    (and BWT letter, if the batch has the BWT) per emission.

    Row ``r`` of a (line width, emissions) byte matrix holds byte ``r`` of
    every line.  A column's digits come from repeated division by 10 and
    its leading zero places are NUL; reading the matrix line by line and
    dropping the NULs gives the text.
    """
    n = len(batch.sa)
    if n == 0:
        return ""
    columns = (np.arange(batch.first, batch.first + n), batch.sa, batch.seg_id, batch.pos)
    tops = [int(column.max()) for column in columns]
    widths = [len(str(top)) for top in tops]
    # each number and a tab, then the BWT letter and the newline; without
    # the BWT the last tab row becomes the newline
    lines = np.full((sum(widths) + len(columns) + 2 * (batch.bwt is not None), n), _TAB, dtype=np.uint8)
    end = 0
    for column, top, width in zip(columns, tops, widths):
        rest = column.astype(np.min_scalar_type(top))
        for place in range(width):
            row = lines[end + width - 1 - place]
            quotient = rest // 10
            np.subtract(rest, quotient * 10, out=row, casting="unsafe")
            row += _ZERO
            if place:
                row *= rest != 0
            rest = quotient
        end += width + 1
    if batch.bwt is not None:
        lines[end] = batch.bwt
    lines[-1] = _NEWLINE
    return lines.T.tobytes().translate(None, b"\0").decode("ascii")


def _pfg2sa(args, stdin, stdout, stderr):
    from .emission import emission_batches

    doc = _read(args.input, stdin, read_gfa)
    graph = graph_from_gfa(doc)
    if args.verify:
        from .oracle import MAX_ORACLE_BYTES, oracle_bwt, oracle_sa

        # the pangenome's length, from the columns: each step adds its
        # segment but the k letters it shares with the next step or pads
        if int((graph.join.lengths[graph.steps] - graph.k).sum()) > MAX_ORACLE_BYTES:
            print("pfg2sa: --verify is limited to small inputs", file=stderr)
            return 1
        # the oracle reads the sequences the file's paths spell, not the graph
        pangenome = expand_gfa_paths(doc)
        expected_sa = oracle_sa(pangenome, graph.k)
        expected_bwt = "".join(oracle_bwt(pangenome, expected_sa))
    del doc  # the tables need only the graph
    suffix_table = build_suffix_table(graph)
    segment_table = build_segment_table(graph)
    batches = emission_batches(graph, suffix_table, segment_table, with_bwt=args.bwt or args.verify)
    if args.verify:
        # the batches that are checked are the batches that are written
        batches = list(batches)
        got_sa = [sa for batch in batches for sa in batch.sa.tolist()]
        got_bwt = b"".join(batch.bwt.tobytes() for batch in batches).decode("ascii")
        if got_sa != expected_sa or got_bwt != expected_bwt:
            print("pfg2sa: stream disagrees with the oracle", file=stderr)
            return 1
    for batch in batches:
        stdout.write(_format_batch(batch if args.bwt else batch._replace(bwt=None)))
    return 0


def pfg2sa_main(argv=None, stdin=None, stdout=None, stderr=None):
    """Stream the pangenome suffix array from a prefix-free-graph GFA."""
    parser = argparse.ArgumentParser(prog="pfg2sa", description=pfg2sa_main.__doc__)
    parser.add_argument("input", nargs="?", help="GFA file (default: standard input)")
    parser.add_argument("--bwt", action="store_true", help="append the BWT character to each line")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the brute-force oracle (small inputs only)",
    )
    return _run_tool(_pfg2sa, parser, argv, stdin, stdout, stderr)
