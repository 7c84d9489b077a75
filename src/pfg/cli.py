"""Command line tools: fasta2pfg, gfa2pfg and pfg2sa.

All three are filters: they read from standard input (or an optional file
argument), write results to standard output and diagnostics to standard
error.  Exit status 0 means no errors, 1 an error, and 141 that the
reader of standard output went away.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

import numpy as np

from .errors import PfgError
from .fasta import read_fasta, read_triggers
from .gfa import expand_gfa_paths, graph_from_gfa, read_gfa, write_gfa
from .graph import Pangenome, reconstruct
from .occurrences import build_segment_table
from .oracle import MAX_ORACLE_BYTES, oracle_bwt, oracle_sa
from .partition import build_graph
from .stream import Batch, emission_batches
from .suffixes import build_suffix_table
from .validation import validate


def _builder_parser(prog, description):
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("-t", "--triggers", required=True, help="trigger word file, one word per line")
    parser.add_argument("input", nargs="?", help="input file (default: standard input)")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress warnings")
    return parser


def _report_warnings(report, quiet, stderr):
    if quiet:
        return
    for issue in report.warnings:
        print(f"warning: {issue.message}", file=stderr)


def _run_builder(pangenome, args, stdout, stderr):
    with open(args.triggers, encoding="utf-8") as fh:
        triggers = read_triggers(fh)
    graph = build_graph(pangenome, triggers)
    report = validate(graph)
    _report_warnings(report, args.quiet, stderr)
    if not report.ok:
        for issue in report.errors:
            print(f"error: {issue.message}", file=stderr)
        return 1
    write_gfa(graph, stdout)
    return 0


def _run_tool(tool, body, args, stdin, stdout, stderr):
    """Run ``body`` at a tool's boundary and return its exit status.

    Bad input and failed I/O print one ``tool: ...`` line and give 1.  A
    reader that closed the output pipe ends the tool quietly with 141, the
    status of a filter killed by SIGPIPE.
    """
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
        print(f"{tool}: {exc}", file=stderr)
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
    not UTF-8 fails the same way on either.
    """
    if path is not None:
        with open(path, encoding="utf-8") as source:
            return reader(source)
    return reader(stdin or io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8"))


def _fasta2pfg(args, stdin, stdout, stderr):
    return _run_builder(_read(args.input, stdin, read_fasta), args, stdout, stderr)


def _gfa2pfg(args, stdin, stdout, stderr):
    pangenome = expand_gfa_paths(_read(args.input, stdin, read_gfa))
    return _run_builder(pangenome, args, stdout, stderr)


def fasta2pfg_main(argv=None, stdin=None, stdout=None, stderr=None):
    """Build a normalized prefix-free graph from FASTA and print it as GFA."""
    args = _builder_parser("fasta2pfg", fasta2pfg_main.__doc__).parse_args(argv)
    return _run_tool("fasta2pfg", _fasta2pfg, args, stdin, stdout, stderr)


def gfa2pfg_main(argv=None, stdin=None, stdout=None, stderr=None):
    """Re-partition the paths of a GFA graph and print the result as GFA."""
    args = _builder_parser("gfa2pfg", gfa2pfg_main.__doc__).parse_args(argv)
    return _run_tool("gfa2pfg", _gfa2pfg, args, stdin, stdout, stderr)


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
    graph = graph_from_gfa(_read(args.input, stdin, read_gfa))
    suffix_table = build_suffix_table(graph)
    segment_table = build_segment_table(graph)
    batches = emission_batches(graph, suffix_table, segment_table, with_bwt=args.bwt or args.verify)
    if args.verify:
        pangenome = Pangenome(
            sequences=[
                (name, reconstruct(graph, j))
                for j, (name, _) in enumerate(graph.paths)
            ]
        )
        if pangenome.total_length > MAX_ORACLE_BYTES:
            print("pfg2sa: --verify is limited to small inputs", file=stderr)
            return 1
        expected_sa = oracle_sa(pangenome, graph.k)
        expected_bwt = oracle_bwt(pangenome, expected_sa)
        # the batches that are checked are the batches that are written
        batches = list(batches)
        got_sa = [sa for batch in batches for sa in batch.sa.tolist()]
        got_bwt = b"".join(batch.bwt.tobytes() for batch in batches).decode("ascii")
        if got_sa != expected_sa or got_bwt != "".join(expected_bwt):
            print("pfg2sa: stream disagrees with the oracle", file=stderr)
            return 1
        if not args.quiet:
            print("verified against the brute-force oracle", file=stderr)
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
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress warnings")
    return _run_tool("pfg2sa", _pfg2sa, parser.parse_args(argv), stdin, stdout, stderr)
