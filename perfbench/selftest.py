"""Self-tests of the benchmark's output checks and of its RSS measurement.

    python3 perfbench/selftest.py

1. One round of the real CLIs on ``shared``, seed 1, passes every check.
2. Each check rejects the corruption meant for it: two swapped SA rows,
   one wrong BWT letter, one altered GFA segment and one changed byte in
   the ``gfa2pfg`` output.
3. The peak RSS reported for ``fasta2pfg`` stays the same when the harness
   holds 200 MB more, while a child spawned straight from that harness
   reports at least the harness's size.

Exits 0 when every test passes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import checks
import run

BALLAST_MB = 200
RSS_TOLERANCE_MB = 4


def rewrite_line(src, dst, row: int, edit) -> None:
    """Copy ``src`` to ``dst`` with line ``row`` replaced by ``edit(line)``."""
    with open(src, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[row] = edit(lines[row])
    with open(dst, "wb") as fh:
        fh.write(b"\n".join(lines))


def expect_failure(name: str, check, *args, mentions: str) -> bool:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        ok = mentions in str(exc)
        print(f"{'PASS' if ok else 'FAIL'} {name}: rejected ({exc})")
        return ok
    print(f"FAIL {name}: the corrupted output passed")
    return False


def swap_rows(src, dst, row: int) -> None:
    """Swap everything but the index column between lines row and row + 1."""
    with open(src, "rb") as fh:
        lines = fh.read().split(b"\n")
    a, b = lines[row].split(b"\t", 1), lines[row + 1].split(b"\t", 1)
    lines[row], lines[row + 1] = a[0] + b"\t" + b[1], b[0] + b"\t" + a[1]
    with open(dst, "wb") as fh:
        fh.write(b"\n".join(lines))


def other_letter(letter: bytes) -> bytes:
    return b"C" if letter == b"A" else b"A"


def check_corruptions(inputs: run.Inputs) -> bool:
    work = inputs.work
    collection = inputs.collection
    graph = checks.read_gfa(work / "graph.gfa")
    n = collection.n
    ok = True

    swap_rows(work / "sa.tsv", work / "swapped.tsv", n // 2)
    ok &= expect_failure(
        "two swapped SA rows", checks.check_sa, work / "swapped.tsv", graph, collection,
        mentions="suffix order",
    )

    rewrite_line(work / "sa.tsv", work / "bwt.tsv", n // 3, lambda l: l[:-1] + other_letter(l[-1:]))
    ok &= expect_failure(
        "one wrong BWT letter", checks.check_sa, work / "bwt.tsv", graph, collection,
        mentions="BWT",
    )

    # S-line i + 1 holds segment i; alter the middle letter of the longest.
    seg = max(range(len(graph.segments)), key=lambda i: len(graph.segments[i]))
    row = seg + 1
    middle = len(f"S\t{seg}\t") + len(graph.segments[seg]) // 2

    def alter(line: bytes) -> bytes:
        return line[:middle] + other_letter(line[middle : middle + 1]) + line[middle + 1 :]

    rewrite_line(work / "graph.gfa", work / "altered.gfa", row, alter)
    ok &= expect_failure(
        "one altered GFA segment", checks.check_graph, checks.read_gfa(work / "altered.gfa"), collection,
        mentions="",
    )

    rewrite_line(work / "rebuilt.gfa", work / "changed.gfa", 0, lambda l: l.replace(b"1.0", b"1.1"))
    ok &= expect_failure(
        "one changed byte in the gfa2pfg output", checks.check_identical,
        work / "graph.gfa", work / "changed.gfa", mentions="differs",
    )
    return ok


def fasta2pfg_peak_mb(inputs: run.Inputs) -> float:
    command = run.cli_command("fasta2pfg", "-t", str(inputs.triggers))
    record = run.launch(command, inputs.fasta, inputs.work / "rss.gfa", inputs.work / "rss.err")
    return record["maxrss_kb"] / run.KIB_PER_MB


def direct_peak_mb(inputs: run.Inputs) -> float:
    """Peak RSS of fasta2pfg spawned straight from this process."""
    command = run.cli_command("fasta2pfg", "-t", str(inputs.triggers))
    with open(inputs.fasta) as stdin, open(inputs.work / "direct.gfa", "w") as stdout:
        proc = subprocess.Popen(command, stdin=stdin, stdout=stdout, env=dict(os.environ, PYTHONPATH=str(run.SRC)))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return usage.ru_maxrss / run.KIB_PER_MB


def check_rss(inputs: run.Inputs) -> bool:
    small = fasta2pfg_peak_mb(inputs)
    ballast = bytearray(BALLAST_MB << 20)
    ballast[:: os.sysconf("SC_PAGE_SIZE")] = b"\x01" * len(range(0, len(ballast), os.sysconf("SC_PAGE_SIZE")))
    large = fasta2pfg_peak_mb(inputs)
    direct = direct_peak_mb(inputs)
    del ballast
    steady = abs(large - small) <= RSS_TOLERANCE_MB
    print(
        f"{'PASS' if steady else 'FAIL'} launcher peak RSS {small:.1f} MB, "
        f"{large:.1f} MB with {BALLAST_MB} MB more in the harness"
    )
    shows_pitfall = direct >= BALLAST_MB
    print(
        f"{'PASS' if shows_pitfall else 'FAIL'} direct spawn from that harness "
        f"reports {direct:.1f} MB"
    )
    return steady and shows_pitfall


def main() -> int:
    if not (run.SRC / "pfg" / "cli.py").is_file():
        print(f"selftest: no pfg sources at {run.SRC / 'pfg'}", file=sys.stderr)
        return 2
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    inputs = run.Inputs("shared", 1, work)
    values, failed = run.run_round(inputs)
    ok = failed == 0
    print(f"{'PASS' if ok else 'FAIL'} real outputs pass every check ({failed} tools failed)")
    ok &= check_corruptions(inputs)
    ok &= check_rss(inputs)
    print("selftest: all passed" if ok else "selftest: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
