"""Benchmark the three pfg command line tools on generated pangenomes.

    python3 perfbench/run.py --workload shared --seed 1 --seconds 40 --trace 0

One round runs ``fasta2pfg`` on the generated FASTA, ``gfa2pfg`` on its
GFA and ``pfg2sa --bwt`` on the result, each as its own process, and checks
every output with ``checks.py``.  Rounds repeat until ``--seconds`` have
passed; the end-to-end metrics are the medians over the rounds.  With
``--trace 1`` the workload runs once in-process instead, with spans around
the library calls (``tracing.py``), and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
nonzero when an output check fails or the sources under ``src/`` are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# A round starts only within --seconds, so three calls at this limit still
# end a run inside its 180 s budget.
CALL_TIMEOUT_S = 40
KIB_PER_MB = 1024  # ru_maxrss is in KiB

# name, unit; every one is a median over the rounds of a run
END_TO_END = {
    "build_s": "s",
    "rebuild_s": "s",
    "setup_s": "s",
    "sa_s": "s",
    "build_rss_mb": "MB",
    "sa_rss_mb": "MB",
}


def cli_command(tool: str, *args: str) -> list[str]:
    code = f"import sys; from pfg.cli import {tool}_main as main; sys.exit(main())"
    return [sys.executable, "-c", code, *args]


def launch(command: list[str], stdin: Path, stdout: Path, stderr: Path) -> dict:
    """Run ``command`` through launch.py; return its timing and RSS record."""
    launcher = [sys.executable, "-I", "-S", str(HERE / "launch.py")]
    proc = subprocess.Popen(
        [*launcher, str(stdin), str(stdout), str(stderr), "--", *command],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode:
        raise RuntimeError(f"launcher exited with {proc.returncode}")
    return json.loads(out)


class Inputs:
    """One workload's generated files and the expectations the checks use."""

    def __init__(self, workload: str, seed: int, work: Path):
        named, triggers = workloads.generate(workload, seed)
        self.work = work
        self.fasta, self.triggers = workloads.write_inputs(named, triggers, work)
        self.collection = checks.Collection.from_sequences(named)


def tool_failed(tool: str, record: dict, stderr: Path) -> bool:
    if not record["exit"]:
        return False
    tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
    print(f"perfbench: {tool} exited with {record['exit']}: {''.join(tail)}", file=sys.stderr)
    return True


def run_round(inputs: Inputs) -> tuple[dict, int]:
    """Run and check the three CLIs once; return metric values and failures.

    A tool that exits nonzero counts as failed, and so does every later tool
    of the round, which has no input; a wrong output raises CheckFailed.
    """
    work = inputs.work
    gfa, rebuilt, sa = work / "graph.gfa", work / "rebuilt.gfa", work / "sa.tsv"
    triggers = str(inputs.triggers)
    values: dict = {}

    err = work / "fasta2pfg.err"
    build = launch(cli_command("fasta2pfg", "-t", triggers), inputs.fasta, gfa, err)
    if tool_failed("fasta2pfg", build, err):
        return values, 3
    values["build_s"] = build["wall_s"]
    values["build_rss_mb"] = build["maxrss_kb"] / KIB_PER_MB
    graph = checks.read_gfa(gfa)
    checks.check_graph(graph, inputs.collection)

    err = work / "gfa2pfg.err"
    rebuild = launch(cli_command("gfa2pfg", "-t", triggers), gfa, rebuilt, err)
    if tool_failed("gfa2pfg", rebuild, err):
        return values, 2
    values["rebuild_s"] = rebuild["wall_s"]
    checks.check_identical(gfa, rebuilt)

    err = work / "pfg2sa.err"
    stream = launch(cli_command("pfg2sa", "--bwt"), rebuilt, sa, err)
    if tool_failed("pfg2sa", stream, err):
        return values, 1
    values["setup_s"] = stream["first_byte_s"]
    values["sa_s"] = stream["wall_s"]
    values["sa_rss_mb"] = stream["maxrss_kb"] / KIB_PER_MB
    checks.check_sa(sa, graph, inputs.collection)
    return values, 0


def measure(inputs: Inputs, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed; medians of each metric."""
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while attempted == 0 or time.perf_counter() - started < seconds:
        attempted += 3
        try:
            values, round_failed = run_round(inputs)
        except checks.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
            break
        failed += round_failed
        for name, value in values.items():
            samples[name].append(value)
    print(f"perfbench: {attempted // 3} rounds in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END.items()
        if samples[name]
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pfg" / "cli.py").is_file():
        print(f"perfbench: no pfg sources at {SRC / 'pfg'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = Inputs(args.workload, args.seed, work)
    if not args.trace:
        result = measure(inputs, args.seconds)
    else:
        try:
            result = tracing.run(inputs, run_round, work / "trace.json")
        except checks.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            result = {"correct": False, "attempted": 3, "failed": 0, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] and len(result["metrics"]) else 1


if __name__ == "__main__":
    sys.exit(main())
