"""End-to-end acceptance checks; one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pfg import (
    Pangenome,
    TriggerSet,
    build_graph,
    build_segment_table,
    build_suffix_table,
    stream,
    write_gfa,
)
from pfg.emission import emission_batches
from pfg.oracle import oracle_bwt, oracle_sa, oracle_text
from pfg.suffixes import annotate, build_join, lcp_array, suffix_array

from conftest import (
    FULL_SA,
    SEGMENT_TABLE_ROWS,
    SUFFIX_TABLE_ROWS,
    occurrences,
    random_instance,
)

RANDOM_INSTANCES = 500
ROOT = Path(__file__).resolve().parent.parent


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def running():
    pangenome = Pangenome(
        sequences=[("s1", "CACGTACT"), ("s2", "CACACT"), ("s3", "CACGACT")]
    )
    triggers = TriggerSet.from_words(["AC", "CG"])
    graph = build_graph(pangenome, triggers)
    return pangenome, graph


def padded_suffixes(pangenome, k, sa_values):
    """Expand each pangenome offset to its full dot-padded continuation."""
    text, padded_starts = oracle_text(pangenome, k)
    bases = []
    offset = 0
    for (_, data), padded in zip(pangenome.sequences, padded_starts):
        bases.append((offset, padded))
        offset += len(data)

    def expand(s):
        for base, padded in reversed(bases):
            if s >= base:
                return text[padded + (s - base):]

    return [expand(s) for s in sa_values]


def test_criterion_1_suffix_table_reproduction(running):
    _, graph = running
    t0 = time.perf_counter()
    join = build_join(graph)
    sa = suffix_array(join.text)
    lcp = lcp_array(join.text, sa)
    seg_ids, positions = annotate(join, sa)
    elapsed = time.perf_counter() - t0
    ok = len(sa) == 31 and elapsed < 1.0
    for i, sa_i, lcp_i, seg_id, pos in SUFFIX_TABLE_ROWS:
        ok = ok and (sa[i], lcp[i], seg_ids[i], positions[i]) == (sa_i, lcp_i, seg_id, pos)
    report(1, ok, f"all 31 suffix-table rows reproduced in {elapsed:.3f}s")


def test_criterion_2_segment_table_reproduction(running):
    _, graph = running
    t0 = time.perf_counter()
    table = build_segment_table(graph)
    elapsed = time.perf_counter() - t0
    ok = graph.join.lengths.tolist() == [4, 3, 5, 3, 4, 5] and elapsed < 1.0
    for sid, (length, rows) in SEGMENT_TABLE_ROWS.items():
        got = [(start, rank) for start, rank, _ in occurrences(table, sid)]
        ok = ok and got == rows and graph.join.lengths[sid] == length
    report(2, ok, f"segment table reproduced in {elapsed:.3f}s")


def test_criterion_3_worked_iteration_values(running):
    _, graph = running
    sa = [e.sa for e in stream(graph, build_suffix_table(graph), build_segment_table(graph))]
    ok = sa[0] == 9 and sa[1:3] == [15, 1] and sa[6:10] == [8, 14, 0, 10]
    report(3, ok, "worked emissions 9 / 15,1 / 8,14,0,10 in order")


@pytest.fixture(scope="module")
def randomized_results():
    rng = random.Random(42)
    t0 = time.perf_counter()
    sa_mismatches = 0
    bwt_mismatches = 0
    permutation_ok = True
    ordering_ok = True
    for _ in range(RANDOM_INSTANCES):
        pangenome, triggers = random_instance(rng)
        graph = build_graph(pangenome, triggers)
        batches = list(emission_batches(graph, build_suffix_table(graph), build_segment_table(graph)))
        got_sa = [sa for batch in batches for sa in batch.sa.tolist()]
        got_bwt = b"".join(batch.bwt.tobytes() for batch in batches).decode("ascii")
        expected_sa = oracle_sa(pangenome, graph.k)
        if got_sa != expected_sa:
            sa_mismatches += 1
        if got_bwt != "".join(oracle_bwt(pangenome, expected_sa)):
            bwt_mismatches += 1
        n = pangenome.total_length
        if sorted(got_sa) != list(range(n)):
            permutation_ok = False
        strings = padded_suffixes(pangenome, graph.k, got_sa)
        if not all(a < b for a, b in zip(strings, strings[1:])):
            ordering_ok = False
    elapsed = time.perf_counter() - t0
    return {
        "sa_mismatches": sa_mismatches,
        "bwt_mismatches": bwt_mismatches,
        "permutation_ok": permutation_ok,
        "ordering_ok": ordering_ok,
        "elapsed": elapsed,
    }


def test_criterion_4_oracle_equivalence(running, randomized_results):
    _, graph = running
    sa = [e.sa for e in stream(graph, build_suffix_table(graph), build_segment_table(graph))]
    ok = (
        sa == FULL_SA
        and randomized_results["sa_mismatches"] == 0
        and randomized_results["bwt_mismatches"] == 0
        and randomized_results["elapsed"] < 60.0
    )
    report(
        4,
        ok,
        f"{RANDOM_INSTANCES} randomized instances, 0 SA/BWT mismatches in "
        f"{randomized_results['elapsed']:.1f}s",
    )


def test_criterion_5_permutation_and_ordering(randomized_results):
    ok = randomized_results["permutation_ok"] and randomized_results["ordering_ok"]
    report(5, ok, "sa values are permutations; padded suffixes strictly increase")


def test_criterion_6_roundtrips():
    import io

    from pfg import expand_gfa_paths, read_gfa, write_gfa

    rng = random.Random(4242)
    ok = True
    for _ in range(50):
        pangenome, triggers = random_instance(rng)
        graph = build_graph(pangenome, triggers)
        buf = io.StringIO()
        write_gfa(graph, buf)
        expanded = expand_gfa_paths(read_gfa(io.StringIO(buf.getvalue())))
        if expanded.sequences != pangenome.sequences:
            ok = False
        second = build_graph(expanded, triggers)
        if [s.content for s in second.segments] != [s.content for s in graph.segments]:
            ok = False
        if [p for _, p in second.paths] != [p for _, p in graph.paths]:
            ok = False
    report(6, ok, "GFA spelling and re-partition roundtrips exact on 50 instances")


@pytest.fixture(scope="module")
def large_instance():
    rng = random.Random(7)
    seed_seq = "".join(rng.choices("ACGT", k=30_000))
    sequences = []
    for j in range(256):
        seq = list(seed_seq)
        for p in range(len(seq)):
            if rng.random() < 0.001:
                seq[p] = rng.choice("ACGT".replace(seq[p], ""))
        sequences.append((f"cov{j}", "".join(seq)))
    pangenome = Pangenome(sequences=sequences)
    triggers = TriggerSet.from_words(["TAA", "TAG", "TGA"])
    return pangenome, triggers


@pytest.fixture(scope="module")
def large_graph(large_instance):
    pangenome, triggers = large_instance
    t0 = time.perf_counter()
    graph = build_graph(pangenome, triggers)
    elapsed = time.perf_counter() - t0
    return graph, elapsed


def test_criterion_7_construction_throughput(large_instance, large_graph):
    pangenome, _ = large_instance
    graph, elapsed = large_graph
    dict_size = sum(len(s.content) for s in graph.segments)
    total = pangenome.total_length
    ok = elapsed < 30.0 and dict_size < 0.2 * total
    report(
        7,
        ok,
        f"256x30kb graph built in {elapsed:.1f}s; dictionary "
        f"{dict_size / total:.1%} of input",
    )


def current_rss() -> int:
    """Resident set size of this process in bytes, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def test_criterion_8_space_contract(large_instance, large_graph):
    pangenome, _ = large_instance
    graph, _ = large_graph
    suffix_table = build_suffix_table(graph)
    segment_table = build_segment_table(graph)
    baseline = current_rss()
    peak_growth = 0
    count = 0
    for batch in emission_batches(graph, suffix_table, segment_table):
        count += len(batch.sa)
        peak_growth = max(peak_growth, current_rss() - baseline)
    n = pangenome.total_length
    ok = count == n and peak_growth < 100 * 1024 * 1024
    report(
        8,
        ok,
        f"streamed {count} emissions with {peak_growth / 1e6:.0f} MB growth "
        "(tables + one batch of emissions only)",
    )


# Launched ``pfg2sa --bwt`` peaks at most this many bytes above the floor
# per graph unit, one join symbol or one path step, on each shape.
# Measured on a 2-core host (Python 3.11, numpy 2.4) over a 26.8 MiB floor:
# 36.5-38.2 B on shared 256 x 30 kb.  On unrelated it reads 29.5 B or
# 33.4 B: from one run to another, the suffix table's build peaks at one of
# two levels 32 MiB apart.  The bounds leave 15% and 5% headroom over the
# larger reading.
BYTES_PER_GRAPH_UNIT = {"shared": 44, "unrelated": 35}


def launched_peak(command, stdin) -> int:
    """Peak RSS in bytes of ``command`` reading ``stdin``, its output
    dropped.  It runs through perfbench's launcher: a child's peak never
    reads below the RSS of the process that spawned it, and this one's is
    large."""
    launcher = [sys.executable, "-I", "-S", str(ROOT / "perfbench" / "launch.py")]
    result = subprocess.run(
        [*launcher, str(stdin), os.devnull, os.devnull, "--", *command],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=300,
        check=True,
    )
    record = json.loads(result.stdout)
    assert record["exit"] == 0, record
    return record["maxrss_kb"] * 1024


@pytest.fixture(scope="module")
def unrelated_graph():
    """256 unrelated random 30 kb sequences, with the stop-codon triggers:
    the dictionary is about as large as the input."""
    rng = random.Random(3)
    sequences = [(f"u{j}", "".join(rng.choices("ACGT", k=30_000))) for j in range(256)]
    return build_graph(Pangenome(sequences=sequences), TriggerSet.from_words(["TAA", "TAG", "TGA"]))


@pytest.mark.parametrize("shape", ["shared", "unrelated"])
def test_tool_peak_follows_the_graph(shape, large_graph, unrelated_graph, tmp_path):
    graph = large_graph[0] if shape == "shared" else unrelated_graph
    gfa = tmp_path / "graph.gfa"
    with open(gfa, "w") as fh:
        write_gfa(graph, fh)
    floor = launched_peak([sys.executable, "-c", "import numpy"], os.devnull)
    code = "import sys; from pfg.cli import pfg2sa_main as main; sys.exit(main())"
    peak = launched_peak([sys.executable, "-c", code, "--bwt"], gfa)
    units = len(graph.join.text) + len(graph.steps)
    per_unit = (peak - floor) / units
    report(
        "8 (whole tool)",
        per_unit <= BYTES_PER_GRAPH_UNIT[shape],
        f"pfg2sa --bwt on {shape} 256x30kb peaks {per_unit:.1f} B per graph unit "
        f"above the floor ({units} units)",
    )


def test_gfa_load_keeps_only_the_graph_columns(large_graph):
    """Reading the 256 x 30 kb graph back from its GFA keeps the graph's
    columns and little else: no object per segment or per path step.  With
    its segments renamed from ids, the GFA reads into as little, and the
    read peaks at most 15% above the read of the decimal-named GFA."""
    import io
    import tracemalloc

    from pfg import graph_from_gfa, read_gfa, write_gfa

    from conftest import rename_segments

    def traced(load, text):
        """``load`` of a stream of ``text``, with the bytes it keeps and its peak."""
        source = io.StringIO(text)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load(source)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return loaded, retained - before, peak - before

    graph, _ = large_graph
    sink = io.StringIO()
    write_gfa(graph, sink)
    decimal = sink.getvalue()
    del sink
    loaded, retained, _ = traced(lambda source: graph_from_gfa(read_gfa(source)), decimal)
    join = loaded.join
    column_bytes = len(join.text) + sum(
        array.nbytes for array in (join.boundaries, join.lengths, loaded.steps, loaded.path_offsets)
    )
    assert loaded.steps.tolist() == graph.steps.tolist()
    assert retained < 1.5 * column_bytes, (retained, column_bytes)

    _, _, decimal_peak = traced(read_gfa, decimal)
    doc, retained, renamed_peak = traced(read_gfa, rename_segments(decimal, lambda i: f"s{i}"))
    column_bytes = len(doc.join.text) + sum(
        array.nbytes
        for array in (doc.join.boundaries, doc.join.lengths, doc.ids, doc.steps, doc.path_offsets, doc.overlaps)
    )
    assert doc.steps.tolist() == graph.steps.tolist()
    assert retained < 1.5 * column_bytes, (retained, column_bytes)
    assert renamed_peak <= 1.15 * decimal_peak, (renamed_peak, decimal_peak)
