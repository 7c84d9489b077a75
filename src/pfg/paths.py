"""Segment names looked up a column at a time, and P-records as columns;
numpy operations over whole groups of records make no Python object per
path step."""

from __future__ import annotations

import numpy as np

from .records import Failures, Records, comma_lists, decimals, first, name_keys

_PLUS, _MINUS, _STAR, _M = b"+-*M"
# P-records are parsed in groups of about this many bytes of steps, which
# bounds the parse's temporary arrays.
PATH_BYTES_PER_PARSE = 1 << 18


def segment_names(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray):
    """``(ids, repeated, locate)`` of the S-record names ``buf[begins[i]:ends[i]]``:
    each read as a plain decimal number or -1, whether an earlier S-record
    has it, and a function that gives the S-record each range of a buffer
    names, or -1.  Names 0 to n - 1 in file order are their own S-records.
    Any others are keyed in the 64-bit words each needs, so that one long
    name widens no other key, and sorted once into hash buckets by width."""
    ids = decimals(buf, begins, ends)
    n = len(ids)
    if np.array_equal(ids, np.arange(n)):

        def locate(data, begins, ends):
            values = decimals(data, begins, ends)
            return np.where(values < n, values, -1)

        return ids, np.zeros(n, dtype=bool), locate

    widths = (ends - begins) // 8 + 1
    tables = {}
    for words in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == words)
        keys = name_keys(buf, begins[rows], ends[rows], words)
        bits = len(rows).bit_length() + 1  # two to four buckets per name
        buckets = _hash(keys, bits)
        order = np.argsort(buckets, kind="stable")
        tables[words] = keys[order], rows[order], np.searchsorted(buckets[order], np.arange((1 << bits) + 1)), bits

    def locate(data, begins, ends):
        widths = (ends - begins) // 8 + 1
        found = np.full(len(begins), -1)
        for words, (keys, rows, starts, bits) in tables.items():
            pick = np.flatnonzero(widths == words)
            query = name_keys(data, begins[pick], ends[pick], words)
            bucket = _hash(query, bits)
            at, end = starts[bucket], starts[bucket + 1]
            live = np.flatnonzero(at < end)
            # each round compares each name still looked for with the next key of its bucket
            while live.size:
                hit = (keys[at[live]] == query[live]).all(axis=1)
                found[pick[live[hit]]] = rows[at[live[hit]]]
                at[live] += 1
                live = live[~hit & (at[live] < end[live])]
        return found

    return ids, locate(buf, begins, ends) != np.arange(n), locate


def _hash(keys: np.ndarray, bits: int) -> np.ndarray:
    """A ``bits``-bit hash of each row of 64-bit words."""
    h = np.zeros(len(keys), dtype=np.uint64)
    for word in keys.T:
        h = (h ^ word) * np.uint64(0x9E3779B97F4A7C15)  # 2**64 over the golden ratio, made odd
        h ^= h >> np.uint64(32)
    return (h >> np.uint64(64 - bits)).astype(np.int64)


def overlap_values(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The overlap each token ``buf[begins[i]:ends[i]]`` declares: 0 for
    ``*``, N for ``NM`` with N in ASCII digits, and -1 for any other token."""
    last = buf[ends - 1]
    values = decimals(buf, begins, ends - 1, leading_zeros=True)
    values[last != _M] = -1
    for i in np.flatnonzero((last == _M) & (ends - begins > 19)).tolist():  # more digits than decimals reads
        digits = buf[begins[i] : ends[i] - 1].tobytes()
        # kept as int64: a longer overlap reads as the longest, still longer than every segment
        values[i] = min(int(digits), 2**63 - 1) if digits.isdigit() else -1
    values[(ends - begins == 1) & (last == _STAR)] = 0
    return values


def read_paths(records: Records, rows: np.ndarray, locate):
    """Steps, path offsets and overlaps of the P-records ``rows``, parsed in
    groups of about PATH_BYTES_PER_PARSE bytes of steps.  Raises the error of
    the first bad one: its first bad step, else overlap token, else count."""
    buf = records.buf
    step_begins, step_ends = records.field(2, rows)
    overlap_begins, overlap_ends = records.field(3, rows)
    listed = (overlap_ends - overlap_begins != 1) | (buf[overlap_begins] != _STAR)
    group = np.cumsum(step_ends - step_begins) // PATH_BYTES_PER_PARSE
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(rows)]
    step_parts, count_parts, overlap_parts = [], [], []
    for a, b in zip(bounds, bounds[1:]):
        fields, begins, ends, counts = comma_lists(buf, step_begins[a:b], step_ends[a:b])
        last = fields[ends - 1]  # for an empty step, the comma before it
        steps = locate(fields, begins, np.maximum(ends - 1, begins))
        bad_step = first((last != _PLUS) | (steps < 0))
        part = listed[a:b]
        tokens, token_begins, token_ends, listed_counts = comma_lists(
            buf, overlap_begins[a:b][part], overlap_ends[a:b][part]
        )
        values = overlap_values(tokens, token_begins, token_ends)
        bad_token = first(values < 0)
        token_counts = np.zeros(b - a, dtype=np.int64)
        token_counts[part] = listed_counts

        def step_error(_):
            step = fields[begins[bad_step] : ends[bad_step]].tobytes().decode("utf-8")
            if last[bad_step] == _MINUS:
                return f"reverse-orientation step {step!r} is unsupported"
            if last[bad_step] != _PLUS:
                return f"malformed step {step!r}"
            return f"path step references unknown segment {step[:-1]!r}"

        def token_error(_):
            token = tokens[token_begins[bad_token] : token_ends[bad_token]]
            return f"unsupported overlap {token.tobytes().decode('utf-8')!r}"

        failures = Failures()
        failures.check(rows[a:b], int(np.searchsorted(np.cumsum(counts), bad_step, side="right")), step_error)
        failures.check(rows[a:b], int(np.searchsorted(np.cumsum(token_counts), bad_token, side="right")), token_error)
        miscounted = first(part & (token_counts != counts - 1))
        failures.check(rows[a:b], miscounted, lambda f: "overlap count does not match step count")
        failures.raise_first(records)
        overlaps = np.zeros(len(steps), dtype=np.int64)
        joins = np.repeat(part, counts)
        joins[np.cumsum(counts) - counts] = False  # a path's first step joins nothing
        overlaps[joins] = values
        step_parts.append(steps.astype(np.int32))
        count_parts.append(counts)
        overlap_parts.append(overlaps)
    path_offsets = np.append(0, np.cumsum(np.concatenate(count_parts)))
    return np.concatenate(step_parts), path_offsets, np.concatenate(overlap_parts)
