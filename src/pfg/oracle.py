"""Brute-force suffix array and BWT over the expanded pangenome text.

Ground truth for tests and the ``--verify`` flag, in plain Python and
sharing no code with the suffix sort it checks; restricted to small inputs.
"""

from __future__ import annotations

from bisect import bisect_right

from .graph import PAD, SENTINEL, Pangenome

MAX_ORACLE_BYTES = 50_000


def oracle_text(pangenome: Pangenome, k: int) -> tuple[str, list[int]]:
    """Each sequence followed by k pads; also the start offset of every
    sequence within the padded text."""
    parts = []
    starts = []
    offset = 0
    for _, data in pangenome.sequences:
        starts.append(offset)
        parts.append(data)
        parts.append(PAD * k)
        offset += len(data) + k
    return "".join(parts), starts


def oracle_sa(pangenome: Pangenome, k: int) -> list[int]:
    """Sort all suffixes of the padded text, drop pad positions, and map the
    survivors to pangenome coordinates."""
    if pangenome.total_length > MAX_ORACLE_BYTES:
        raise ValueError("oracle restricted to small inputs")
    text, starts = oracle_text(pangenome, k)
    n = len(text)
    # prefix doubling (Manber and Myers 1993): each round sorts by the pair of
    # ranks of a suffix's first h letters and of the h after them (-1 past
    # the end), so the ranks order the suffixes by 2h letters; memory is
    # linear.  A pair is packed into one int, which sorts faster than a tuple.
    rank = list(map(ord, text))
    sa = list(range(n))
    base = n + 256  # above any rank plus one: a letter's is below 256, a round's below n
    h = 1
    while len(set(rank)) < n:
        key = [rank[i] * base + (rank[i + h] + 1 if i + h < n else 0) for i in range(n)]
        sa.sort(key=key.__getitem__)
        rank[sa[0]] = r = 0
        for a, b in zip(sa, sa[1:]):
            r += key[a] != key[b]
            rank[b] = r
        h *= 2
    # sequence j is preceded by j runs of k pads
    return [t - k * (bisect_right(starts, t) - 1) for t in sa if text[t] != PAD]


def oracle_bwt(pangenome: Pangenome, sa: list[int]) -> list[str]:
    """Preceding character of each suffix; SENTINEL at sequence starts."""
    bases = []
    offset = 0
    for _, data in pangenome.sequences:
        bases.append(offset)
        offset += len(data)
    out = []
    for s in sa:
        j = bisect_right(bases, s) - 1
        if s == bases[j]:
            out.append(SENTINEL)
        else:
            out.append(pangenome.sequences[j][1][s - bases[j] - 1])
    return out
