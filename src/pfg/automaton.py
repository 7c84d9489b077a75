"""Reading uniform-length trigger words and finding their occurrences.

All triggers share one length k, so a trigger ends at position i exactly
when the k-window ending there is a trigger word.  The scan hashes every
window with numpy and looks the hashes up among the triggers' hashes; no
automaton is needed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import invalid_letter

# Windows hashed per numpy pass.  The scan's extra memory is a few
# arrays of this many entries, whatever the sequence length.
SCAN_CHUNK = 1 << 16

# Windows of up to 8 one-byte letters pack exactly into a uint64 (base
# 256).  Longer windows take an odd multiplier, wrapping around 2**64, and
# each hit is confirmed against the words.
_PACKED_LETTERS = 8
_HASH_BASE = 0x9E3779B97F4A7C15


class TriggerSet:
    """A deduplicated set of trigger words sharing a common length k."""

    def __init__(self, words: tuple[str, ...], k: int):
        self.words = words
        self.k = k

    @classmethod
    def from_words(cls, words) -> "TriggerSet":
        cleaned = sorted({w.strip().upper() for w in words if w.strip()})
        if not cleaned:
            raise ConfigError("trigger set is empty")
        lengths = {len(w) for w in cleaned}
        if len(lengths) != 1:
            raise ConfigError(f"trigger words have mixed lengths {sorted(lengths)}")
        for w in cleaned:
            if invalid_letter(w) is not None:
                raise ConfigError(f"trigger word {w!r} contains a reserved or invalid character")
        return cls(words=tuple(cleaned), k=lengths.pop())


def read_triggers(stream) -> TriggerSet:
    """One trigger word per line; blank lines and #-comments are ignored."""
    words = []
    for line in stream:
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        words.append(word)
    if not words:
        raise ConfigError("trigger file contains no words")
    return TriggerSet.from_words(words)


class TriggerScanner:
    """Finds where ``words``, all ``k`` ASCII characters long, end in a text."""

    def __init__(self, words: tuple[str, ...], k: int):
        self.k = k
        self.words = frozenset(words)
        self.exact = k <= _PACKED_LETTERS
        self.base = np.uint64(256 if self.exact else _HASH_BASE)
        # the words back to back, hashed in one pass: word i is window i * k;
        # copied, so that the windows that straddle two words are freed
        self.codes = self._hashes("".join(words).encode("ascii"))[::k].copy()

    def _hashes(self, letters: bytes) -> np.ndarray:
        """Hash of every k-window of ``letters``, indexed by window start;
        none when ``letters`` is shorter than k."""
        k = self.k
        data = np.frombuffer(letters, dtype=np.uint8)
        hashes = np.zeros(max(len(data) - k + 1, 0), dtype=np.uint64)
        for j in range(k):
            hashes *= self.base
            hashes += data[j : j + len(hashes)]
        return hashes

    def match_ends(self, seq: str) -> np.ndarray:
        """End positions of all trigger occurrences in ``seq``, ascending.

        Triggers share one length, so at most one ends at each position.
        """
        k = self.k
        found = []
        # chunks of window starts; each reads k - 1 letters past its end
        for lo in range(0, len(seq) - k + 1, SCAN_CHUNK):
            piece = seq[lo : lo + SCAN_CHUNK + k - 1]
            # "sort" compares against each code in turn while there are few;
            # numpy's default builds a table over the codes' range per call
            hits = np.isin(self._hashes(piece.encode("ascii")), self.codes, kind="sort")
            ends = np.flatnonzero(hits)
            ends += lo + k - 1
            if not self.exact:
                ends = ends[[seq[e - k + 1 : e + 1] in self.words for e in ends.tolist()]]
            found.append(ends)
        return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def compile_triggers(triggers: TriggerSet) -> TriggerScanner:
    return TriggerScanner(triggers.words, triggers.k)
