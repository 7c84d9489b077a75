"""Multi-pattern matching of uniform-length trigger words (Aho-Corasick)."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConfigError
from .graph import invalid_letter


@dataclass(frozen=True)
class TriggerSet:
    """A deduplicated set of trigger words sharing a common length k."""

    words: tuple[str, ...]
    k: int

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


class MatchAutomaton:
    """Classic goto/failure/output automaton over a set of patterns.

    ``goto`` is a per-state transition dict, ``fail`` the failure links and
    ``output`` the set of patterns ending at each state.  After construction
    ``_delta`` holds the failure-resolved transition function, so scanning is
    a single dict lookup per character.
    """

    def __init__(self, words):
        self.goto: list[dict[str, int]] = [{}]
        self.fail: list[int] = [0]
        self.output: list[set[str]] = [set()]
        for word in words:
            state = 0
            for c in word:
                nxt = self.goto[state].get(c)
                if nxt is None:
                    nxt = len(self.goto)
                    self.goto[state][c] = nxt
                    self.goto.append({})
                    self.fail.append(0)
                    self.output.append(set())
                state = nxt
            self.output[state].add(word)
        self._link_failures()
        self._resolve_delta()

    def _link_failures(self):
        queue = deque()
        for state in self.goto[0].values():
            self.fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for c, nxt in self.goto[state].items():
                f = self.fail[state]
                while f and c not in self.goto[f]:
                    f = self.fail[f]
                self.fail[nxt] = self.goto[f].get(c, 0)
                self.output[nxt] |= self.output[self.fail[nxt]]
                queue.append(nxt)

    def _resolve_delta(self):
        alphabet = {c for trans in self.goto for c in trans}
        self._delta = []
        order = deque([0])
        seen = {0}
        # BFS so a state's failure target is resolved before the state itself
        delta = [dict() for _ in self.goto]
        while order:
            state = order.popleft()
            for c in alphabet:
                if c in self.goto[state]:
                    delta[state][c] = self.goto[state][c]
                elif state:
                    delta[state][c] = delta[self.fail[state]].get(c, 0)
            for nxt in self.goto[state].values():
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        self._delta = delta
        self._accepting = {s for s, out in enumerate(self.output) if out}

    @property
    def state_count(self) -> int:
        return len(self.goto)

    def find_matches(self, text: str):
        """Yield (end_position, word) for every occurrence, in end order."""
        delta = self._delta
        accepting = self._accepting
        state = 0
        for i, c in enumerate(text):
            state = delta[state].get(c, 0)
            if state in accepting:
                for word in sorted(self.output[state]):
                    yield i, word

    def match_ends(self, text: str) -> list[int]:
        """End positions of all matches; with uniform-length patterns at most
        one match ends per position."""
        delta = self._delta
        accepting = self._accepting
        state = 0
        ends = []
        append = ends.append
        for i, c in enumerate(text):
            state = delta[state].get(c, 0)
            if state in accepting:
                append(i)
        return ends


def compile_triggers(triggers: TriggerSet) -> MatchAutomaton:
    return MatchAutomaton(triggers.words)
