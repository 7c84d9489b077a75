import io
import random
import tracemalloc

import pytest

from pfg import ConfigError, TriggerSet, read_triggers
from pfg import automaton as scan_module
from pfg.automaton import compile_triggers


def naive_match_ends(text, words):
    k = len(next(iter(words)))
    return [
        i
        for i in range(k - 1, len(text))
        if text[i - k + 1 : i + 1] in words
    ]


class TestTriggerSet:
    def test_dedup_and_uppercase(self):
        t = TriggerSet.from_words(["ac", "AC", "cg"])
        assert t.words == ("AC", "CG")
        assert t.k == 2

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ConfigError):
            TriggerSet.from_words(["AC", "CGT"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            TriggerSet.from_words([])

    def test_reserved_character_rejected(self):
        with pytest.raises(ConfigError):
            TriggerSet.from_words(["A#"])


class TestReadTriggers:
    def test_words_comments_blanks(self):
        t = read_triggers(io.StringIO("# stop codons\nTAA\n\nTAG\nTGA\n"))
        assert t.words == ("TAA", "TAG", "TGA")
        assert t.k == 3

    def test_empty_file_rejected(self):
        with pytest.raises(ConfigError):
            read_triggers(io.StringIO("# nothing\n"))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ConfigError):
            read_triggers(io.StringIO("AC\nTGA\n"))


class TestAutomaton:
    def test_simple_matches(self):
        a = compile_triggers(TriggerSet.from_words(["AC"]))
        assert a.match_ends("ACAC").tolist() == [1, 3]

    def test_overlapping_matches(self):
        a = compile_triggers(TriggerSet.from_words(["AA"]))
        assert a.match_ends("AAA").tolist() == [1, 2]

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_naive_scan(self, seed):
        rng = random.Random(seed)
        k = rng.choice([1, 2, 3, 4])
        words = {"".join(rng.choices("ACGT", k=k)) for _ in range(rng.randint(1, 5))}
        text = "".join(rng.choices("ACGT", k=rng.randint(0, 500)))
        a = compile_triggers(TriggerSet.from_words(words))
        assert a.match_ends(text).tolist() == naive_match_ends(text, words)

    @pytest.mark.parametrize("chunk", ["k", "k+1", "default"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 12, 31])
    def test_agrees_with_naive_scan_at_every_width(self, k, chunk, monkeypatch):
        if chunk != "default":
            # chunks this small make matches straddle every seam
            monkeypatch.setattr(scan_module, "SCAN_CHUNK", k + (chunk == "k+1"))
        rng = random.Random(k)
        for alphabet in ("AB", "ACGT", "ACGTN/0Z~"):
            for length in (0, k - 1, k, k + 1, 3 * k + 2, 400):
                text = "".join(rng.choices(alphabet, k=length))
                # windows of the text itself, so that long words match too
                starts = range(max(len(text) - k + 1, 0))
                words = {text[i : i + k] for i in rng.sample(starts, min(3, len(starts)))}
                words |= {"".join(rng.choices(alphabet, k=k)) for _ in range(2)}
                a = compile_triggers(TriggerSet.from_words(words))
                assert a.match_ends(text).tolist() == naive_match_ends(text, words)

    def test_thousands_of_long_words_agree_with_naive_scan(self):
        # the words are hashed back to back in one pass; 10 letters take the
        # wrapping hash, whose hits are confirmed against the words
        rng = random.Random(10)
        text = "".join(rng.choices("ACGT", k=20_000))
        words = {text[i : i + 10] for i in rng.sample(range(len(text) - 9), 500)}
        words |= {"".join(rng.choices("ACGT", k=10)) for _ in range(3000)}
        a = compile_triggers(TriggerSet.from_words(words))
        assert a.codes.tolist() == [int(a._hashes(w.encode("ascii"))[0]) for w in sorted(words)]
        assert a.match_ends(text).tolist() == naive_match_ends(text, words)

    def test_overlapping_long_matches(self, monkeypatch):
        monkeypatch.setattr(scan_module, "SCAN_CHUNK", 10)
        a = compile_triggers(TriggerSet.from_words(["A" * 9]))
        assert a.match_ends("A" * 12).tolist() == [8, 9, 10, 11]

    def test_long_trigger_hits_are_confirmed(self, monkeypatch):
        # base 256 keeps only a window's last 8 letters in its hash, so every
        # window below collides with the trigger and must be rejected
        monkeypatch.setattr(scan_module, "_HASH_BASE", 256)
        a = compile_triggers(TriggerSet.from_words(["G" + "A" * 8]))
        assert a.match_ends("C" + "A" * 8 + "G" + "A" * 8).tolist() == [17]

    def test_trigger_free_scan_memory_is_bounded(self):
        a = compile_triggers(TriggerSet.from_words(["TAG"]))
        seq = "ACG" * 1_333_334  # 4 Mb with no trigger
        tracemalloc.start()
        try:
            ends = a.match_ends(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ends.tolist() == []
        # one chunk's hashes, not 8 bytes (or even 1) per letter of the sequence
        assert peak < 2 * 2**20
