"""Seeded pangenome generators for the benchmark workloads.

Each workload is a FASTA collection plus a trigger file.  The same
``(workload, seed)`` pair always yields the same bytes.

Regenerate the inputs of one workload with::

    python3 perfbench/workloads.py --workload shared --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHABET = np.frombuffer(b"ACGT", dtype=np.uint8)
LINE_WIDTH = 80
FOUNDER_SEED = 2306
SUBSTITUTION_RATE = 0.001
LENGTH = 30_000  # letters per sequence


@dataclass(frozen=True)
class Shape:
    """How one workload's collection is made."""

    sequences: int
    triggers: tuple[str, ...]
    founder: bool  # copies of one founder with substitutions, else unrelated


# Sizes are chosen so that one round of the three CLIs takes a few seconds
# on a 2-core host; see README.md for the measured figures.
WORKLOADS = {
    "shared": Shape(sequences=12, triggers=("TAA", "TAG", "TGA"), founder=True),
    "unique": Shape(sequences=4, triggers=("TAA", "TAG", "TGA"), founder=False),
    "long-segments": Shape(sequences=8, triggers=("ACGT",), founder=True),
}


def generate(workload: str, seed: int) -> tuple[list[tuple[str, bytes]], tuple[str, ...]]:
    """The named sequences and trigger words of ``workload`` under ``seed``."""
    shape = WORKLOADS[workload]
    index = sorted(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    # The founder ignores the seed: every seed samples copies of one fixed
    # reference.  Its few longest segments set most of validate's memory,
    # so a founder drawn per seed would move the RSS metrics by 25%.
    founder = ALPHABET[np.random.default_rng([FOUNDER_SEED, index]).integers(0, 4, LENGTH)]
    sequences = []
    for j in range(shape.sequences):
        if shape.founder:
            seq = founder.copy()
            hits = np.flatnonzero(rng.random(LENGTH) < SUBSTITUTION_RATE)
            # Shift by 1..3 letters so that every hit really substitutes.
            codes = np.searchsorted(ALPHABET, seq[hits])
            seq[hits] = ALPHABET[(codes + rng.integers(1, 4, hits.size)) % 4]
        else:
            seq = ALPHABET[rng.integers(0, 4, LENGTH)]
        sequences.append((f"seq{j:04d}", seq.tobytes()))
    return sequences, shape.triggers


def write_inputs(sequences, triggers, out: Path) -> tuple[Path, Path]:
    """Write ``input.fa`` and ``triggers.txt`` under ``out``; return both paths."""
    out.mkdir(parents=True, exist_ok=True)
    fasta = out / "input.fa"
    with open(fasta, "wb") as fh:
        for name, seq in sequences:
            fh.write(b">" + name.encode() + b"\n")
            for i in range(0, len(seq), LINE_WIDTH):
                fh.write(seq[i : i + LINE_WIDTH] + b"\n")
    trigger_file = out / "triggers.txt"
    trigger_file.write_text("".join(w + "\n" for w in triggers))
    return fasta, trigger_file


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write_inputs(*generate(args.workload, args.seed), args.out):
        print(path)


if __name__ == "__main__":
    main()
