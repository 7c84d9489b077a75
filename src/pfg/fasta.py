"""The FASTA reader."""

from __future__ import annotations

from .errors import FormatError
from .graph import Pangenome, invalid_letter


def read_fasta(stream) -> Pangenome:
    """Parse a FASTA stream into a Pangenome.

    Names are headers up to the first whitespace, and must be unique;
    sequence lines are concatenated and uppercased; CR/LF is tolerated.
    """
    sequences = []
    names = set()
    name = None
    chunks: list[str] = []
    start_line = 0

    def flush():
        if name is None:
            return
        data = "".join(chunks)
        if not data:
            raise FormatError(f"record {name!r} has an empty sequence", line=start_line)
        sequences.append((name, data))

    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\r\n")
        if line.startswith(">"):
            flush()
            words = line[1:].split(maxsplit=1)
            if not words:
                raise FormatError("record has an empty name", line=lineno)
            name = words[0]
            if name in names:
                raise FormatError(f"record name {name!r} is repeated", line=lineno)
            names.add(name)
            chunks = []
            start_line = lineno
        elif line.strip():
            if name is None:
                raise FormatError("sequence data before the first header", line=lineno)
            part = line.strip()
            bad = invalid_letter(part)
            if bad is not None:
                raise FormatError(f"reserved or invalid character {bad!r}", line=lineno)
            chunks.append(part.upper())
    flush()
    if not sequences:
        raise FormatError("no FASTA records found", line=1)
    return Pangenome(sequences=sequences)

