"""Character-at-a-time reference for the ``.tmx`` text format, the
references for ``ternroll.matrices.format_tmx`` and ``parse_tmx``."""

import numpy as np

from ternroll.matrices import MatrixFormatError, TernaryMatrix, _dimensions

TRIT_CHARS = {"-": -1, "0": 0, "+": 1}
CHAR_OF_TRIT = {-1: "-", 0: "0", 1: "+"}


def format_tmx(m: TernaryMatrix) -> str:
    lines = [f"tmx {m.rows} {m.cols}"]
    for r in range(m.rows):
        lines.append("".join(CHAR_OF_TRIT[int(v)] for v in m.entries[r]))
    return "\n".join(lines) + "\n"


def parse_tmx(text: str) -> TernaryMatrix:
    lines = text.splitlines()
    rows, cols = _dimensions(lines, "tmx")
    body = lines[1:]
    if len(body) < rows:
        raise MatrixFormatError(f"expected {rows} rows, found {len(body)}")
    if any(s.strip() for s in body[rows:]):
        raise MatrixFormatError(f"trailing content after row {rows}")
    a = np.zeros((rows, cols), dtype=np.int8)
    for r, line in enumerate(body[:rows]):
        if len(line) != cols:
            raise MatrixFormatError(f"line {r + 2}: expected {cols} characters, got {len(line)}")
        for c, ch in enumerate(line):
            if ch not in TRIT_CHARS:
                raise MatrixFormatError(f"line {r + 2}, column {c + 1}: invalid character {ch!r}")
            a[r, c] = TRIT_CHARS[ch]
    return TernaryMatrix(a)
