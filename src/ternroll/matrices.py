"""Dense trit and float weight matrices plus their on-disk text formats."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

TRIT_CHARS = {"-": -1, "0": 0, "+": 1}
CHAR_OF_TRIT = {-1: "-", 0: "0", 1: "+"}


# an fmx value: optional sign, ASCII digits with an optional point, optional exponent
_FMX_REAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


class MatrixFormatError(ValueError):
    """A .tmx or .fmx file violates its format."""


def _dimensions(lines: list[str], tag: str) -> tuple[int, int]:
    """Rows and columns from a ``<tag> <rows> <cols>`` header of ASCII digits."""
    if not lines:
        raise MatrixFormatError(f"empty {tag} input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != tag:
        raise MatrixFormatError(f"line 1: expected '{tag} <rows> <cols>', got {lines[0]!r}")
    if not all(t.isascii() and t.isdigit() for t in head[1:]):
        raise MatrixFormatError(f"line 1: bad dimensions in {lines[0]!r}: expected ASCII digits")
    rows, cols = int(head[1]), int(head[2])
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"line 1: dimensions must be positive, got {rows}x{cols}")
    return rows, cols


@dataclass(frozen=True)
class TernaryMatrix:
    """Constant weight matrix with entries restricted to {-1, 0, +1}.

    Rows correspond to outputs (filters), columns to inputs. Storage is a
    dense row-major int8 array; sparsity is exploited by the passes, not by
    the container.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.int8)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"ternary matrix must be 2-D and non-empty, got shape {a.shape}")
        if not np.isin(a, (-1, 0, 1)).all():
            raise ValueError("ternary matrix entries must be -1, 0 or +1")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def sparsity(self) -> float:
        """Fraction of zero entries, in [0, 1]."""
        return float(np.count_nonzero(self.entries == 0)) / (self.rows * self.cols)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact integer product entries @ x, as int64.

        Every partial sum of a row, in any order, is an integer no larger
        than B = (most nonzeros in a row) * max|x|. Below 2^53 float64
        represents all of them, so BLAS computes the product exactly; below
        2^63 int64 does. Past that the sum could wrap: ValueError.
        """
        x = np.asarray(x, dtype=np.int64)
        peak = max(-int(x.min(initial=0)), int(x.max(initial=0)))
        bound = int(np.count_nonzero(self.entries, axis=1).max()) * peak
        if bound < 1 << 53:
            w = self.entries.astype(np.float64)
            if x.ndim < 2:
                return (w @ x.astype(np.float64)).astype(np.int64)
            # at most 2 MiB of x in float64 at a time: a whole copy beside a
            # large x (a conv layer's patches) doubles what a call holds, and
            # past glibc's heap trim threshold (twice the largest block it has
            # mapped, 9 MiB after a 4.5 MiB one) that memory is given back and
            # faulted in again on every call
            out = np.empty((self.rows, x.shape[1]), np.int64)
            step = max(1, (1 << 18) // max(1, len(x)))
            for lo in range(0, x.shape[1], step):
                out[:, lo : lo + step] = w @ x[:, lo : lo + step].astype(np.float64)
            return out
        if bound < 1 << 63:
            return self.entries.astype(np.int64) @ x
        raise ValueError(
            f"{self.rows}x{self.cols} product with |x| up to {peak} can reach {bound}, past int64"
        )


@dataclass(frozen=True)
class FloatMatrix:
    """Real-valued weight matrix, the input of ternarization."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"float matrix must be 2-D and non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("float matrix entries must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def format_tmx(m: TernaryMatrix) -> str:
    lines = [f"tmx {m.rows} {m.cols}"]
    for r in range(m.rows):
        lines.append("".join(CHAR_OF_TRIT[int(v)] for v in m.entries[r]))
    return "\n".join(lines) + "\n"


def parse_tmx(text: str) -> TernaryMatrix:
    """Parse the tmx format: header line, then one row of -/0/+ per line.

    Parsing is strict; any stray character, wrong row length or missing row
    is an error.
    """
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


def format_fmx(m: FloatMatrix) -> str:
    lines = [f"fmx {m.rows} {m.cols}"]
    for r in range(m.rows):
        lines.append(" ".join(repr(float(v)) for v in m.entries[r]))
    return "\n".join(lines) + "\n"


def parse_fmx(text: str) -> FloatMatrix:
    """Parse the fmx format: header line, then whitespace-separated ASCII
    decimal reals that are finite."""
    lines = text.splitlines()
    rows, cols = _dimensions(lines, "fmx")
    tokens = "\n".join(lines[1:]).split()
    if len(tokens) != rows * cols:
        raise MatrixFormatError(f"expected {rows * cols} values, found {len(tokens)}")
    bad = next((t for t in tokens if not _FMX_REAL.fullmatch(t)), None)
    if bad is not None:
        raise MatrixFormatError(f"bad fmx value {bad!r}: expected an ASCII decimal real")
    a = np.array([float(t) for t in tokens], dtype=np.float64).reshape(rows, cols)
    if not np.isfinite(a).all():
        raise MatrixFormatError("fmx body contains non-finite values")
    return FloatMatrix(a)


def load_tmx(path: str) -> TernaryMatrix:
    with open(path, "r", encoding="ascii") as f:
        return parse_tmx(f.read())


def dump_tmx(m: TernaryMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_tmx(m))


def load_fmx(path: str) -> FloatMatrix:
    with open(path, "r", encoding="ascii") as f:
        return parse_fmx(f.read())


def dump_fmx(m: FloatMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_fmx(m))


def random_ternary(rows: int, cols: int, sparsity: float, rng: np.random.Generator) -> TernaryMatrix:
    """Random trit matrix with the given expected fraction of zeros."""
    u = rng.random((rows, cols))
    signs = rng.integers(0, 2, size=(rows, cols), dtype=np.int8) * 2 - 1
    a = np.where(u < sparsity, np.int8(0), signs)
    return TernaryMatrix(a)
