"""Dense trit and float weight matrices plus their on-disk text formats."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .fixedpoint import peak

# an fmx value: optional sign, ASCII digits with an optional point, optional exponent
_FMX_REAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


class MatrixFormatError(ValueError):
    """A .tmx or .fmx file violates its format."""


def _ascii_digits(tok: str) -> bool:
    """Whether tok is ASCII digits only; ``str.isdigit`` admits others."""
    return tok.isascii() and tok.isdigit()


def _dimensions(lines: list[str], tag: str) -> tuple[int, int]:
    """Rows and columns from a ``<tag> <rows> <cols>`` header of ASCII digits."""
    if not lines:
        raise MatrixFormatError(f"empty {tag} input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != tag:
        raise MatrixFormatError(f"line 1: expected '{tag} <rows> <cols>', got {lines[0]!r}")
    if not all(_ascii_digits(t) for t in head[1:]):
        raise MatrixFormatError(f"line 1: bad dimensions in {lines[0]!r}: expected ASCII digits")
    rows, cols = int(head[1]), int(head[2])
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"line 1: dimensions must be positive, got {rows}x{cols}")
    return rows, cols


class FrozenArrays:
    """Read-only array fields of a frozen dataclass, equal when all fields are.

    ``ARRAYS`` maps each array field to its dtype. An array given read-only,
    of that dtype and owning its data is kept as it is; anything else is
    copied into one the caller cannot write to.
    """

    ARRAYS: ClassVar[dict[str, type]] = {}

    def __post_init__(self) -> None:
        for field, dtype in self.ARRAYS.items():
            a = getattr(self, field)
            if not (isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable and a.base is None):
                a = np.array(a, dtype=dtype)
                a.flags.writeable = False
            object.__setattr__(self, field, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class TernaryMatrix(FrozenArrays):
    """Constant weight matrix with entries restricted to {-1, 0, +1}.

    Rows correspond to outputs (filters), columns to inputs. Storage is a
    dense row-major int8 array; sparsity is exploited by the passes, not by
    the container. The entries are read-only (see ``FrozenArrays``).
    """

    ARRAYS = dict(entries=np.int8)

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.entries.ndim != 2 or 0 in self.entries.shape:
            raise ValueError(f"ternary matrix must be 2-D and non-empty, got shape {self.entries.shape}")
        if not np.isin(self.entries, (-1, 0, 1)).all():
            raise ValueError("ternary matrix entries must be -1, 0 or +1")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def expansion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (row, column, entry) triples of the nonzero entries, row by row."""
        rows, cols = np.nonzero(self.entries)
        return rows, cols, self.entries[rows, cols]

    def sparsity(self) -> float:
        """Fraction of zero entries, in [0, 1]."""
        return float(np.count_nonzero(self.entries == 0)) / (self.rows * self.cols)

    @cached_property
    def _fullest(self) -> int:
        """Most nonzeros in a row, at least 1."""
        return max(1, int(np.count_nonzero(self.entries, axis=1).max()))

    @cached_property
    def _channel_nonzeros(self) -> dict[int, np.ndarray]:
        """Per channel count C, the (rows, C) float64 table of each row's
        nonzeros over the window positions of each channel; filled on use."""
        return {}

    def product_dtype(self, x: np.ndarray) -> type:
        """The narrowest type in which products with x's values, or with
        the patches of an (H, W, C) map x, are exact.

        The rule is ``sum_dtype(peak(x))``, except that a map the rule does
        not give float32 takes float32 when every row's per-channel bound,
        the sum over channels ch of the row's nonzeros in ch times
        max|x[..., ch]|, is below 2^24. A patch holds x's values or padding
        zeros, and its columns are (window position, channel) with C
        channels minor, so that bound caps every partial sum of the row.
        """
        # the whole-map peak reads a map several times faster than the
        # per-channel peaks, so only a map the row rule fails pays for those
        top = peak(x)
        if x.ndim == 3 and self._fullest * top >= 1 << 24 and self.cols % x.shape[2] == 0:
            channels = x.shape[2]
            counts = self._channel_nonzeros.get(channels)
            if counts is None:
                counts = np.count_nonzero(self.entries.reshape(self.rows, -1, channels), axis=1)
                counts = self._channel_nonzeros[channels] = counts.astype(np.float64)
            # peaks capped at 2^24 decide "below 2^24" as the true ones do, and
            # keep each row's sum, at most cols * 2^24, exact in float64
            cap = float(1 << 24)
            peaks = np.maximum(x.max(axis=(0, 1)).astype(np.float64), -x.min(axis=(0, 1)).astype(np.float64))
            if (counts @ np.minimum(peaks, cap)).max() < cap:
                return np.float32
        return self.sum_dtype(top)

    def sum_dtype(self, peak: int) -> type:
        """The narrowest type in which products with integers of magnitude
        at most ``peak`` are exact.

        Every partial sum of a row, in any order and with or without FMA,
        is an integer of magnitude at most B = max(1, most nonzeros in a
        row) * peak. float32 represents every such integer when B < 2^24,
        float64 when B < 2^53 and int64 when B < 2^63; past that a sum
        could wrap: ValueError.
        """
        bound = self._fullest * peak
        for dtype, bits in ((np.float32, 24), (np.float64, 53), (np.int64, 63)):
            if bound < 1 << bits:
                return dtype
        raise ValueError(
            f"{self.rows}x{self.cols} product with |x| up to {peak} can reach {bound}, past int64"
        )

    def product(self, x: np.ndarray) -> np.ndarray:
        """x @ entries.T for an (n, cols) or (cols,) x of product_dtype,
        computed and returned in that type (BLAS for the floats)."""
        return x @ self.entries.T.astype(x.dtype)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact integer product entries @ x for an int64 x of shape (cols,)
        or (cols, n), as int64, computed by ``product`` in the type
        ``product_dtype`` proves exact."""
        x = np.asarray(x, dtype=np.int64)
        return self.product(x.T.astype(self.product_dtype(x), copy=False)).astype(np.int64, copy=False).T


@dataclass(frozen=True, eq=False)
class FloatMatrix(FrozenArrays):
    """Real-valued weight matrix, the input of ternarization."""

    ARRAYS = dict(entries=np.float64)

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.entries.ndim != 2 or 0 in self.entries.shape:
            raise ValueError(f"float matrix must be 2-D and non-empty, got shape {self.entries.shape}")
        if not np.isfinite(self.entries).all():
            raise ValueError("float matrix entries must be finite")


#: the trit of each byte, 2 where the byte is no trit character
_TRIT_OF_BYTE = np.full(256, 2, dtype=np.int8)
_TRIT_OF_BYTE[np.frombuffer(b"-0+", dtype=np.uint8)] = (-1, 0, 1)
_BYTE_OF_TRIT = np.frombuffer(b"-0+\n", dtype=np.uint8)  # indexed by trit + 1; 3 ends a line


def format_tmx(m: TernaryMatrix) -> str:
    body = np.full((m.rows, m.cols + 1), 3, dtype=np.intp)
    body[:, :-1] = m.entries + 1
    return f"tmx {m.rows} {m.cols}\n" + _BYTE_OF_TRIT[body].tobytes().decode("ascii")


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
    body = body[:rows]
    if all(len(line) == cols for line in body):
        flat = "".join(body)
        if flat.isascii():
            trits = _TRIT_OF_BYTE[np.frombuffer(flat.encode("ascii"), dtype=np.uint8)]
            if trits.max() < 2:
                return TernaryMatrix(trits.reshape(rows, cols))
    # some row is malformed: word the first error
    r, line = next((r, line) for r, line in enumerate(body) if len(line) != cols or line.strip("-0+"))
    if len(line) != cols:
        raise MatrixFormatError(f"line {r + 2}: expected {cols} characters, got {len(line)}")
    c = len(line) - len(line.lstrip("-0+"))
    raise MatrixFormatError(f"line {r + 2}, column {c + 1}: invalid character {line[c]!r}")


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


def load_fmx(path: str) -> FloatMatrix:
    with open(path, "r", encoding="ascii") as f:
        return parse_fmx(f.read())
