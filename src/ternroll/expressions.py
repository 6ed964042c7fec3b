"""Signed sparse sums over variables, the working form of the CSE passes."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Expression:
    """A signed sum of distinct variables in canonical form.

    ``terms`` is a tuple of (variable index, sign) pairs, sorted by variable
    index, with signs in {-1, +1}. The empty expression is allowed only as
    the representation of an all-zero matrix row. ``id`` is set when the
    expression defines an extracted shared subexpression; original inputs
    occupy indices 0..cols-1 and extracted variables are appended after them.
    """

    terms: tuple[tuple[int, int], ...]
    id: int | None = None

    def __post_init__(self) -> None:
        seen = set()
        for var, sign in self.terms:
            if sign not in (-1, 1):
                raise ValueError(f"term sign must be -1 or +1, got {sign}")
            if var < 0:
                raise ValueError(f"negative variable index {var}")
            if var in seen:
                raise ValueError(f"duplicate variable x{var} in expression")
            seen.add(var)
        ordered = tuple(sorted(self.terms))
        object.__setattr__(self, "terms", ordered)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"{'+' if s > 0 else '-'}x{v}" for v, s in self.terms)
