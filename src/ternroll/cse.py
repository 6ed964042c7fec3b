"""Shared-subexpression extraction over the signed sums of a ternary matrix.

Two extraction strategies are provided. The top-down pass (``td_cse``)
repeatedly pulls out the most frequent two-term pattern, counting a pattern
and its negation as one canonical pair so a consumer may subtract a shared
value instead of adding it. The bottom-up pass (``bu_cse``) tracks, for every
pair of working rows, the size of their largest common signed sub-pattern and
repeatedly extracts the biggest one; the extracted pattern is appended to the
working set as a fresh row so its own sub-patterns stay discoverable.

Both passes hold their terms as packed ``uint64`` bitsets, written and read
by one bit codec (``_pack``, ``_unpack``), and score every pair of items,
variables for ``td`` and working rows for ``bu``, in one pair table
(``_PairTable``) that an extraction updates only where it changed. The
table keeps only an upper bound on each row's largest value and settles it
when a pick reaches it, and ``bu`` keeps its tied pairs in a heap across
steps, so a step re-derives only what its extraction changed. Both are
deterministic: frequency or size decides first, then the documented
tie-breaks. Both preserve exact symbolic equivalence, which
``find_counterexample`` proves by expanding a result's paths
(``expand_paths``) and comparing the coefficients with the input matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .matrices import FrozenArrays, TernaryMatrix, _ascii_digits
from .network import INT_LIMIT


@dataclass(frozen=True)
class CseStats:
    extractions: int
    total_terms: int


@dataclass(frozen=True, eq=False)
class CseResult(FrozenArrays):
    """Definitions, then outputs, as signed sums in compressed rows.

    Inputs are the variables 0..n_inputs-1, and definition k defines
    variable ``ids[k]``. Row r, the definitions first and then the outputs,
    is the sum of ``term_sign[j]`` times variable ``term_var[j]`` for ``j``
    in ``term_start[r]:term_start[r + 1]``. The arrays are read-only (see
    ``FrozenArrays``). A result is checked when made, and the first broken
    rule, in this order, raises ``ValueError``: n_inputs is at least 1;
    every sign is +1 or -1; a row's variables strictly ascend; the ids are
    unique and not inputs; a definition is not empty and reads only inputs
    and earlier definitions; an output reads only inputs and definitions.
    Substituting all definitions into the outputs reproduces the matrix rows.
    """

    ARRAYS = dict(ids=np.int64, term_start=np.int64, term_var=np.int64, term_sign=np.int8)

    n_inputs: int
    ids: np.ndarray
    term_start: np.ndarray
    term_var: np.ndarray
    term_sign: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        n_in, ids, start, var, sign = self.n_inputs, self.ids, self.term_start, self.term_var, self.term_sign
        if n_in < 1:
            raise ValueError(f"n_inputs must be at least 1, got {n_in}")
        if (any(a.ndim != 1 for a in (ids, start, var, sign)) or len(start) <= len(ids) or start[0] != 0
                or (np.diff(start) < 0).any() or not len(var) == len(sign) == start[-1]):
            raise ValueError("term arrays have inconsistent lengths")
        k, size = len(ids), np.diff(start)
        row = np.repeat(np.arange(len(size)), size)

        def fail(r: int, message: str):
            raise ValueError(f"{f'def x{ids[r]}' if r < k else f'out {r - k}'}: {message}")

        # each loop below runs at most once: on the first term or row breaking its rule
        for j in np.flatnonzero(np.abs(sign) != 1)[:1]:
            fail(row[j], f"x{var[j]} has sign {sign[j]}")
        for j in np.flatnonzero((row[1:] == row[:-1]) & (var[1:] <= var[:-1]))[:1]:
            fail(row[j], f"x{var[j + 1]} follows x{var[j]}, variables must strictly ascend")
        _, first = np.unique(ids, return_index=True)
        again = np.ones(k, bool)
        again[first] = False
        for r in np.flatnonzero((ids < n_in) | again)[:1]:
            fail(r, "the id is an input" if ids[r] < n_in else "the id is defined twice")
        for r in np.flatnonzero(size[:k] == 0)[:1]:
            fail(r, "empty definition")
        val = self.term_values()
        for j in np.flatnonzero((val < 0) | (val >= n_in + np.minimum(row, k)))[:1]:
            fail(row[j], f"reads x{var[j]}, which is not an input or an earlier definition")

    @property
    def n_outputs(self) -> int:
        return len(self.term_start) - 1 - len(self.ids)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_outputs, self.n_inputs

    def expansion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (output, input, coefficient) triples of the map (see ``expand_paths``)."""
        n_in = self.n_inputs
        start = np.r_[np.zeros(n_in, np.int64), self.term_start]  # the inputs, then the rows
        roots = n_in + len(self.ids) + np.arange(self.n_outputs)
        return expand_paths(start, self.term_values(), self.term_sign, roots, np.arange(len(start) - 1) < n_in)

    @property
    def stats(self) -> CseStats:
        """One extraction per definition; terms of definitions and outputs."""
        return CseStats(len(self.ids), len(self.term_var))

    def term_values(self) -> np.ndarray:
        """Each term's value: input i is value i, the variable of definition k
        is value n_inputs + k, and any other variable is -1."""
        n_in, ids, var = self.n_inputs, self.ids, self.term_var
        val = np.where((var >= 0) & (var < n_in), var, -1)
        if len(ids):
            order = np.argsort(ids)
            at = np.minimum(np.searchsorted(ids, var, sorter=order), len(ids) - 1)
            defined = (var >= n_in) & (ids[order[at]] == var)
            val[defined] = n_in + order[at[defined]]
        return val


@dataclass(frozen=True)
class ExtractionEvent:
    """One extraction step: the new variable, its pattern as (variable, sign)
    pairs in variable order, and how many rows it was taken from."""

    var: int
    pattern: tuple[tuple[int, int], ...]
    occurrences: int


def _rows(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compressed rows (start, variable, sign) of a sign matrix, read-only
    arrays that own their data."""
    flat = signs.ravel()  # row-major, so each row's columns ascend
    at = flat.nonzero()[0]
    start = np.zeros(len(signs) + 1, np.int64)
    np.cumsum(np.count_nonzero(signs, axis=1), out=start[1:])
    out = start, at % signs.shape[1], flat[at]
    for a in out:
        a.flags.writeable = False
    return out


def no_cse(m: TernaryMatrix) -> CseResult:
    """Identity result: every row kept verbatim, no shared definitions."""
    return CseResult(m.cols, (), *_rows(m.entries))


# ---------------------------------------------------------------------------
# Shared machinery: the pair table and the bit codec


class _PairTable:
    """A symmetric (cap, cap) table of one value per pair of items, and
    ``best``, an upper bound on each row's largest value; an item's pair
    with itself is 0.

    ``td`` scores pairs of variables in one, ``bu`` pairs of working rows.
    An extraction changes the pairs of only a few items, so ``set``
    rewrites only their rows and columns. It makes ``best`` exact for those
    rows and only raises it elsewhere, so a row whose pairs fell keeps a
    stale bound until ``top`` reaches it and settles it.
    """

    def __init__(self, cap: int, dtype: type) -> None:
        self.values = np.zeros((cap, cap), dtype=dtype)
        self.best = np.zeros(cap, dtype=dtype)

    def set(self, sel: np.ndarray, new: np.ndarray) -> None:
        """Write ``new[k]``, the values of item ``sel[k]`` with the items
        0..n-1, into row and column ``sel[k]``, its diagonal zeroed."""
        n = new.shape[1]
        new[np.arange(len(sel)), sel] = 0
        self.values[sel, :n] = new
        self.values[:n, sel] = new.T
        best = self.best[:n]
        np.maximum(best, new.max(axis=0, initial=0), out=best)
        best[sel] = new.max(axis=1, initial=0)

    def top(self, n: int) -> tuple[int, int]:
        """The first pair (i, j) holding the largest value among items 0..n-1.

        Takes the first argmax i of the bound and the first argmax j of row
        i; while row i's largest value is below its bound, lowers the bound
        to it and takes again. The bound is at least every row's largest
        value, so the i that settles is the smallest row holding the
        largest value, as the first argmax of exact row maxima would be.
        """
        best = self.best[:n]
        while True:
            i = int(best.argmax())
            row = self.values[i, :n]
            j = int(row.argmax())
            if row[j] == best[i]:
                return i, j
            best[i] = row[j]

    def grow(self, cap: int) -> None:
        """Enlarge the table to (cap, cap), keeping its values."""
        n = len(self.best)
        values = np.zeros((cap, cap), dtype=self.values.dtype)
        values[:n, :n] = self.values
        self.values = values
        self.best = np.pad(self.best, (0, cap - n))


def _check_limit(max_extractions: int | None) -> None:
    if max_extractions is not None and max_extractions < 0:
        raise ValueError(f"max_extractions must be at least 0, got {max_extractions}")


def _words(n_bits: int) -> int:
    return -(-n_bits // 64)


def _pack(planes: np.ndarray, words: int, bitorder: str) -> np.ndarray:
    """(2, words, items) uint64 bitsets of (2, items, bits) boolean planes.

    With ``"little"``, bit b is bit b % 64 of word b // 64, so a set's
    first member is the lowest set bit of its first nonzero word; with
    ``"big"``, it is bit 63 - b % 64, so reading the words in order, most
    significant bit first, visits the bits in order.
    """
    padded = np.zeros((*planes.shape[:2], 64 * words), dtype=bool)
    padded[..., : planes.shape[2]] = planes
    packed = np.packbits(padded, axis=-1, bitorder=bitorder).view("<u8" if bitorder == "little" else ">u8")
    return packed.astype(np.uint64).transpose(0, 2, 1)


def _unpack(bits: np.ndarray, n_bits: int, bitorder: str) -> np.ndarray:
    """The (2, items, n_bits) int8 planes of bitsets laid out as by ``_pack``."""
    raw = bits.transpose(0, 2, 1).astype("<u8" if bitorder == "little" else ">u8", order="C")
    return np.unpackbits(raw.view(np.uint8), axis=-1, count=n_bits, bitorder=bitorder).astype(np.int8)


# ---------------------------------------------------------------------------
# Top-down extraction


def _pair_keys(a: np.ndarray, b: np.ndarray, key_type: type) -> np.ndarray:
    """Keys of the variable pairs (a, b), their two orientations' larger.

    ``a`` and ``b`` stack the (P, U) bitsets of their variables on axis 0,
    words on axis 1, and broadcast together. Of the rows U_a & U_b holding
    both terms, those where P_a ^ P_b is set have them with mixed signs and
    the rest with the same sign. An orientation found in count rows, the
    first of them row f, has the key count * 64w + (64w - 1 - f), w the
    words: f is the lowest set bit, a word x has popcount(x ^ -x) bits above
    its lowest, and the lowest nonzero word decides.
    """
    words = a.shape[1]
    both = a[1] & b[1]
    masks = np.empty((2, *both.shape), dtype=np.uint64)  # same sign, mixed signs
    np.bitwise_xor(a[0], b[0], out=masks[1])
    masks[1] &= both
    np.bitwise_xor(both, masks[1], out=masks[0])
    keys = np.bitwise_count(masks).sum(axis=1, dtype=key_type)
    keys *= 64 * words
    x = masks[:, -1]
    rank = np.bitwise_count(x ^ -x)
    for w in range(words - 2, -1, -1):
        x = masks[:, w]
        rank = np.where(x != 0, np.bitwise_count(x ^ -x) + key_type(64 * (words - 1 - w)), rank)
    keys += rank
    return np.maximum(keys[0], keys[1])


def td_cse(
    m: TernaryMatrix,
    *,
    max_extractions: int | None = None,
    trace: list[ExtractionEvent] | None = None,
) -> CseResult:
    """Frequency-driven extraction of two-term patterns.

    Repeatedly extracts the canonical pair occurring in the most rows
    (at least two) as a new variable and rewrites every occurrence with its
    orientation sign, until no pair occurs more than once. Frequency ties go
    to the pair appearing earliest in the current system (smallest containing
    row index), then to the smallest (i, j) with the same-sign orientation
    before the mixed one.

    Each variable's rows are two packed bitsets of w words, words first:
    P, the rows adding it, and U, the rows holding it; row r is bit r % 64
    of word r // 64 (``_pack``'s ``"little"`` order). Each orientation of a
    pair (u, v) has one integer key, count * 64w + (64w - 1 - first row)
    (see ``_pair_keys``), which orders by frequency, then first row; a key
    below 2 * 64w is a pair in fewer than two rows. A ``_PairTable`` holds
    the larger of each pair's two keys. Its settled argmax (``top``) is the
    smallest i among the winners and the first argmax of row i the
    smallest j. The winner's orientation is the one its key describes, read
    off as the relative sign of i and j in its first row: the two
    orientations of a pair never share a row, so they never tie, and this
    is the tie-break above. An extraction changes only the pairs of i, j
    and the new variable, so only those three are set again; the bounds of
    the variables whose pairs with i and j fell stay stale until ``top``
    reaches them.
    """
    _check_limit(max_extractions)
    n_rows, n_inputs = m.rows, m.cols
    n_terms = int(np.count_nonzero(m.entries))
    # each extraction removes at least two row terms
    most = n_terms // 2 if max_extractions is None else min(n_terms // 2, max_extractions)
    # room for n_terms // 4 new variables, about what measured runs needed;
    # grown by half when full, since the key table takes cap**2 space
    cap = n_inputs + min(most, n_terms // 4 + 1)
    words = _words(n_rows)
    span = 64 * words
    key_type = np.min_scalar_type(n_rows * span + span - 1).type
    bits = np.zeros((2, words, cap), dtype=np.uint64)  # (P, U) by word, then variable
    bits[..., :n_inputs] = _pack(np.stack([m.entries.T > 0, m.entries.T != 0]), words, "little")
    table = _PairTable(cap, key_type)
    step = max(1, (1 << 16) // (words * n_inputs))
    for lo in range(0, n_inputs, step):
        cols = np.arange(lo, min(lo + step, n_inputs))
        table.set(cols, _pair_keys(bits[:, :, cols, None], bits[:, :, None, :n_inputs], key_type))

    def_var: list[int] = []  # definition k, of variable n_inputs + k, is +x_i ±x_j with i < j
    def_sign: list[int] = []
    n = n_inputs
    while n - n_inputs < most:
        i, j = table.top(n)
        count, rank = divmod(int(table.values[i, j]), span)
        if count < 2:
            break
        # the winner's orientation is the relative sign of i and j in its first row
        word, bit = divmod(span - 1 - rank, 64)
        differ = bits[0, :, i] ^ bits[0, :, j]
        rel = 1 - 2 * int(differ[word] >> np.uint64(bit) & np.uint64(1))
        occ = bits[1, :, i] & bits[1, :, j] & (differ if rel < 0 else ~differ)
        if n == cap:
            cap = min(n_inputs + most, cap + (cap - n_inputs) // 2 + 1)
            bits = np.pad(bits, ((0, 0), (0, 0), (0, cap - n)))
            table.grow(cap)
        bits[:, :, n] = bits[:, :, i] & occ
        keep = ~occ
        bits[:, :, i] &= keep
        bits[:, :, j] &= keep
        def_var += i, j
        def_sign += 1, rel
        if trace is not None:
            trace.append(ExtractionEvent(n, ((i, 1), (j, rel)), count))
        n += 1
        cols = np.array([i, j, n - 1])
        table.set(cols, _pair_keys(bits[:, :, cols, None], bits[:, :, None, :n], key_type))

    plus, held = _unpack(bits[..., :n], n_rows, "little")
    start, var, sign = _rows((2 * plus - held).T)
    k = n - n_inputs
    start = np.r_[0 : 2 * k : 2, start + 2 * k]
    return CseResult(n_inputs, np.arange(n_inputs, n), start, np.r_[def_var, var], np.r_[def_sign, sign])


# ---------------------------------------------------------------------------
# Bottom-up extraction


def _topo_order(defs: np.ndarray) -> list[int]:
    """Order the rows of a square definition-on-definition sign matrix so
    each references only earlier ones: Kahn's algorithm, smallest ready row
    first."""
    user, used = np.nonzero(defs)
    pending = np.bincount(user, minlength=len(defs)).tolist()
    users = [[] for _ in pending]
    for u, d in zip(user.tolist(), used.tolist()):
        users[d].append(u)
    ready = [d for d, p in enumerate(pending) if not p]  # ascending, so a heap
    order: list[int] = []
    while ready:
        d = heapq.heappop(ready)
        order.append(d)
        for u in users[d]:
            pending[u] -= 1
            if not pending[u]:
                heapq.heappush(ready, u)
    if len(order) != len(defs):
        raise RuntimeError("cyclic definitions produced by extraction; invariant violated")
    return order


def _offers(bits: np.ndarray, r: np.ndarray, s: np.ndarray, size: int, at: int) -> list:
    """``bu``'s heap entries (key, r, s, at, pattern) of the working row
    pairs (r, s), each sharing ``size`` terms, offered at working row count
    ``at``; ``bits`` holds the rows' (P, N) words in use.

    A pair offers its larger orientation (the direct one on equal size),
    signed so that its smallest variable is added. The key is the pattern's
    sorted variables as big-endian uint32, then a byte per term, 1 where it
    is subtracted: for patterns of one size, byte order is the tie order.
    """
    a, b = bits[:, :, r], bits[:, :, s]
    direct, negated = a & b, a & b[::-1]
    d = np.bitwise_count(direct).sum(axis=(0, 1))
    neg = np.bitwise_count(negated).sum(axis=(0, 1))
    if (np.maximum(d, neg) != size).any():
        raise RuntimeError("pattern table disagrees with row contents")
    pats = np.where(d >= neg, direct, negated)
    k, word = np.nonzero((pats[0] | pats[1]).T)  # each pattern's words in use, in order
    plus, minus = _unpack(pats[:, word, k][:, None], 64, "big")
    at_bit, bit = np.nonzero(plus | minus)
    var = (64 * word[at_bit] + bit).reshape(-1, size)
    minus = minus[at_bit, bit].reshape(-1, size)
    flip = minus[:, 0] == 1
    minus[flip] ^= 1
    pats[:, :, flip] = pats[::-1, :, flip]
    key = np.concatenate([var.astype(">u4").view(np.uint8), minus.view(np.uint8)], axis=1).tobytes()
    width = 5 * size
    return [
        (key[x * width : (x + 1) * width], u, v, at, pats[:, :, x])
        for x, (u, v) in enumerate(zip(r.tolist(), s.tolist()))
    ]


def bu_cse(
    m: TernaryMatrix,
    *,
    max_extractions: int | None = None,
    trace: list[ExtractionEvent] | None = None,
) -> CseResult:
    """Largest-common-pattern extraction over the pairs of working rows.

    Each step takes the largest pattern size (at least two matching terms),
    rewrites every working row containing that pattern in either
    orientation, and appends the pattern itself as a new working row. A
    tied row pair's pattern is its larger orientation (the direct one on
    equal size), signed so that its smallest variable is added. Ties go to
    the smallest sorted variable tuple, then the smallest sign tuple with +
    before -, then the first row pair (r, s) in row order. Stops when the
    largest size is at most one.

    Each working row is two packed bitsets, words first: P, the variables
    it adds, and N, those it subtracts; variable v is bit 63 - v % 64 of
    word v // 64 (``_pack``'s ``"big"`` order). Of the H = (P_u | N_u) &
    (P_v | N_v) variables rows u and v share, n = |(P_u ^ P_v) & H| have
    opposite signs, the negated pattern, and d = |H| - n the same sign,
    the direct one. A ``_PairTable`` holds max(d, n), counted exactly by
    popcounts over the words in use, and each extraction sets again only
    the rows it rewrote and the appended one.

    The pairs at the largest size are kept across steps in a heap keyed by
    the tie order above (see ``_offers``); which of the pairs offering one
    pattern comes first does not matter, since they extract the same
    thing. A key holds variable indices, not a mask, so it does not depend
    on the row width when it was offered. No pair ever exceeds the largest
    size: an extraction removes shared terms, and its new variable enters
    only the rows it rewrote. So once the rows just set push their pairs at
    that size, the heap holds every such pair; an entry is stale once one
    of its rows has been set since, which a per-row stamp detects. Only
    when the heap runs empty is the bound settled to the next size and the
    heap rebuilt.
    """
    _check_limit(max_extractions)
    n, n_vars = m.rows, m.cols  # working rows, variables
    # room for one appended row per 8 terms, about what measured runs
    # needed; grown by half when full. Each appended row brings at most
    # one variable, so the words cover every row the capacity allows.
    cap = n + int(np.count_nonzero(m.entries)) // 8 + 1
    bits = np.zeros((2, _words(n_vars + cap - n), cap), dtype=np.uint64)  # (P, N) by word, then row
    bits[..., :n] = _pack(np.stack([m.entries > 0, m.entries < 0]), bits.shape[1], "big")
    # no working row ever grows, so no size exceeds the widest row
    table = _PairTable(cap, np.min_scalar_type(n_vars))
    changed = np.zeros(cap, dtype=np.int64)  # the working row count when each row was last set
    tied: list = []  # a heap of (key, r, s, working row count, pattern) offers at ``size``
    size = 0

    sel = np.arange(n)  # the rows to set
    while max_extractions is None or n - m.rows < max_extractions:
        w = _words(n_vars)
        plus = bits[0, :w, None, :n]
        held = plus | bits[1, :w, None, :n]
        step = max(1, (1 << 20) // (n * w))
        for lo in range(0, len(sel), step):
            a = bits[:, :w, sel[lo : lo + step], None]
            both = (a[0] | a[1]) & held
            mixed = (a[0] ^ plus) & both
            shared = np.bitwise_count(both).sum(axis=0, dtype=table.values.dtype)
            negated = np.bitwise_count(mixed).sum(axis=0, dtype=table.values.dtype)
            table.set(sel[lo : lo + step], np.maximum(shared - negated, negated))

        # the rows just set offer their pairs at ``size``; entries whose rows
        # were set after they were offered are stale
        if tied:
            t, s = np.nonzero(table.values[sel, :n] == size)
            if len(t):
                r = sel[t]
                once = (r < s) | (changed[s] < n)  # a pair of two rows just set is found twice
                for entry in _offers(bits[:, :w], r[once], s[once], size, n):
                    heapq.heappush(tied, entry)
        while tied and max(changed[tied[0][1]], changed[tied[0][2]]) > tied[0][3]:
            heapq.heappop(tied)
        if not tied:
            # settle the bound to the largest size, and gather its pairs
            i, j = table.top(n)
            size = int(table.values[i, j])
            if size <= 1:
                break
            reach = np.flatnonzero(table.best[:n] >= size)  # every row holding a pair at size
            t, s = np.nonzero(table.values[reach, :n] == size)
            r = reach[t]
            tied = _offers(bits[:, :w], r[r < s], s[r < s], size, n)
            heapq.heapify(tied)
        pat = heapq.heappop(tied)[-1]

        # replace the pattern by a new variable in every row holding it,
        # subtracted where it is negated, then append it as a row
        used = pat[0] | pat[1]  # the words of the width it was offered at
        cols = np.flatnonzero(used)
        sub, p = bits[:, cols, :n], np.stack([pat, pat[::-1]])[:, :, cols, None]
        has, has_neg = ((sub & p) == p).all(axis=(1, 2))
        hits = np.flatnonzero(has | has_neg)
        if len(hits) < 2:
            raise RuntimeError("pattern matched fewer than two rows; invariant violated")
        if n == cap:
            cap = n + n // 2 + 1
            bits = np.pad(bits, ((0, 0), (0, _words(n_vars + cap - n) - bits.shape[1]), (0, cap - n)))
            table.grow(cap)
            changed = np.pad(changed, (0, cap - n))
        word, bit = divmod(n_vars, 64)
        bits[:, : len(used), hits] &= ~used[:, None]
        bits[has_neg[hits].astype(np.intp), word, hits] |= np.uint64(1 << (63 - bit))
        bits[:, : len(used), n] = pat
        if trace is not None:
            plus, minus = _unpack(pat[..., None], n_vars, "big")[:, 0]
            row = plus - minus
            terms = np.flatnonzero(row)
            trace.append(ExtractionEvent(n_vars, tuple(zip(terms.tolist(), row[terms].tolist())), len(hits)))
        sel = np.append(hits, n)
        n += 1
        n_vars += 1
        changed[sel] = n

    # working rows are the outputs, then definition k of variable m.cols + k
    plus, minus = _unpack(bits[..., :n], n_vars, "big")
    rows = plus - minus
    order = np.array(_topo_order(rows[m.rows :, m.cols :]), dtype=np.intp)
    return CseResult(m.cols, m.cols + order, *_rows(rows[np.r_[m.rows + order, : m.rows]]))


# ---------------------------------------------------------------------------
# Equivalence checking


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i]:starts[i] + counts[i]``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _merge(key: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, with their coefficients summed; zero sums dropped."""
    order = np.argsort(key, kind="stable")  # timsort: merges the sorted runs callers hand in
    key, coef = key[order], coef[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])[: len(key)]
    coef = np.add.reduceat(coef, first)
    keep = coef != 0
    return key[first][keep], coef[keep]


def expand_paths(start, node, sign, roots, leaves) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A DAG of signed sums as sparse (root, input, coefficient) triples in
    (root, input) order: the proof rule of CSE results and adder graphs.

    Node i is the sum of ``sign[j]`` times node ``node[j]`` for ``j`` in
    ``start[i]:start[i + 1]``; the nodes marked in ``leaves`` are the inputs,
    input k being the k-th of them. The coefficient of input k in root r is
    the sum, over every path from r down to k, of the product of its signs
    (the path-sum rule of an acyclic signal-flow graph). Paths advance a
    level a step, a path at a non-input node becoming one per operand, and
    the paths of one root at one node merge into one, their coefficients
    summed and zeros dropped. So no step holds more than roots x nodes
    entries, cancelling paths included, and the rule is complete for any
    acyclic netlist. The sums are int64 and wrap as evaluating the nodes in
    int64 does: the coefficients are the outputs on the standard basis.
    """
    leaves = np.asarray(leaves, dtype=bool)
    n = len(leaves)
    count = np.diff(start)
    key, coef = np.arange(len(roots)) * n + np.asarray(roots, np.int64), np.ones(len(roots), np.int64)
    while (inner := ~leaves[key % n]).any():
        row, at = np.divmod(key[inner], n)
        j = _ranges(start[at], count[at])
        key = np.concatenate([key[~inner], np.repeat(row * n, count[at]) + node[j]])
        coef = np.concatenate([coef[~inner], np.repeat(coef[inner], count[at]) * sign[j]])
        key, coef = _merge(key, coef)
    row, at = np.divmod(key, n)
    return row, (np.cumsum(leaves) - 1)[at], coef


def find_counterexample(m, result) -> np.ndarray | None:
    """The basis vector e_j of the first column on which ``result`` differs
    from ``m``, or None when it computes exactly ``m @ x``.

    Each is a ``TernaryMatrix``, ``CseResult`` or ``AdderGraph``: a linear
    integer map, given exactly by its ``expansion()`` triples (see
    ``expand_paths``). So this is a complete proof, not a sample: the
    triples of ``result`` and the negated ones of ``m`` are summed by (row,
    column), and whatever is left nonzero differs.
    """
    (rows, cols), other = result.shape, m.shape
    if (rows, cols) != other:
        raise ValueError(f"result is {rows}x{cols} (outputs x inputs), matrix is {other[0]}x{other[1]}")
    (r, c, v), (r2, c2, v2) = result.expansion(), m.expansion()
    key, _ = _merge(np.concatenate([r * cols + c, r2 * cols + c2]), np.concatenate([v, -v2]))
    if not len(key):
        return None
    e = np.zeros(cols, dtype=np.int64)
    e[(key % cols).min()] = 1
    return e


# ---------------------------------------------------------------------------
# Text format


def format_cse(result: CseResult) -> str:
    """Render definitions then outputs in the .cse line format."""
    terms = [f"{'+' if s > 0 else '-'}x{v}" for v, s in zip(result.term_var.tolist(), result.term_sign.tolist())]
    heads = [f"def x{i} =" for i in result.ids.tolist()] + [f"out {r} =" for r in range(result.n_outputs)]
    start = result.term_start.tolist()
    return "".join(" ".join([h, *terms[lo:hi]]) + "\n" for h, lo, hi in zip(heads, start, start[1:]))


class CseFormatError(ValueError):
    """A .cse file violates the line format."""


def _index(tok: str, at: int, lineno: int, what: str) -> int:
    """The index ``tok[at:]``: ASCII digits of value at most ``INT_LIMIT``,
    the cap of network files."""
    digits = tok[at:]
    if not _ascii_digits(digits):
        raise CseFormatError(f"line {lineno}: bad {what} {tok!r}")
    if len(digits.lstrip("0")) > len(str(INT_LIMIT)) or int(digits) > INT_LIMIT:
        raise CseFormatError(f"line {lineno}: {what} {tok!r} has an index above {INT_LIMIT}")
    return int(digits)


def _parse_terms(tokens: list[str], lineno: int) -> list[tuple[int, int]]:
    """The (variable, sign) terms of a line, in variable order."""
    terms: dict[int, int] = {}
    for tok in tokens:
        if len(tok) < 3 or tok[0] not in "+-" or tok[1] != "x":
            raise CseFormatError(f"line {lineno}: bad term {tok!r}")
        var = _index(tok, 2, lineno, "term")
        if var in terms:
            raise CseFormatError(f"line {lineno}: variable x{var} repeated")
        terms[var] = 1 if tok[0] == "+" else -1
    return sorted(terms.items())


def parse_cse(text: str, n_inputs: int | None = None) -> CseResult:
    """Parse the .cse format; each line's terms are taken in variable order.

    When ``n_inputs`` is omitted it is inferred: the smallest defined variable
    index bounds the inputs, or the largest referenced variable plus one when
    there are no definitions. A result that is not well formed (see
    ``CseResult``) raises ``CseFormatError``.
    """
    if n_inputs is not None and n_inputs > INT_LIMIT:
        raise CseFormatError(f"n_inputs {n_inputs} is above {INT_LIMIT}")
    ids: list[int] = []
    rows: list[list[tuple[int, int]]] = []  # the definitions, then the outputs
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "def":
            if len(rows) > len(ids):
                raise CseFormatError(f"line {lineno}: def after out lines")
            if len(parts) < 3 or parts[2] != "=":
                raise CseFormatError(f"line {lineno}: expected 'def x<k> = ...'")
            head = parts[1]
            if not head.startswith("x"):
                raise CseFormatError(f"line {lineno}: bad definition name {head!r}")
            ids.append(_index(head, 1, lineno, "definition name"))
        elif parts[0] == "out":
            if len(parts) < 3 or parts[2] != "=":
                raise CseFormatError(f"line {lineno}: expected 'out <row> = ...'")
            if _index(parts[1], 0, lineno, "row index") != len(rows) - len(ids):
                raise CseFormatError(f"line {lineno}: out rows must be consecutive from 0, got {parts[1]}")
        else:
            raise CseFormatError(f"line {lineno}: expected 'def' or 'out', got {parts[0]!r}")
        rows.append(_parse_terms(parts[3:], lineno))
    if len(rows) == len(ids):
        raise CseFormatError("no out lines")
    terms = np.array([t for row in rows for t in row], dtype=np.int64).reshape(-1, 2)
    if n_inputs is None:
        n_inputs = min(ids) if ids else int(terms[:, 0].max(initial=0)) + 1
    start = np.cumsum([0] + [len(row) for row in rows])
    try:
        return CseResult(n_inputs, ids, start, terms[:, 0], terms[:, 1])
    except ValueError as e:
        raise CseFormatError(str(e)) from e
