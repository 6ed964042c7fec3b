"""Structural netlist text format (.ngl) with a round-trip parser.

Grammar, one record per line:

    netlist   = header newline { nodeline newline }
    header    = "ngl" "inputs" INT "outputs" INT "nodes" INT
                "digits" INT "total" INT "aligned" ("0" | "1") ["name" WORD]
    nodeline  = "node" INT KIND INT INT { SIGNEDREF }
    KIND      = "in" | "add" | "delay" | "out"
    SIGNEDREF = ("+" | "-") INT
    INT       = ASCII digits only
    WORD      = one or more ASCII characters from "!" to "~"

The node fields are id, kind, stage and digit width, followed by the signed
operand list. Emission is byte-deterministic: nodes appear in id order, which
is topological by construction.
"""

from __future__ import annotations

from array import array

import numpy as np

from .matrices import _ascii_digits, read_ascii
from .treegen import IN, KINDS, OUT, AdderGraph, GraphValidationError


class NetlistParseError(ValueError):
    """A netlist file violates the .ngl grammar or references dangling nodes."""


# The literal of each body token, by code: a line's start, a kind, a first
# operand (after the digit width W), a further operand, the W of a node with
# no operands. A negative operand's code is one more than a positive one's.
_START, _KIND, _FIRST, _NEXT, _BARE = 0, 1, 1 + len(KINDS), 3 + len(KINDS), 5 + len(KINDS)


def emit(g: AdderGraph) -> str:
    """Serialize a graph, nodes in id order."""
    head = (
        f"ngl inputs {len(g.inputs)} outputs {len(g.outputs)} nodes {len(g.kind)} "
        f"digits {g.digits} total {g.total_bits} aligned {1 if g.outputs_aligned else 0}"
    )
    if g.name:
        head += f" name {g.name}"
    # The body is a run of tokens, each a literal then an integer: per node,
    # "\nnode " and its id, " <kind> " and its stage, then " W +" or " W -"
    # and its first operand and " +" or " -" and each further one; a node
    # with no operands ends in " W" and no integer. A token is one row of
    # bytes, its literal then D digits, NUL where it has none, so dropping
    # the NULs leaves the text.
    n, start = len(g.kind), g.operand_start
    arity = np.diff(start)
    size = np.maximum(arity, 1) + 2  # tokens of each node
    first = np.cumsum(size) - size
    total = int(size.sum())
    op = np.repeat(first + 2 - start[:-1], arity)  # the token of each operand
    op += np.arange(len(g.operand_node))
    bare = first[arity == 0] + 2
    lit = np.full(total, _NEXT, np.uint8)
    lit[first] = _START
    lit[first + 1] = g.kind + _KIND
    lit[op[g.operand_sign < 0]] += 1
    lit[first + 2] -= _NEXT - _FIRST
    lit[bare] = _BARE
    # int32 digit arithmetic is several times faster than int64; stages go
    # up to 2^63 - 1
    top = max(n - 1, int(g.stage.max(initial=0)))
    val = np.zeros(total, np.int32 if top < 1 << 31 else np.int64)
    val[first] = np.arange(n)
    val[first + 1] = g.stage
    val[op] = g.operand_node
    del first, op
    w = g.digit_width
    words = ["\nnode ", *(f" {k} " for k in KINDS), f" {w} +", f" {w} -", " +", " -", f" {w}"]
    digits = len(str(top))
    width = max(map(len, words)) + digits
    table = np.zeros((len(words), width), np.uint8)
    for code, word in enumerate(words):
        table[code, : len(word)] = np.frombuffer(word.encode("ascii"), np.uint8)
    # one buffer for the whole text: the header, the token rows, the last newline
    head = head.encode("ascii")
    text = np.empty(len(head) + total * width + 1, np.uint8)
    text[: len(head)] = np.frombuffer(head, np.uint8)
    text[-1] = ord("\n")
    buf = text[len(head) : -1].reshape(total, width)
    # "clip" writes straight into ``buf``; "raise" would gather into a temporary
    # first, and every code indexes ``table``
    np.take(table.view(f"V{width}")[:, 0], lit, out=buf.view(f"V{width}")[:, 0], mode="clip")
    del lit
    # the digits right-aligned, NUL where the number has run out
    r = np.empty_like(val)
    for col in range(width - 1, width - 1 - digits, -1):
        more = val > 0
        np.divmod(val, 10, out=(val, r))
        r += 48
        if col < width - 1:
            r *= more
        buf[:, col] = r
    buf[bare, -1] = 0
    del val, r, more, buf
    data = text.tobytes()
    del text
    return data.translate(None, b"\0").decode("ascii")


def _fail(lineno: int, msg: str) -> NetlistParseError:
    return NetlistParseError(f"line {lineno}: {msg}")


def _int(tok: str, lineno: int, what: str) -> int:
    if not _ascii_digits(tok):
        raise _fail(lineno, f"expected integer {what}, got {tok!r}")
    return int(tok)


def parse(text: str) -> AdderGraph:
    """Parse an emitted netlist back into a behaviorally identical graph.

    The body is read with array operations (``_scan``); only when that
    finds a line it cannot vouch for does the per-line loop
    (``_read_lines``) read it, and word the first error.
    """
    head, _, body = text.partition("\n")
    pieces = head.splitlines()  # the first line ends at any line break
    fields = _header(pieces[0] if pieces else "")
    n_in, n_out, n_nodes, digits, total = (
        _int(fields[k], 1, k) for k in ("inputs", "outputs", "nodes", "digits", "total")
    )
    if fields["aligned"] not in ("0", "1"):
        raise _fail(1, f"aligned must be 0 or 1, got {fields['aligned']!r}")
    if digits < 1 or total < 1 or total % digits:
        raise _fail(1, f"illegal digit schedule {digits}/{total}")
    width = total // digits
    arrays = _scan(body, n_nodes, width) if len(pieces) <= 1 else None
    if arrays is None:
        arrays = _read_lines(text.splitlines()[1:], n_nodes, width)
    for what, code, declared in (("inputs", IN, n_in), ("outputs", OUT, n_out)):
        found = int(np.count_nonzero(arrays[0] == code))
        if found != declared:
            raise NetlistParseError(f"header declares {declared} {what}, found {found}")
    try:
        return AdderGraph(
            *arrays, digits=digits, total_bits=total, outputs_aligned=fields["aligned"] == "1",
            name=fields.get("name", ""),
        )
    except GraphValidationError as e:
        raise NetlistParseError(str(e)) from e


def _header(line: str) -> dict[str, str]:
    """The header's fields, checked for magic, pairs and names."""
    head = line.split()
    if not head:
        raise NetlistParseError("line 1: missing ngl header")
    if head[0] != "ngl":
        raise _fail(1, f"expected 'ngl' magic, got {head[0]!r}")
    fields: dict[str, str] = {}
    toks = head[1:]
    if len(toks) % 2:
        raise _fail(1, "header fields must be key/value pairs")
    for k, v in zip(toks[::2], toks[1::2]):
        if k in fields:
            raise _fail(1, f"duplicate header field {k!r}")
        fields[k] = v
    required = ("inputs", "outputs", "nodes", "digits", "total", "aligned")
    for k in required:
        if k not in fields:
            raise _fail(1, f"missing header field {k!r}")
    unknown = set(fields) - set(required) - {"name"}
    if unknown:
        raise _fail(1, f"unknown header fields {sorted(unknown)}")
    return fields


def _read_lines(lines: list[str], n_nodes: int, width: int) -> tuple[np.ndarray, ...]:
    """The node arrays of the body ``lines`` (those after the header), read
    line by line; a ``NetlistParseError`` names the first bad line."""
    kinds, stages, start, node, sign = array("b"), array("q"), array("q", [0]), array("q"), array("b")
    body = [(i + 2, l) for i, l in enumerate(lines) if l.strip()]
    if len(body) != n_nodes:
        raise NetlistParseError(f"header declares {n_nodes} nodes, found {len(body)}")
    for nid, (lineno, line) in enumerate(body):
        parts = line.split()
        if parts[0] != "node" or len(parts) < 5:
            raise _fail(lineno, "expected 'node <id> <kind> <stage> <width> ...'")
        got = _int(parts[1], lineno, "node id")
        if got != nid:
            raise _fail(lineno, f"node ids must be consecutive, expected {nid} got {got}")
        if parts[2] not in KINDS:
            raise _fail(lineno, f"unknown node kind {parts[2]!r}")
        stage = _int(parts[3], lineno, "stage")
        if stage >= 1 << 63:  # held as int64
            raise _fail(lineno, f"stage {stage} is out of range")
        w = _int(parts[4], lineno, "digit width")
        if w != width:
            raise _fail(lineno, f"digit width {w} does not match schedule width {width}")
        for col, tok in enumerate(parts[5:], start=6):
            if tok[0] not in "+-" or not _ascii_digits(tok[1:]):
                raise _fail(lineno, f"field {col}: bad signed operand {tok!r}")
            ref = int(tok[1:])
            if ref >= nid:
                raise _fail(lineno, f"field {col}: dangling reference to node {ref}")
            node.append(ref)
            sign.append(1 if tok[0] == "+" else -1)
        kinds.append(KINDS.index(parts[2]))
        stages.append(stage)
        start.append(len(node))
    return tuple(np.asarray(a) for a in (kinds, stages, start, node, sign))


# The bytes ``_scan`` reads: ASCII whitespace, signs, digits and lowercase
# letters. The whitespace is every byte up to b" " that ``str.split``
# splits at; of those, "\n\v\f\r\x1c\x1d\x1e" are the line breaks of
# ``str.splitlines``.
_SCAN_BYTES = b"\t\n\v\f\r\x1c\x1d\x1e\x1f +-0123456789abcdefghijklmnopqrstuvwxyz"


def _key(word: str) -> int:
    return int.from_bytes(word.encode("ascii"), "little")


_NODE_KEY, _KIND_KEYS = _key("node"), np.array([_key(k) for k in KINDS], np.uint64)
#: the low k bytes of a uint64, by k
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _scan(body: str, n_nodes: int, width: int) -> tuple[np.ndarray, ...] | None:
    """The node arrays of ``body``, the text after the header line, read
    with array operations; None when some line might break a rule.

    Every line must be "node", an id, a kind, a stage, the width and the
    signed operands, as ``_read_lines`` reads them. Letters are counted
    against the words and signs against the operands, so every other token
    is ASCII digits. Integers of up to 19 digits are converted, in uint64.
    A body that is not ASCII is left to ``_read_lines``.
    """
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.translate(None, _SCAN_BYTES) or width >= 10**19:
        return None
    padded = raw + bytes(8)  # for ``_keys``
    a = np.frombuffer(padded, np.uint8)[:-8]
    space = a <= 32
    edge = np.flatnonzero(np.diff(space, prepend=True, append=True))
    start, end = edge[::2], edge[1::2]  # token t is a[start[t]:end[t]]
    # a line's first token is the first token or the first after a line break
    breaks = (a - np.uint8(10) < 4) | (a - np.uint8(28) < 3)
    after = np.searchsorted(start, np.flatnonzero(breaks))
    is_lead = np.zeros(len(start) + 1, bool)
    is_lead[after] = is_lead[0] = True
    lead = np.flatnonzero(is_lead[:-1])
    count = np.diff(lead, append=len(start))  # tokens of each line
    if len(lead) != n_nodes or (count < 5).any():
        return None
    word = np.concatenate([lead, lead + 2])  # "node" and the kind
    keys = _keys(padded, start[word], end[word])
    is_kind = keys[n_nodes:, None] == _KIND_KEYS
    if (keys[:n_nodes] != _NODE_KEY).any() or not is_kind.any(axis=1).all():
        return None
    is_op = np.ones(len(start), bool)
    for field in range(5):
        is_op[lead + field] = False
    op = np.flatnonzero(is_op)
    op_sign = a[start[op]]
    if (
        np.count_nonzero(a > ord("9")) != (end[word] - start[word]).sum()  # a letter outside the words
        or np.count_nonzero(a < ord("0")) - np.count_nonzero(space) != len(op)  # a sign off an operand's start
        or not ((op_sign == ord("+")) | (op_sign == ord("-"))).all()
    ):
        return None
    num = np.concatenate([lead + 1, lead + 3, lead + 4, op])  # id, stage, width, operands
    s, e = start[num] + is_op[num], end[num]
    if ((e - s < 1) | (e - s > 19)).any():
        return None
    ids, stage, widths, node = np.split(_decimal(a, s, e), [n_nodes, 2 * n_nodes, 3 * n_nodes])
    arity = count - 5
    if (
        (ids != np.arange(n_nodes, dtype=np.uint64)).any()
        or (widths != np.uint64(width)).any()
        or (stage >= np.uint64(1 << 63)).any()
        or (node >= np.repeat(np.arange(n_nodes, dtype=np.uint64), arity)).any()
    ):
        return None
    start = np.zeros(n_nodes + 1, np.int64)
    np.cumsum(arity, out=start[1:])
    return (
        is_kind.argmax(axis=1).astype(np.int8), stage.astype(np.int64), start, node.astype(np.int64),
        np.where(op_sign == ord("+"), 1, -1).astype(np.int8),
    )


def _keys(data: bytes, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Each token ``data[s:e]`` as ``_key`` gives it, a longer one cut to 8
    bytes, which is no shorter word's key while the tokens hold no NUL;
    ``data`` must go on for 8 bytes past every token's start."""
    at = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # the 8 bytes from each offset
    return at[s] & _LOW_BYTES[np.minimum(e - s, 8)]


def _decimal(a: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The value of each run ``a[s:e]`` of 1 to 19 ASCII digits, as uint64."""
    n = e - s
    value = np.zeros(len(s), np.uint64)
    for k in range(int(n.max(initial=0))):
        digit = a.take(e - 1 - k, mode="clip") - np.uint8(ord("0"))
        digit *= n > k
        value += digit * np.uint64(10**k)
    return value


def load(path: str) -> AdderGraph:
    return parse(read_ascii(path, NetlistParseError))
