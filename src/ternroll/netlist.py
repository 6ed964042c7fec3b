"""Structural netlist text format (.ngl) with a round-trip parser.

Grammar, one record per line:

    netlist   = header newline { nodeline newline }
    header    = "ngl" "inputs" INT "outputs" INT "nodes" INT
                "digits" INT "total" INT "aligned" ("0" | "1") ["name" WORD]
    nodeline  = "node" INT KIND INT INT { SIGNEDREF }
    KIND      = "in" | "add" | "delay" | "out"
    SIGNEDREF = ("+" | "-") INT
    INT       = ASCII digits only

The node fields are id, kind, stage and digit width, followed by the signed
operand list. Emission is byte-deterministic: nodes appear in id order, which
is topological by construction.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

import numpy as np

from .matrices import _ascii_digits
from .treegen import KINDS, AdderGraph, GraphValidationError, validate_graph


class NetlistParseError(ValueError):
    """A netlist file violates the .ngl grammar or references dangling nodes."""


def emit(g: AdderGraph) -> str:
    """Serialize a validated graph; rejects graphs that fail validation."""
    validate_graph(g)
    head = (
        f"ngl inputs {len(g.inputs)} outputs {len(g.outputs)} nodes {len(g.kind)} "
        f"digits {g.digits} total {g.total_bits} aligned {1 if g.outputs_aligned else 0}"
    )
    if g.name:
        head += f" name {g.name}"
    # One %-format fills the whole body: each node's line template, then its
    # id and stage and its operand ids, in node order.
    n, m, start = len(g.kind), len(g.operand_node), g.operand_start
    arity = np.diff(start)
    owner = np.repeat(np.arange(n), arity)
    negative = np.bincount(owner, (g.operand_sign < 0) << (np.arange(m) - start[owner]), minlength=n)
    code = (g.kind.astype(np.int64) * 4 + arity) * 8 + negative.astype(np.int64)
    values = np.insert(g.operand_node, np.repeat(start[:-1], 2), np.column_stack([np.arange(n), g.stage]).ravel())
    return head + "".join(_line_templates(g.digit_width)[code].tolist()) % tuple(values.tolist()) + "\n"


@lru_cache(maxsize=8)
def _line_templates(width: int) -> np.ndarray:
    """Node line templates, indexed by (kind * 4 + arity) * 8 + the bit mask
    of the negative operands; validated arities are at most 3."""
    return np.array([
        f"\nnode %d {kind} %d {width}" + "".join(" -%d" if neg >> k & 1 else " +%d" for k in range(arity))
        for kind in KINDS for arity in range(4) for neg in range(8)
    ], dtype=object)


def _fail(lineno: int, msg: str) -> NetlistParseError:
    return NetlistParseError(f"line {lineno}: {msg}")


def _int(tok: str, lineno: int, what: str) -> int:
    if not _ascii_digits(tok):
        raise _fail(lineno, f"expected integer {what}, got {tok!r}")
    return int(tok)


def parse(text: str) -> AdderGraph:
    """Parse an emitted netlist back into a behaviorally identical graph."""
    lines = [l for l in text.splitlines()]
    if not lines or not lines[0].split():
        raise NetlistParseError("line 1: missing ngl header")
    head = lines[0].split()
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
    n_in = _int(fields["inputs"], 1, "inputs")
    n_out = _int(fields["outputs"], 1, "outputs")
    n_nodes = _int(fields["nodes"], 1, "nodes")
    digits = _int(fields["digits"], 1, "digits")
    total = _int(fields["total"], 1, "total")
    if fields["aligned"] not in ("0", "1"):
        raise _fail(1, f"aligned must be 0 or 1, got {fields['aligned']!r}")
    aligned = fields["aligned"] == "1"
    if digits < 1 or total < 1 or total % digits:
        raise _fail(1, f"illegal digit schedule {digits}/{total}")
    width = total // digits

    kinds, stages, start, node, sign = array("b"), array("q"), array("q", [0]), array("q"), array("b")
    body = [(i + 2, l) for i, l in enumerate(lines[1:]) if l.strip()]
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
    g = AdderGraph(
        kinds, stages, start, node, sign, digits=digits, total_bits=total, outputs_aligned=aligned,
        name=fields.get("name", ""),
    )
    if len(g.inputs) != n_in:
        raise NetlistParseError(f"header declares {n_in} inputs, found {len(g.inputs)}")
    if len(g.outputs) != n_out:
        raise NetlistParseError(f"header declares {n_out} outputs, found {len(g.outputs)}")
    try:
        validate_graph(g)
    except GraphValidationError as e:
        raise NetlistParseError(str(e)) from e
    return g


def load(path: str) -> AdderGraph:
    with open(path, "r", encoding="ascii") as f:
        return parse(f.read())
