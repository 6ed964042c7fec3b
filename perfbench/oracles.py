"""Correctness oracles, run outside the timed region.

``reference_scores`` restates the network's fixed-point semantics in plain
vectorised numpy and shares no code with ``ternroll.pipeline``: padded-slice
convolution, round-half-away scale-shift, saturation, reshape max-pool and
raster-major, channel-minor flattening. ``prove_netlist`` parses an emitted
netlist back and evaluates it; on the standard basis that is a complete
proof, because the netlist computes a linear integer map. ``forked`` runs a
check in a child process, so its memory does not count towards the peak
resident memory of the benchmark process.
"""

from __future__ import annotations

import os

import numpy as np

from ternroll import NetworkSpec, evaluate_batch, max_pool, parse_netlist, scale_shift
from ternroll.netlist import NetlistParseError
from ternroll.pipeline import ImageStream, patch_matrix
from ternroll.treegen import GraphValidationError


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _quantize(values, frac_bits: int, total_bits: int) -> np.ndarray:
    lo, hi = -(1 << (total_bits - 1)), (1 << (total_bits - 1)) - 1
    raw = _round_half_away(np.asarray(values, dtype=np.float64) * (1 << frac_bits))
    return np.clip(raw, lo, hi).astype(np.int64)


def reference_scores(net: NetworkSpec, weights: dict, img: np.ndarray) -> tuple[np.ndarray, int]:
    """Raw output scores of ``net`` on an (H, W, D) raw image, and the number
    of saturated values."""
    act, scl = net.act_format, net.scale_format
    lo, hi = -(1 << (act.total_bits - 1)), (1 << (act.total_bits - 1)) - 1
    x = np.asarray(img, dtype=np.int64)
    saturated = 0
    for idx, layer in enumerate(net.layers):
        feeds_scale_shift = idx + 1 < len(net.layers) and net.layers[idx + 1].kind == "ScaleShift"
        if layer.kind in ("Conv", "Dense"):
            w = weights[idx].entries.astype(np.int64)
            if layer.kind == "Conv":
                k, (h, wd, _) = layer.kernel, x.shape
                p = k // 2
                padded = np.pad(x, ((p, p), (p, p), (0, 0)))
                patches = np.concatenate(
                    [padded[q : q + h, r : r + wd, :] for q in range(k) for r in range(k)], axis=2
                )
                x = patches @ w.T
            else:
                x = w @ x.reshape(-1)
            if not feeds_scale_shift:
                clipped = np.clip(x, lo, hi)
                saturated += int(np.count_nonzero(clipped != x))
                x = clipped
        elif layer.kind == "ScaleShift":
            params = weights[idx]
            c = _quantize(params.c, scl.frac_bits, scl.total_bits)
            b = _quantize(params.b, act.frac_bits, act.total_bits)
            prod = x * c
            half = 1 << (scl.frac_bits - 1)
            shifted = np.where(prod >= 0, (prod + half) >> scl.frac_bits, -((half - prod) >> scl.frac_bits))
            t = shifted + b
            x = np.clip(t, lo, hi)
            saturated += int(np.count_nonzero(x != t))
            if layer.activation == "ReLU":
                x = np.maximum(x, 0)
        elif layer.kind == "MaxPool":
            if layer.kernel != layer.stride:
                raise ValueError("the reference pools only non-overlapping windows")
            n, (h, wd, d) = layer.stride, x.shape
            x = x.reshape(h // n, n, wd // n, n, d).max(axis=(1, 3))
        elif layer.kind == "Mux" and x.ndim == 3:
            x = x.reshape(-1)
    return x.reshape(-1), saturated


# Values evaluate_batch may hold at once (8 bytes each): it keeps one row
# per graph node, so wide inputs go through in blocks of columns, and the
# oracle's memory stays below what the compile itself needs.
EVAL_BUDGET = 1 << 22


def prove_netlist(text: str, entries: np.ndarray, xs: np.ndarray, tracer, **attrs) -> bool:
    """Parse ``text`` back and check its outputs equal ``entries @ xs``.

    A netlist that does not parse is a failed proof, not a crash.
    """
    try:
        with tracer.span("netlist.parse", **attrs):
            g = parse_netlist(text)
        w = entries.astype(np.int64)
        step = max(1, EVAL_BUDGET // len(g.nodes))
        for lo in range(0, xs.shape[1], step):
            block = xs[:, lo : lo + step]
            with tracer.span("treegen.evaluate_batch", **attrs):
                got = evaluate_batch(g, block)
            if not np.array_equal(got, w @ block):
                return False
    except (NetlistParseError, GraphValidationError, ValueError):
        return False  # ValueError: evaluate_batch rejects the input count
    return True


def forked(check, *args) -> bool:
    """``check(*args)`` in a forked child: True if it returned True.

    The child shares the parent's pages until it writes them and exits
    before this returns, so the parent's ``ru_maxrss`` only sees the
    program's own calls.
    """
    pid = os.fork()
    if pid == 0:
        try:
            ok = bool(check(*args))
        except BaseException:
            ok = False
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


def replay_blocks(net: NetworkSpec, weights: dict, img: ImageStream, tracer) -> tuple[int, ...]:
    """Push one image block by block through the public block functions,
    with a span per block, and return its raw scores."""
    act = net.act_format
    cur = img
    for idx, layer in enumerate(net.layers):
        feeds_scale_shift = idx + 1 < len(net.layers) and net.layers[idx + 1].kind == "ScaleShift"
        if layer.kind == "Conv":
            with tracer.span("pipeline.window", block=idx):
                patches = patch_matrix(cur, layer.kernel)
            with tracer.span("pipeline.conv", block=idx):
                data = weights[idx].matvec(patches.T).T.reshape(cur.height, cur.width, layer.filters)
        elif layer.kind == "Dense":
            vec = cur.flatten() if isinstance(cur, ImageStream) else cur
            with tracer.span("pipeline.dense", block=idx):
                data = weights[idx].matvec(vec)
        elif layer.kind == "ScaleShift":
            src = cur.data if isinstance(cur, ImageStream) else cur
            with tracer.span("pipeline.scale_shift", block=idx):
                data = scale_shift(src, weights[idx], layer.activation, net.scale_format, act)
        elif layer.kind == "MaxPool":
            with tracer.span("pipeline.max_pool", block=idx):
                cur = max_pool(cur, layer.kernel, layer.stride)
            continue
        else:  # Buffer and Fifo pass through; the first Mux flattens
            if layer.kind == "Mux" and isinstance(cur, ImageStream):
                cur = cur.flatten()
            continue
        if layer.kind in ("Conv", "Dense") and not feeds_scale_shift:
            data = np.clip(data, act.raw_min, act.raw_max)
        cur = ImageStream(data, act.frac_bits) if data.ndim == 3 else data
    flat = cur.flatten() if isinstance(cur, ImageStream) else np.asarray(cur).reshape(-1)
    return tuple(int(v) for v in flat)
