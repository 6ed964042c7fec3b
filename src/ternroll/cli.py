"""Command-line front end: compile, inspect and simulate networks.

Exit codes: 0 success, 1 usage error, 2 bad input, 3 internal invariant
violation. Output files are written atomically (temp file, then rename) so a
failing run never leaves a partial artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import netlist
from .cse import CseFormatError, CseResult, bu_cse, find_counterexample, format_cse, no_cse, parse_cse, td_cse
from .matrices import TernaryMatrix, format_tmx, load_fmx, load_tmx, read_ascii
from .network import NetworkFormatError, NetworkSpec, load_network, parse_scale_shift
from .pipeline import load_img, op_count, simulate, throughput_model
from .ternarize import sparsity_sweep, ternarize, threshold
from .treegen import (
    GraphValidationError,
    area_slice_estimate,
    build_tree,
    cost,
    name_error,
    schedule_serial,
)

USAGE_ERROR, INPUT_ERROR, INTERNAL_ERROR = 1, 2, 3

# an unreadable or unwritable path, or any malformed input (every format
# error is a ValueError)
_INPUT_ERRORS = (OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _atomic_write(path: str, data: str | bytes) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".ternroll-")
        try:
            with os.fdopen(fd, mode) as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:  # name the path given, not the temporary file
        raise OSError(e.errno, e.strerror, path) from e


def _run_cse(method: str, m: TernaryMatrix) -> CseResult:
    if method == "td":
        return td_cse(m)
    if method == "bu":
        return bu_cse(m)
    if method == "none":
        return no_cse(m)
    raise ValueError(f"unknown cse method {method!r}")


def _build_graph(result: CseResult, arity: int, interval: int, align: bool, name: str):
    if arity == 3 and interval > 1:
        raise ValueError("3-input adders cannot be scheduled word- or bit-serial; use --arity 2")
    g = build_tree(result, arity, align_outputs=align, name=name)
    return schedule_serial(g, interval)


def _prove(m, result, what: str) -> None:
    """``result`` computes ``m``'s map exactly (see ``find_counterexample``);
    otherwise ``GraphValidationError`` names the first differing column."""
    e = find_counterexample(m, result)
    if e is not None:
        raise GraphValidationError(f"{what} in column {int(e.argmax())}")


def _compile(m: TernaryMatrix, method: str, arity: int, interval: int, align: bool, name: str, what: str):
    """``m``'s scheduled adder graph by ``method``, proven by ``_prove``."""
    g = _build_graph(_run_cse(method, m), arity, interval, align, name)
    _prove(m, g, what)
    return g


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ternarize(args) -> int:
    w = load_fmx(args.infile)
    t, s = ternarize(w, args.eps)
    _atomic_write(args.outfile, format_tmx(t))
    print(f"delta={threshold(w, args.eps)!r} s={s!r} sparsity={t.sparsity()!r}")
    return 0


def _cmd_sweep_eps(args) -> int:
    w = load_fmx(args.infile)
    eps = [float(tok) for tok in args.eps.split(",") if tok]
    for e, sp in sparsity_sweep(w, eps):
        print(f"eps={e!r} sparsity={sp!r}")
    return 0


def _cmd_cse(args) -> int:
    m = load_tmx(args.infile)
    result = _run_cse(args.method, m)
    _prove(m, result, "cse result differs from its matrix")
    print("verify=ok")
    _atomic_write(args.outfile, format_cse(result))
    print(
        f"extractions={result.stats.extractions} terms={result.stats.total_terms} "
        f"defs={len(result.ids)}"
    )
    return 0


def _check_name(name: str) -> None:
    """Refuse a ``--name`` the graph would refuse, before any work."""
    why = name_error(name)
    if why:
        raise ValueError(f"--name: {why}")


def _cmd_tree(args) -> int:
    _check_name(args.name)
    result = parse_cse(read_ascii(args.infile, CseFormatError), n_inputs=args.inputs)
    g = _build_graph(result, args.arity, args.interval, not args.no_align, args.name)
    _prove(result, g, "adder graph differs from its listing")
    _atomic_write(args.outfile, netlist.emit(g))
    _print_cost(g)
    return 0


def _cmd_emit(args) -> int:
    _check_name(args.name)
    m = load_tmx(args.infile)
    g = _compile(m, args.method, args.arity, args.interval, not args.no_align, args.name,
                 "adder graph differs from its matrix")
    _atomic_write(args.outfile, netlist.emit(g))
    _print_cost(g)
    return 0


def _print_cost(g) -> None:
    c = cost(g)
    print(f"{'Adders':>8} {'Regs':>8} {'Adds+Regs':>10} {'Depth':>6} {'Digits':>7} {'Slices':>8}")
    print(
        f"{c.adders:>8} {c.registers:>8} {c.adds_plus_regs:>10} {c.depth:>6} "
        f"{g.digits:>7} {area_slice_estimate(g):>8.2f}"
    )


def _cmd_stats(args) -> int:
    g = netlist.load(args.infile)
    _print_cost(g)
    return 0


def _load_matrices(net: NetworkSpec, directory: str) -> dict[int, TernaryMatrix]:
    """The ``layerNN.tmx`` weights of the Conv and Dense layers, each of its
    layer's weight shape."""
    matrices = {}
    for idx, layer in enumerate(net.layers):
        if layer.kind in ("Conv", "Dense"):
            path = os.path.join(directory, f"layer{idx:02d}.tmx")
            m = matrices[idx] = load_tmx(path)
            rows, cols = layer.weight_shape
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError(
                    f"{path}: weights are {m.rows}x{m.cols}, {layer.kind} layer {idx} needs {rows}x{cols}"
                )
    return matrices


def _load_weights(net: NetworkSpec, directory: str) -> dict:
    """The matrices plus the ``layerNN.json`` constants of the ScaleShift layers."""
    weights: dict[int, object] = _load_matrices(net, directory)
    for idx, layer in enumerate(net.layers):
        if layer.kind == "ScaleShift":
            path = os.path.join(directory, f"layer{idx:02d}.json")
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
            try:
                weights[idx] = parse_scale_shift(text)
            except NetworkFormatError as e:
                raise NetworkFormatError(f"{path}: {e}") from e
    return weights


def _explain(net_path: str, keys: list[tuple[str, object, str]]) -> None:
    print(f"network = {net_path}")
    for name, value, source in keys:
        print(f"{name} = {value} (from {source})")


def _cmd_report_throughput(args) -> int:
    net = load_network(args.netfile)
    clock_src = "default"
    if args.clock is not None:
        net = NetworkSpec(net.layers, args.clock, net.act_format, net.scale_format)
        clock_src = "flag"
    elif net.clock_hz:
        clock_src = "network file"
    if args.explain_config:
        _explain(
            args.netfile,
            [
                ("clock_hz", net.clock_hz, clock_src),
                ("act_format", net.act_format, "network file"),
                ("scale_format", net.scale_format, "network file"),
            ],
        )
        return 0
    rep = throughput_model(net)
    print(f"{'block':>5} {'kind':<11} {'image':<12} output")
    for b in rep.blocks:
        shape = f"{b.out_width}x{b.out_width}x{b.out_channels}" if b.out_width > 1 else f"{b.out_channels}"
        cyc = "cycle" if b.cycles == 1 else f"{b.cycles} cycles"
        print(f"{b.index:>5} {b.kind:<11} {shape:<12} {b.values} values every {cyc}")
    print(f"pipeline latency ~= {rep.latency_cycles} cycles (analytic estimate)")
    for idx, hw in sorted(rep.fifo_high_water.items()):
        print(f"fifo {idx} high-water ~= {hw} values (analytic estimate)")
    # below one frame a second the whole-frame count reads 0: give the rate
    fps = rep.frames_per_sec if rep.frames_per_sec >= 1 else float(rep.fps_exact)
    print(f"{fps} frames/sec")
    return 0


def _cmd_report_ops(args) -> int:
    net = load_network(args.netfile)
    weights = _load_matrices(net, args.weights) if args.weights else None
    cse_costs = None
    if args.with_cse:
        intervals = net.inferred_intervals()
        cse_costs = {}
        for i, layer in enumerate(net.layers):
            if layer.kind == "Conv":
                g = _compile(weights[i], args.method, args.arity, intervals[i], True, "",
                             f"layer {i}: adder graph differs from its matrix")
                cse_costs[i] = cost(g).adds_plus_regs
    table = op_count(net, weights, cse_costs)
    print(f"{'Layer':<8} {'Formula':<22} {'MACs':>12} {'WithSparsity':>14} {'WithCSE':>12}")
    for r in table.rows:
        sp = str(r.sparse_macs) if r.sparse_macs is not None else "-"
        cs = str(r.cse_ops) if r.cse_ops is not None else "-"
        print(f"{r.name:<8} {r.formula:<22} {r.dense_macs:>12} {sp:>14} {cs:>12}")
    tsp = str(table.total_sparse) if table.total_sparse is not None else "-"
    tcs = str(table.total_cse) if table.total_cse is not None else "-"
    print(f"{'Total':<8} {'':<22} {table.total_dense:>12} {tsp:>14} {tcs:>12}")
    return 0


def _cmd_simulate(args) -> int:
    net = load_network(args.netfile)
    if args.explain_config:
        _explain(
            args.netfile,
            [
                ("clock_hz", net.clock_hz, "network file"),
                ("act_format", net.act_format, "network file"),
                ("scale_format", net.scale_format, "network file"),
                ("weights", args.weights, "flag"),
            ],
        )
        return 0
    weights = _load_weights(net, args.weights)
    for image_path in args.images:
        res = simulate(net, weights, load_img(image_path))
        line = "\t".join(str(v) for v in res.scores)
        print(f"{line}\targmax={res.argmax}")
        if res.saturations:
            print(f"# saturations={res.saturations}", file=sys.stderr)
    return 0


def make_parser() -> _Parser:
    p = _Parser(prog="ternroll", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ternarize", help="threshold-quantize an fmx weight matrix to trits")
    q.add_argument("--eps", type=float, required=True, help="threshold control (>= 0)")
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(fn=_cmd_ternarize)

    q = sub.add_parser("sweep-eps", help="sparsity for a list of threshold controls")
    q.add_argument("--eps", required=True, help="comma-separated ascending values")
    q.add_argument("infile")
    q.set_defaults(fn=_cmd_sweep_eps)

    q = sub.add_parser("cse", help="extract shared subexpressions from a tmx matrix")
    q.add_argument("--method", choices=("td", "bu"), required=True)
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(fn=_cmd_cse)

    q = sub.add_parser("tree", help="build a pipelined adder netlist from a .cse listing")
    q.add_argument("--arity", type=int, choices=(2, 3), default=2)
    q.add_argument("--interval", type=int, default=1, help="cycles between samples (digit schedule)")
    q.add_argument("--inputs", type=int, default=None, help="input count when not inferable")
    q.add_argument("--no-align", action="store_true", help="do not pad outputs to a common stage")
    q.add_argument("--name", default="")
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(fn=_cmd_tree)

    q = sub.add_parser("emit", help="tmx straight to netlist (cse + tree + emit)")
    q.add_argument("--method", choices=("td", "bu", "none"), default="bu")
    q.add_argument("--arity", type=int, choices=(2, 3), default=2)
    q.add_argument("--interval", type=int, default=1)
    q.add_argument("--no-align", action="store_true")
    q.add_argument("--name", default="")
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(fn=_cmd_emit)

    q = sub.add_parser("stats", help="cost report for an emitted netlist")
    q.add_argument("infile")
    q.set_defaults(fn=_cmd_stats)

    q = sub.add_parser("simulate", help="run images through a network bit-exactly")
    q.add_argument("netfile")
    q.add_argument("images", nargs="*", default=[])
    q.add_argument("--weights", required=False, help="directory of layerNN.tmx / layerNN.json")
    q.add_argument("--explain-config", action="store_true")
    q.set_defaults(fn=_cmd_simulate)

    q = sub.add_parser("report-ops", help="per-layer MAC/op accounting table")
    q.add_argument("netfile")
    q.add_argument("weights", nargs="?", default=None, help="directory of layerNN.tmx files")
    q.add_argument("--with-cse", action="store_true", help="also run extraction per layer")
    q.add_argument("--method", choices=("td", "bu", "none"), default="bu")
    q.add_argument("--arity", type=int, choices=(2, 3), default=2)
    q.set_defaults(fn=_cmd_report_ops)

    q = sub.add_parser("report-throughput", help="rate cascade and frames/sec")
    q.add_argument("netfile")
    q.add_argument("--clock", type=float, default=None, help="override the network clock (Hz)")
    q.add_argument("--explain-config", action="store_true")
    q.set_defaults(fn=_cmd_report_throughput)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not args.explain_config:
        if not args.weights:
            parser.error("simulate requires --weights")
        if not args.images:
            parser.error("simulate requires at least one image")
    if args.command == "report-ops" and args.with_cse and not args.weights:
        parser.error("report-ops --with-cse requires a weights directory")
    try:
        return args.fn(args)
    except (GraphValidationError, AssertionError, RuntimeError) as e:
        print(f"ternroll: internal error: {e}", file=sys.stderr)
        return INTERNAL_ERROR
    except _INPUT_ERRORS as e:
        print(f"ternroll: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
