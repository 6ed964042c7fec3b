"""ternroll benchmark: compile-cse, compile-flat and simulate workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile-cse --seed 1 --seconds 30 --trace 0

Inputs are drawn from ``--seed``. Rounds of the workload's operation run
until the next one would end after ``--seconds``. Every output is
checked by an oracle outside the timed region. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. The full report, with provenance,
fingerprints and (traced) spans, is written to ``perfbench/out/``.

``--smoke`` runs tiny shapes in seconds. The exit code is 0 when every
output was correct, 1 when one was not, and 2 when the program cannot be
run.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
from spans import NullTracer, Tracer, duration, module_self_time

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

COMPILE_CSE_LAYERS = ("conv1", "conv2")
CONV_LAYERS = tuple(f"conv{i}" for i in range(1, 7))
METHODS = ("td", "bu", "none")
BLOCKS = ("window", "conv", "scale_shift", "max_pool", "dense")
MODULES = ("cse", "treegen", "netlist", "pipeline", "bench")

END_TO_END = {
    "setup_s": "s",
    "op_s_mean": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    units = {"ternarize.s": "s"}
    units |= {f"ternarize.zeros.{L}": "ratio" for L in CONV_LAYERS}
    units |= {f"cse.terms_in.{L}": "count" for L in CONV_LAYERS}
    for m in ("td", "bu"):
        for L in COMPILE_CSE_LAYERS:
            units[f"cse.{m}.s.{L}"] = "s"
            units[f"cse.{m}.extractions.{L}"] = "count"
            units[f"cse.{m}.terms.{L}"] = "count"
            units[f"cse.{m}.saved_per_extraction.{L}"] = "ratio"
    units["cse.none.s"] = "s"
    for m in METHODS:
        units[f"treegen.{m}.s"] = "s"
        units[f"netlist.{m}.emit_s"] = "s"
        for what in ("adders", "regs", "adds_regs", "nodes"):
            units[f"treegen.{m}.{what}"] = "count"
        for L in COMPILE_CSE_LAYERS if m != "none" else CONV_LAYERS:
            units[f"treegen.{m}.depth.{L}"] = "count"
        units[f"netlist.{m}.parse_s"] = "s"
        units[f"netlist.{m}.bytes"] = "bytes"
        units[f"treegen.{m}.eval_s"] = "s"
    units["pipeline.simulate_s"] = "s"
    units |= {f"pipeline.{b}_s": "s" for b in BLOCKS}
    units["pipeline.saturations"] = "count"
    units["pipeline.model_s"] = "s"
    units["pipeline.model_fps"] = "1/s"
    units["pipeline.model_latency_cycles"] = "count"
    units |= {f"{mod}.self_s": "s" for mod in MODULES}
    units["trace.overhead"] = "ratio"
    units["fail_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ternroll sources."""


def import_program() -> None:
    """Import ternroll from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ternroll" / "__init__.py").is_file():
        raise ProgramMissing(f"no ternroll sources under {src}")
    sys.path.insert(0, str(src))
    import ternroll

    if Path(ternroll.__file__).resolve().parent != src / "ternroll":
        raise ProgramMissing(f"imported ternroll from {ternroll.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Provenance


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ternroll").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> tuple[str, str]:
    """BLAS library and its thread count, as far as numpy's build says."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance(seed: int, size: str) -> dict:
    blas, threads = _blas()
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
        "size": size,
        "hardware_model": "unvalidated: the repository holds no hardware reference, so no error figure is given",
    }


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest value, its percentile and the sample count. Below 21 samples that
    percentile is under the median, so the maximum is given, as p100."""
    n = len(values)
    ordered = sorted(values)
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between the two nearest samples.
    Unlike ``tail`` it is defined at every sample count, so it does not jump
    to the maximum when a slow stretch fits fewer than 21 rounds in a run."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def block_mean(rounds: list[dict], key: str) -> float:
    """Mean of ``key`` per round, each row block weighted alike: the mean of
    the per-block means, so a run that stops part way through the blocks
    does not lean towards the ones it saw more often."""
    by_block: dict[int, list[float]] = {}
    for r in rounds:
        by_block.setdefault(r.get("block", 0), []).append(r[key])
    return statistics.fmean(statistics.fmean(v) for v in by_block.values())


def label_of(key: str, prefix: str) -> str:
    """The layer of a count key: ``treegen.td.depth.conv2.rows0-15`` with
    prefix ``treegen.td.depth.`` gives ``conv2``."""
    return key[len(prefix) :].split(".", 1)[0]


def layer_counts(counts: dict, prefix: str, layer: str) -> list[float]:
    """The counts of one layer, one per row block it was compiled in."""
    return [v for k, v in counts.items() if k.startswith(prefix) and label_of(k, prefix) == layer]


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setups: list[float], rounds: list[dict]) -> dict:
    """The bounded metrics."""
    ops = [r["op_s"] for r in rounds]
    metrics = {
        "setup_s": median(setups),
        "op_s_mean": block_mean(rounds, "op_s"),
        "op_s_p90": p90(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics


def workload_report(
    workload: str,
    e2e: dict,
    setups: list[float],
    setup_walls: list[float],
    rounds: list[dict],
    tally,
    kernel_s: list[float],
) -> list[tuple]:
    """Every end-to-end figure by name, the workload-specific ones included:
    (name, value, unit, note)."""
    n = len(rounds)
    p50 = median(r["op_s"] for r in rounds)
    t, pct, _ = tail([r["op_s"] for r in rounds])
    lines = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(setups)} set-ups, reference seconds"),
        ("setup_wall_s", median(setup_walls), "s", f"median of {len(setups)} set-ups, wall clock"),
        ("op_s_mean", e2e["op_s_mean"], "s", f"n={n}, reference seconds"),
        ("op_wall_s_mean", block_mean(rounds, "wall_s"), "s", f"n={n}, wall clock"),
        ("op_s_p50", p50, "s", f"n={n}"),
        ("op_s_p90", e2e["op_s_p90"], "s", f"n={n}"),
        ("op_s_tail", t, "s", f"p{pct:.1f}, n={n}"),
        ("kernel_s", median(kernel_s), "s", f"calibration kernel, median of {len(kernel_s)}; reference {calibrate.REFERENCE_S}"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MiB", "this process; netlist proofs run in a forked child"),
        ("fail_ratio", tally.failed / max(tally.attempted, 1), "ratio", f"{tally.failed} failed / {tally.attempted} attempted"),
    ]
    if workload == "simulate":
        return lines + [
            ("sim_img_per_s", 1 / e2e["op_s_mean"], "1/s", f"{n} images, closed loop, 1 client"),
            ("sim_ms_p50", 1e3 * p50, "ms", f"n={n}"),
            ("sim_ms_tail", 1e3 * t, "ms", f"p{pct:.1f}, n={n}"),
        ]
    methods = [m for m in METHODS if f"compile_{m}_s" in rounds[0]]
    for m in methods:
        lines.append((f"compile_{m}_s", block_mean(rounds, f"compile_{m}_s"), "s", f"mean of {n} rounds"))
    for m in methods:
        total = sum(v for k, v in tally.counts.items() if k.startswith((f"treegen.{m}.adders.", f"treegen.{m}.regs.")))
        lines.append((f"adds_regs_{m}", total, "count", "exact"))
    proved = [r["verify_s"] for r in rounds if r["proofs"]]
    lines.append(("verify_s", median(proved), "s", f"parse + prove every netlist, median of {len(proved)} rounds"))
    return lines


def per_layer(workload: str, spans: list[dict], rounds: list[dict], tally, inp) -> dict:
    """Every per-layer metric; those of layers the workload skips read 0."""
    from ternroll import throughput_model

    m = dict.fromkeys(PER_LAYER, 0.0)
    names = {name: idx for idx, name in inp.names.items()}
    for L in CONV_LAYERS:
        t = inp.weights[names[L]]
        m[f"ternarize.zeros.{L}"] = t.sparsity()
        m[f"cse.terms_in.{L}"] = int((t.entries != 0).sum())

    traced = [k for k, r in enumerate(rounds) if r["traced"]]
    setups = sorted({rec["round"] for rec in spans if rec["round"] < 0})

    def per_round(match, keys=traced) -> float:
        """Median over traced rounds (or set-ups) of the summed duration of
        matching spans."""
        sums = dict.fromkeys(keys, 0.0)
        for rec in spans:
            if rec["round"] in sums and match(rec):
                sums[rec["round"]] += duration(rec)
        return median(sums.values())

    m["ternarize.s"] = per_round(lambda r: r["name"] == "ternarize.ternarize", setups)

    counts = tally.counts
    for meth in METHODS:
        if not any(k.startswith(f"treegen.{meth}.adders.") for k in counts):
            continue  # the workload does not compile with this method
        for what in ("adders", "regs", "nodes"):
            m[f"treegen.{meth}.{what}"] = sum(v for k, v in counts.items() if k.startswith(f"treegen.{meth}.{what}."))
        m[f"treegen.{meth}.adds_regs"] = m[f"treegen.{meth}.adders"] + m[f"treegen.{meth}.regs"]
        m[f"netlist.{meth}.bytes"] = sum(v for k, v in counts.items() if k.startswith(f"netlist.{meth}.bytes."))
        for L in CONV_LAYERS:
            depths = layer_counts(counts, f"treegen.{meth}.depth.", L)
            if depths:
                m[f"treegen.{meth}.depth.{L}"] = max(depths)
        is_meth = lambda rec, meth=meth: rec.get("method") == meth  # noqa: E731
        m[f"treegen.{meth}.s"] = per_round(lambda r: r["name"] in ("treegen.build_tree", "treegen.schedule_serial") and is_meth(r))
        m[f"netlist.{meth}.emit_s"] = per_round(lambda r: r["name"] == "netlist.emit" and is_meth(r))
        m[f"netlist.{meth}.parse_s"] = per_round(lambda r: r["name"] == "netlist.parse" and is_meth(r))
        m[f"treegen.{meth}.eval_s"] = per_round(lambda r: r["name"] == "treegen.evaluate_batch" and is_meth(r))
        if meth == "none":
            m["cse.none.s"] = per_round(lambda r: r["name"] == "cse.none")
            continue
        for L in COMPILE_CSE_LAYERS:
            m[f"cse.{meth}.s.{L}"] = per_round(lambda r, L=L: r["name"] == f"cse.{meth}" and r.get("layer") == L)
            ext = sum(layer_counts(counts, f"cse.{meth}.extractions.", L))
            terms = sum(layer_counts(counts, f"cse.{meth}.terms.", L))
            m[f"cse.{meth}.extractions.{L}"] = ext
            m[f"cse.{meth}.terms.{L}"] = terms
            m[f"cse.{meth}.saved_per_extraction.{L}"] = (m[f"cse.terms_in.{L}"] - terms) / ext if ext else 0.0

    if workload == "simulate":
        m["pipeline.simulate_s"] = per_round(lambda r: r["name"] == "pipeline.simulate")
        for b in BLOCKS:
            m[f"pipeline.{b}_s"] = per_round(lambda r, b=b: r["name"] == f"pipeline.{b}")
        m["pipeline.saturations"] = sum(v for k, v in counts.items() if k.startswith("pipeline.saturations."))
        model = throughput_model(inp.net)
        m["pipeline.model_latency_cycles"] = model.latency_cycles
        m["pipeline.model_s"] = model.latency_cycles / inp.net.clock_hz
        m["pipeline.model_fps"] = float(model.fps_exact)

    selfs = module_self_time(spans, under="bench.op")
    for mod in MODULES:
        m[f"{mod}.self_s"] = selfs.get(mod, 0.0) / max(len(traced), 1)
    m["trace.overhead"] = trace_overhead(rounds)[0]
    m["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    return m


def trace_overhead(rounds: list[dict]) -> tuple[float, int]:
    """Median over pairs of traced / untraced time, minus 1, and the number
    of pairs. A pair is the j-th plain and the j-th traced round, which run
    back to back on the same row block."""
    plain = [r["op_s"] for r in rounds if not r["traced"]]
    traced = [r["op_s"] for r in rounds if r["traced"]]
    ratios = [t / p for p, t in zip(plain, traced)]
    return (median(ratios) - 1 if ratios else 0.0), len(ratios)


# ---------------------------------------------------------------------------
# Command line


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("compile-cse", "compile-flat", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot run the program: {e}", file=sys.stderr)
        return 2
    # These harness modules import ternroll, so they load once it is on the path.
    import inputs
    from workloads import WORKLOADS, Tally

    size = inputs.SMOKE if args.smoke else inputs.FULL
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    null = NullTracer()

    # Every timed stretch is scaled to reference seconds by the calibration
    # kernel's time just before and just after it (see calibrate.py). A
    # set-up is short, so it takes three kernel runs on each side.
    setup_clock = calibrate.Clock(3)
    setups, setup_walls = [], []
    for i in range(size.setup_repeats):
        tracer.round = -1 - i
        inp = None  # not kept while the next set-up runs, so it does not set the memory peak
        gc.collect()
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            inp = inputs.build(size, args.seed, tracer)
        setup_walls.append(perf_counter() - t0)
        setups.append(setup_clock.scale(setup_walls[-1]))

    clock = calibrate.Clock(workload.calibration_repeats)
    tally = Tally()
    # Traced rounds alternate with plain ones, so a traced run needs twice the rounds.
    min_rounds = workload.min_rounds(inp) * (2 if args.trace else 1)
    walls: list[float] = []
    start = perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        tr = tracer if traced else null
        if traced:
            tracer.round = k
        j = k // 2 if args.trace else k  # the round's index among rounds of its kind
        t0 = perf_counter()
        with tr.span("bench.round"):
            rec = workload.round(j, inp, tr, tally, clock)
        walls.append(perf_counter() - t0)
        rec["traced"] = traced
        tally.rounds.append(rec)
        k += 1
        if k >= min_rounds and perf_counter() - start + median(walls) > args.seconds:
            break

    plain = [r for r in tally.rounds if not r["traced"]]
    e2e = end_to_end(setups, plain)
    report = workload_report(args.workload, e2e, setups, setup_walls, plain, tally, clock.kernel_s)
    prov = provenance(args.seed, size.name)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(tally.rounds)}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, value, unit, note in report:
        print(f"{name:<16} {value!r:>24} {unit:<6} {note}")
    for name, digest in sorted(tally.fingerprints.items()):
        print(f"fingerprint {name} {digest}")
    if args.trace:
        overhead, pairs = trace_overhead(tally.rounds)
        print(f"{'trace.overhead':<16} {overhead!r:>24} {'ratio':<6} median of {pairs} plain/traced round pairs")
    for err in tally.errors[:20]:
        print(f"FAILED {err}")
    if len(tally.errors) > 20:
        print(f"FAILED ... {len(tally.errors) - 20} more, listed in the report file")

    if args.trace:
        metrics = per_layer(args.workload, tracer.spans, tally.rounds, tally, inp)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    out = {
        "workload": args.workload,
        "args": vars(args),
        "provenance": prov,
        "report": [{"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in report],
        "metrics": metrics,
        "fingerprints": tally.fingerprints,
        "counts": tally.counts,
        "errors": tally.errors,
        "rounds": tally.rounds,
        "spans": tracer.spans if args.trace else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(out, indent=1, default=str))

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
