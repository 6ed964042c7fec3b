"""The three workloads. Each runs rounds of one operation: the part a user
waits for is timed, and the oracle that checks it runs after, untimed.

- ``compile-cse``: conv1 and a quarter of conv2's rows, each compiled with
  ``td`` and ``bu``: cse, ``build_tree`` (arity 2), ``schedule_serial`` at
  the layer's pixel interval, ``netlist.emit``. One round is all four
  compiles; the quarter of conv2 moves on by one each round.
- ``compile-flat``: a quarter of the rows of each of the six conv layers,
  compiled with method ``none``. One round is six compiles; the quarter
  moves on by one each round.
- ``simulate``: one image through the full network per round, closed loop:
  the next image starts when the previous one returns.

A netlist is proven once per run: a later round that emits the same bytes
is accepted by its digest, except in traced rounds, which prove again so
that parse and evaluation are measured.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ternroll import TernaryMatrix, build_tree, bu_cse, cost, emit_netlist, no_cse, schedule_serial, simulate, td_cse
from ternroll.cse import format_cse

import oracles

CSE = {"td": td_cse, "bu": bu_cse, "none": no_cse}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Tally:
    """What one run measured and checked, round by round."""

    rounds: list[dict] = field(default_factory=list)  # per round: timings, "traced"
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)  # exact, per run
    references: dict = field(default_factory=dict)  # oracle results, computed once
    proven: set = field(default_factory=set)  # digests of netlists the oracle accepted

    def check(self, ok: bool, what: str, fingerprints: dict[str, bytes], counts: dict[str, float]) -> None:
        """Count one checked output. It fails if the oracle rejected it, or if
        an earlier round produced different bytes or counts for it."""
        for name, payload in fingerprints.items():
            digest = sha256(payload)
            if self.fingerprints.setdefault(name, digest) != digest:
                ok = False
                what = f"{what}: {name} differs from an earlier round"
        for name, value in counts.items():
            if self.counts.setdefault(name, value) != value:
                ok = False
                what = f"{what}: count {name} changed between rounds"
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


@dataclass(frozen=True)
class CompileWorkload:
    """Compile a set of conv layers with a set of CSE methods.

    The layers named in ``split`` are compiled one block of rows per round,
    block ``j % row_blocks`` in a run's ``j``-th plain (or traced) round, so a
    round stays short and a run still covers every row.
    """

    methods: tuple[str, ...]
    n_layers: int  # the first n conv layers
    basis_proof: bool  # prove on the standard basis, else on seeded probes
    split: tuple[str, ...] = ()
    row_blocks: int = 1
    calibration_repeats: int = 3  # kernel runs after each compile

    def min_rounds(self, inp) -> int:
        # Every row block once; else two rounds, so one slow stretch cannot set the figures.
        return max(self.row_blocks, 2)

    def jobs(self, j: int, inp) -> list[tuple[int, str, str, TernaryMatrix]]:
        """(block index in the network, layer name, label, matrix) of each layer
        this round compiles; the label names the rows of a split layer."""
        out = []
        for idx in inp.conv_indices()[: self.n_layers]:
            name, m = inp.names[idx], inp.weights[idx]
            if name in self.split:
                n = m.rows // self.row_blocks
                lo = (j % self.row_blocks) * n
                out.append((idx, name, f"{name}.rows{lo}-{lo + n - 1}", TernaryMatrix(m.entries[lo : lo + n])))
            else:
                out.append((idx, name, name, m))
        return out

    def round(self, j: int, inp, tracer, tally: Tally, clock) -> dict:
        rec = {"op_s": 0.0, "wall_s": 0.0, "verify_s": 0.0, "proofs": 0, "block": j % self.row_blocks}
        rec |= {f"compile_{m}_s": 0.0 for m in self.methods}
        for idx, name, label, m in self.jobs(j, inp):
            layer = inp.net.layers[idx]
            for method in self.methods:
                attrs = {"method": method, "layer": name}
                gc.collect()
                t0 = perf_counter()
                with tracer.span("bench.op", **attrs):
                    with tracer.span(f"cse.{method}", **attrs):
                        result = CSE[method](m)
                    with tracer.span("treegen.build_tree", **attrs):
                        g = build_tree(result, 2)
                    with tracer.span("treegen.schedule_serial", **attrs):
                        g = schedule_serial(g, layer.pixel_interval)
                    with tracer.span("netlist.emit", **attrs):
                        text = emit_netlist(g)
                wall = perf_counter() - t0
                dt = clock.scale(wall)
                rec["wall_s"] += wall
                rec["op_s"] += dt
                rec[f"compile_{method}_s"] += dt

                c = cost(g)
                counts = {
                    f"cse.{method}.extractions.{label}": result.stats.extractions,
                    f"cse.{method}.terms.{label}": result.stats.total_terms,
                    f"treegen.{method}.adders.{label}": c.adders,
                    f"treegen.{method}.regs.{label}": c.registers,
                    f"treegen.{method}.nodes.{label}": len(g.nodes),
                    f"treegen.{method}.depth.{label}": c.depth,
                    f"netlist.{method}.bytes.{label}": len(text),
                }
                cse_text = format_cse(result)
                del result, g

                digest = sha256(text.encode())
                if digest in tally.proven and not tracer.enabled:
                    ok = True  # byte-identical to a netlist proven earlier in this run
                else:
                    t0 = perf_counter()
                    with tracer.span("bench.verify", **attrs):
                        xs = np.eye(m.cols, dtype=np.int64) if self.basis_proof else inp.probes[idx]
                        if tracer.enabled:  # in this process, so the spans of parse and evaluation are kept
                            ok = oracles.prove_netlist(text, m.entries, xs, tracer, **attrs)
                        else:
                            ok = oracles.forked(oracles.prove_netlist, text, m.entries, xs, tracer)
                    rec["verify_s"] += perf_counter() - t0
                    rec["proofs"] += 1
                    if ok:
                        tally.proven.add(digest)

                tally.check(
                    ok,
                    f"{method} netlist of {label} is not entries @ x",
                    {f"cse.{method}.{label}": cse_text.encode(), f"ngl.{method}.{label}": text.encode()},
                    counts,
                )
        return rec


class SimulateWorkload:
    """Closed loop of images through the full network, one per round."""

    calibration_repeats = 1  # kernel runs after each image, about 7% of a round

    def min_rounds(self, inp) -> int:
        return len(inp.images)  # every image of the pool at least once

    def round(self, j: int, inp, tracer, tally: Tally, clock) -> dict:
        i = j % len(inp.images)
        img = inp.images[i]
        t0 = perf_counter()
        with tracer.span("bench.op", image=i):
            with tracer.span("pipeline.simulate", image=i):
                res = simulate(inp.net, inp.weights, img)
        wall = perf_counter() - t0
        dt = clock.scale(wall)

        t0 = perf_counter()
        with tracer.span("bench.verify", image=i):
            if i not in tally.references:
                tally.references[i] = oracles.reference_scores(inp.net, inp.weights, img.data)
            want, want_sat = tally.references[i]
            scores = np.array(res.scores, dtype=np.int64)
            ok = np.array_equal(scores, want) and res.saturations == want_sat
            ok = ok and res.argmax == int(np.flatnonzero(want == want.max())[0])
            if tracer.enabled:
                replayed = oracles.replay_blocks(inp.net, inp.weights, img, tracer)
                ok = ok and replayed == res.scores
        verify = perf_counter() - t0
        tally.check(
            ok,
            f"scores of image {i} differ from the reference",
            {f"scores.img{i:02d}": scores.tobytes() + str(res.saturations).encode()},
            {f"pipeline.saturations.img{i:02d}": res.saturations},
        )
        return {"op_s": dt, "wall_s": wall, "verify_s": verify}


WORKLOADS = {
    "compile-cse": CompileWorkload(("td", "bu"), n_layers=2, basis_proof=True, split=("conv2",), row_blocks=4),
    "compile-flat": CompileWorkload(
        ("none",), n_layers=6, basis_proof=False, split=tuple(f"conv{i}" for i in range(1, 7)), row_blocks=4
    ),
    "simulate": SimulateWorkload(),
}
