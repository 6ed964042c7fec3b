"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).

Criterion 5 is split: the dense-MAC column is computed and checked cell by
cell (passes), and the printed grand total is asserted verbatim in its own
test, which fails: the source table's Dense row prints 524,228 for 4096*128,
which is 524,288, so the printed total is short by 60. See the project notes
for the analysis; the arithmetic here is not bent to match the misprint.
"""

import functools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ternroll import (
    ImageStream,
    SaturationCounter,
    TernaryMatrix,
    bu_cse,
    build_tree,
    cost,
    evaluate_batch,
    no_cse,
    op_count,
    schedule_serial,
    simulate,
    td_cse,
    ternarize,
    throughput_model,
    vgg7_cifar10,
)
from ternroll.matrices import FloatMatrix
from ternroll.netlist import emit, parse
from ternroll.pipeline import patch_matrix
from ternroll.ternarize import sparsity_sweep, threshold

from . import cse_rows, straightline_ref
from .basis import evaluate
from .pipeline_ref import WindowBuffer
from .serial_ref import evaluate_serial, serial_sum
from .test_pipeline import gather_oracle, tiny_net, tiny_weights
from .trits import random_ternary


@contextmanager
def report(name: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s budget: {elapsed:.2f}s"


def test_c01_worked_example_golden(m7x6):
    with report("C1 worked 7x6 extraction example", 1.0):
        trace = []
        r = td_cse(m7x6, max_extractions=1, trace=trace)
        assert trace[0].pattern == ((2, 1), (3, 1))
        assert trace[0].occurrences == 3
        assert cse_rows.rows(r)[1] == [
            ((6, 1),),
            ((0, 1), (4, 1), (6, 1)),
            ((1, 1), (4, 1), (5, 1)),
            ((1, 1), (5, 1)),
            ((0, 1), (6, 1)),
            ((0, 1), (3, 1)),
            ((1, 1), (4, 1), (5, 1)),
        ]
        bu_trace = []
        r2 = bu_cse(m7x6, max_extractions=1, trace=bu_trace)
        assert bu_trace[0].pattern == ((0, 1), (2, 1), (3, 1))
        # the pattern was appended as a working row: both containing rows now
        # reference it and the body is the new definition
        defs, outs = cse_rows.rows(r2)
        assert defs[0][0] == 6
        assert defs[0][1] == ((0, 1), (2, 1), (3, 1))
        assert outs[1] == ((4, 1), (6, 1))
        assert outs[4] == ((6, 1),)
        assert outs[0] == ((2, 1), (3, 1))


def test_c02_filter_tree_golden(filter_matrix):
    with report("C2 example filter tree", 1.0):
        g = build_tree(no_cse(filter_matrix), 2)
        unit = np.eye(9, dtype=np.int64)
        coeffs = evaluate_batch(g, unit)[0].tolist()
        assert coeffs == [-1, 0, 1, 0, 1, 1, 0, -1, 0]  # z0 = -a+c+e+f-h
        assert evaluate(g, range(1, 10)) == [5]


def _shape_plan(rng):
    shapes = []
    for _ in range(140):
        shapes.append((int(rng.integers(1, 11)), int(rng.integers(2, 13))))
    for _ in range(40):
        shapes.append((int(rng.integers(4, 25)), int(rng.integers(13, 49))))
    for _ in range(16):
        shapes.append((int(rng.integers(8, 65)), int(rng.integers(49, 145))))
    shapes += [(32, 288), (48, 432), (24, 200), (64, 576)]
    return shapes


@functools.lru_cache(maxsize=1)
def _exhaustive_chunks(cols, chunk=1 << 16):
    """All 3**cols trit vectors as columns, in read-only chunks; kept for the
    last column count, since each matrix's twelve graphs read the same ones."""
    n = 3**cols
    digits = 3 ** np.arange(cols, dtype=np.int64)
    chunks = []
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=np.int64)
        xs = ((idx[:, None] // digits[None, :]) % 3 - 1).T
        xs.flags.writeable = False
        chunks.append(xs)
    return tuple(chunks)


def test_c03_equivalence_suite():
    with report("C3 equivalence suite (200 matrices x methods x arities x schedules)", 600.0):
        rng = np.random.default_rng(3)
        shapes = _shape_plan(rng)
        assert len(shapes) >= 200
        for rows, cols in shapes:
            sparsity = float(rng.uniform(0.5, 0.9))
            m = random_ternary(rows, cols, sparsity, rng)
            want_rand = None
            xs_rand = rng.integers(-(2**15), 2**15, size=(cols, 1000), dtype=np.int64)
            want_rand = m.entries.astype(np.int64) @ xs_rand
            for method in (td_cse, bu_cse):
                r = method(m)
                for arity in (2, 3):
                    g0 = build_tree(r, arity)
                    for interval in (1, 4, 16):
                        g = schedule_serial(g0, interval)
                        got = evaluate_batch(g, xs_rand)
                        assert np.array_equal(got, want_rand), (rows, cols, method, arity, interval)
                        if cols <= 12:
                            for xs in _exhaustive_chunks(cols):
                                assert np.array_equal(
                                    evaluate_batch(g, xs), m.entries.astype(np.int64) @ xs
                                )
                    if cols <= 12:
                        # digit-serial arithmetic agrees with the wide result
                        # modulo the word size on every schedule
                        for interval in (4, 16):
                            gs = schedule_serial(g0, interval)
                            x = rng.integers(-(2**15), 2**15, size=cols)
                            par = evaluate(gs, x)
                            ser = evaluate_serial(gs, x)
                            assert all((p - s) % (1 << 16) == 0 for p, s in zip(par, ser))


def test_c04_cost_reduction_statistical():
    with report("C4 cost reduction on 10 matrices at 576x64 / 75%", 700.0 * 10):
        rng = np.random.default_rng(4)
        td_reductions = []
        bu_reductions = []
        for _ in range(10):
            m = random_ternary(64, 576, 0.75, rng)
            base = cost(build_tree(no_cse(m), 2)).adds_plus_regs
            t0 = time.perf_counter()
            r_td = td_cse(m)
            td_time = time.perf_counter() - t0
            t0 = time.perf_counter()
            r_bu = bu_cse(m)
            bu_time = time.perf_counter() - t0
            assert td_time < 60.0, f"TD-CSE took {td_time:.1f}s on one matrix"
            assert bu_time < 600.0, f"BU-CSE took {bu_time:.1f}s on one matrix"
            td_reductions.append(1 - cost(build_tree(r_td, 2)).adds_plus_regs / base)
            bu_reductions.append(1 - cost(build_tree(r_bu, 2)).adds_plus_regs / base)
        td_mean = float(np.mean(td_reductions))
        bu_mean = float(np.mean(bu_reductions))
        print(f"  mean Adds+Regs reduction: TD {td_mean:.1%}, BU {bu_mean:.1%}")
        assert td_mean >= 0.30, f"TD mean reduction {td_mean:.1%} < 30%"
        assert bu_mean >= 0.35, f"BU mean reduction {bu_mean:.1%} < 35%"
        assert bu_mean >= td_mean  # larger-pattern extraction finds the better mean


EXPECTED_CONV_MACS = {
    "Conv1": 1_769_472,
    "Conv2": 37_748_736,
    "Conv3": 18_874_368,
    "Conv4": 37_748_736,
    "Conv5": 18_874_368,
    "Conv6": 37_748_736,
}


def test_c05a_op_table_dense_mac_column():
    with report("C5a op table dense-MAC column (computed)", 1.0):
        table = op_count(vgg7_cifar10())
        macs = {r.name: r.dense_macs for r in table.rows}
        for name, want in EXPECTED_CONV_MACS.items():
            assert macs[name] == want
        assert macs["Dense1"] == 4096 * 128  # = 524,288
        assert macs["Dense2"] == 128 * 10
        assert table.total_dense == sum(macs.values()) == 153_289_984


def test_c05b_op_table_total_as_printed():
    with report("C5b op table printed grand total", 1.0):
        table = op_count(vgg7_cifar10())
        assert table.total_dense == 153_289_924, (
            f"computed total {table.total_dense} differs from the printed total "
            "153,289,924 by exactly 60: the source table's Dense cell reads "
            "524,228 while its own formula column says 4096*128 = 524,288. "
            "The computed column is kept honest rather than hard-coding the misprint."
        )


def test_c06_throughput_formula_and_cascade():
    with report("C6 throughput formula and rate cascade", 1.0):
        rep = throughput_model(vgg7_cifar10(125e6))
        assert rep.frames_per_sec == 122_070
        assert rep.fps_exact == Fraction(125_000_000, 1024)
        got = [(b.values, b.cycles) for b in rep.blocks]
        assert got[5] == (64, 1)
        assert got[7] == (64, 4)
        assert got[13] == (128, 4)
        assert got[15] == (128, 16)
        assert got[21] == (256, 16)
        assert got[23] == (256, 64)
        assert got[25] == (4, 1)


def test_c07_serial_adder_equivalence():
    with report("C7 digit-serial vs parallel, 10k pairs incl. subtraction", 10.0):
        rng = np.random.default_rng(7)
        a = rng.integers(-(2**15), 2**15, size=10_000)
        b = rng.integers(-(2**15), 2**15, size=10_000)
        sub = rng.integers(0, 2, size=10_000)
        for digits in (4, 16):
            for x, y, s in zip(a, b, sub):
                sign = -1 if s else 1
                got = serial_sum([(int(x), 1), (int(y), sign)], digits)
                want = (int(x) + sign * int(y)) & 0xFFFF
                if want >= 1 << 15:
                    want -= 1 << 16
                assert got == want


def test_c08_buffer_trace_and_patch_oracle():
    with report("C8 line-buffer trace and patch stream", 5.0):
        img = ImageStream(np.arange(36).reshape(6, 6, 1))
        buf = WindowBuffer(6, 6, 1, 3)
        pixels = list(img.data.reshape(-1, img.channels))
        taps = {}
        for n in range(buf.total_pushes()):
            px = pixels[n] if n < 36 else np.zeros(1, dtype=np.int64)
            buf.push(px)
            taps[n] = tuple(int(t[0]) for t in buf.last_column_taps)
        assert taps[27] == (27, 21, 15)
        rng = np.random.default_rng(8)
        for _ in range(3):
            im = ImageStream(rng.integers(-(2**15), 2**15, size=(8, 8, 3)))
            assert np.array_equal(patch_matrix(im, 3), gather_oracle(im, 3))


def test_c09_ternarization_sweep_and_boundary():
    with report("C9 threshold sweep monotonicity and boundary", 5.0):
        rng = np.random.default_rng(9)
        w = FloatMatrix(rng.normal(size=(64, 576)))
        grid = [0.7, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
        sparsities = [sp for _, sp in sparsity_sweep(w, grid)]
        assert sparsities == sorted(sparsities)
        for eps in (0.0, 0.7, 1.4):
            delta = threshold(w, eps)
            t, s = ternarize(w, eps)
            below = np.abs(w.entries) < delta
            assert np.array_equal(t.entries == 0, below | (w.entries == 0))
            nz = t.entries != 0
            assert np.array_equal(t.entries[nz], np.sign(w.entries[nz]).astype(np.int8))
        # exact boundary: |w| == delta survives
        wb = FloatMatrix(np.array([[1.0, 2.0, 3.0, 2.0]]))
        tb, _ = ternarize(wb, 1.0)
        assert tb.entries.tolist() == [[0, 1, 1, 1]]


def test_c10_end_to_end_determinism_and_round_trip(rng):
    with report("C10 simulator reference match and netlist round trip", 60.0):
        net = tiny_net()
        for _ in range(3):
            w = tiny_weights(rng)
            img = ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1)))
            res1 = simulate(net, w, img)
            res2 = simulate(net, w, img)
            assert res1 == res2
            conv_w = [w[1].entries[f].reshape(3, 3, 1)[:, :, 0].tolist() for f in range(4)]
            ref = straightline_ref.reference_scores(
                img.data.tolist(), conv_w, list(w[2].c), list(w[2].b), w[5].entries.tolist()
            )
            assert list(res1.scores) == ref
        gen = np.random.default_rng(10)
        for _ in range(100):
            rows = int(gen.integers(1, 10))
            cols = int(gen.integers(2, 16))
            m = random_ternary(rows, cols, float(gen.uniform(0.2, 0.8)), gen)
            method = (no_cse, td_cse, bu_cse)[int(gen.integers(3))]
            arity = int(gen.integers(2, 4))
            g = schedule_serial(build_tree(method(m), arity), (1, 4, 16)[int(gen.integers(3))])
            back = parse(emit(g))
            xs = gen.integers(-(2**15), 2**15, size=(cols, 50), dtype=np.int64)
            assert np.array_equal(evaluate_batch(back, xs), evaluate_batch(g, xs))
