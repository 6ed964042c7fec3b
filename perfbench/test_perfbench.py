"""Tests of the benchmark itself, on smoke-sized inputs.

Run with ``python -m pytest perfbench`` from the repository root. Most
cases start the benchmark as a separate process, from the command line; the
fault cases call ``run.main`` in this process with one program output
corrupted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from run import END_TO_END, PER_LAYER, tail
from spans import Tracer, module_self_time, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return p.returncode, p.stdout.splitlines()


def smoke(workload: str, *extra: str, seed: int = 1, trace: int = 0) -> tuple[int, dict, list[str]]:
    code, lines = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", *extra
    )
    return code, json.loads(lines[-1]), lines


def test_spec_lists_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["compile-cse", "compile-flat", "simulate"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    code, result, _ = smoke(workload, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def corrupt_netlist(text: str) -> str:
    """Flip the sign of the first operand of the first add node.

    The result still parses, so only the evaluation oracle can catch it.
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) > 5 and parts[2] == "add":
            parts[5] = ("-" if parts[5][0] == "+" else "+") + parts[5][1:]
            lines[i] = " ".join(parts)
            return "\n".join(lines)
    raise ValueError("netlist has no add node to corrupt")


def corrupt_first(fn, corrupt):
    """``fn`` with its first result passed through ``corrupt``."""
    calls = []

    def wrapper(*args):
        out = fn(*args)
        calls.append(1)
        return corrupt(out) if len(calls) == 1 else out

    return wrapper


def bump_first_score(ref):
    scores, saturated = ref
    return scores + np.eye(1, len(scores), dtype=scores.dtype)[0], saturated


@pytest.mark.parametrize("workload", ["compile-cse", "compile-flat", "simulate"])
def test_wrong_output_raises_fail_ratio(workload, monkeypatch, capsys):
    run.import_program()
    import oracles
    import workloads

    if workload == "simulate":  # the reference disagrees with the first image's scores
        monkeypatch.setattr(oracles, "reference_scores", corrupt_first(oracles.reference_scores, bump_first_score))
    else:
        monkeypatch.setattr(workloads, "emit_netlist", corrupt_first(workloads.emit_netlist, corrupt_netlist))
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    ratio = next(line.split() for line in lines if line.startswith("fail_ratio"))
    assert float(ratio[1]) == result["failed"] / result["attempted"] > 0
    assert ratio[3:7] == [str(result["failed"]), "failed", "/", str(result["attempted"])]


def test_traced_simulate_replays_blocks_and_counts_saturations():
    _, result, _ = smoke("simulate", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for block in ("window", "conv", "scale_shift", "max_pool", "dense"):
        assert m[f"pipeline.{block}_s"] > 0
    assert m["pipeline.saturations"] > 0  # the loudest smoke image clips
    assert m["cse.td.s.conv1"] == 0  # a layer the workload does not run reads 0


def fingerprints(lines: list[str]) -> dict[str, str]:
    return {p[1]: p[2] for p in (line.split() for line in lines) if p[0] == "fingerprint"}


def test_fingerprints_repeat_for_a_seed_and_change_with_it():
    first = fingerprints(smoke("compile-cse", seed=3)[2])
    again = fingerprints(smoke("compile-cse", seed=3)[2])
    other = fingerprints(smoke("compile-cse", seed=4)[2])
    assert len(first) == 4 * (1 + 4) and first == again  # conv1 and conv2's four row blocks
    assert first["ngl.td.conv2.rows0-0"] != other["ngl.td.conv2.rows0-0"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code == 2 and lines == []


def test_tail_is_the_eleventh_largest_sample():
    assert tail(list(range(100))) == (89, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("bench.op"):
        with tr.span("cse.td"):
            pass
        with tr.span("netlist.emit"):
            pass
    with tr.span("netlist.parse"):
        pass
    selfs = self_times(tr.spans)
    total = tr.spans[0]["end"] - tr.spans[0]["start"]
    assert selfs[0] == pytest.approx(total - selfs[1] - selfs[2])
    inside = module_self_time(tr.spans, under="bench.op")
    assert set(inside) == {"bench", "cse", "netlist"}
    assert inside["netlist"] == selfs[2]  # the parse outside the operation is not counted


def test_clock_scales_by_the_kernel_time_around_a_stretch(monkeypatch):
    import calibrate

    kernel_times = iter([0.010, 0.030])
    monkeypatch.setattr(calibrate, "measure", lambda repeats: next(kernel_times))
    clock = calibrate.Clock(1)
    assert clock.scale(2.0) == pytest.approx(2.0 * calibrate.REFERENCE_S / 0.020)
    assert clock.kernel_s == [pytest.approx(0.020)]
