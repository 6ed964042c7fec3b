import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ternroll
from ternroll import (
    ImageStream,
    TernaryMatrix,
    build_tree,
    schedule_serial,
    simulate,
    td_cse,
    ternarize,
)
from ternroll import cli
from ternroll.cli import main
from ternroll.matrices import FloatMatrix, load_tmx
from ternroll.cse import CseResult, parse_cse
from ternroll.fixedpoint import FixedPointFormat
from ternroll import netlist
from ternroll.network import ACTIVATIONS, LayerSpec, NetworkSpec

from . import cse_rows
from .basis import evaluate
from .test_pipeline import tiny_net, tiny_weights
from .trits import random_ternary
from .writers import dump_fmx, dump_img, dump_tmx, save_network

TMX_7X6 = "tmx 7 6\n00++00\n+0+++0\n0+00++\n0+000+\n+0++00\n+00+00\n0+00++\n"
VGG7_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "vgg7_cifar10.json")
# Directory holding the imported ternroll package, so that a child process
# finds the same package whatever its working directory, installed or not.
TERNROLL_ROOT = str(Path(ternroll.__file__).resolve().parents[1])


def run_cli(args, env=None, **kw):
    env = dict(os.environ if env is None else env)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = TERNROLL_ROOT + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "ternroll.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


@pytest.fixture
def m7x6_file(tmp_path):
    p = tmp_path / "m7x6.tmx"
    p.write_text(TMX_7X6)
    return str(p)


def test_ternarize_prints_delta_s_sparsity(tmp_path, capsys):
    w = FloatMatrix(np.array([[0.5, -0.2, 0.9, 0.05]]))
    fin = tmp_path / "w.fmx"
    fout = tmp_path / "w.tmx"
    dump_fmx(w, str(fin))
    assert main(["ternarize", "--eps", "0.7", str(fin), str(fout)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("delta=0.28875 s=0.7 sparsity=0.5")
    assert load_tmx(str(fout)).entries.tolist() == [[1, 0, 1, 0]]


def test_sweep_eps(tmp_path, capsys, rng):
    w = FloatMatrix(rng.normal(size=(16, 16)))
    fin = tmp_path / "w.fmx"
    dump_fmx(w, str(fin))
    assert main(["sweep-eps", "--eps", "0.7,1.0,1.4", str(fin)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(l.startswith("eps=") and " sparsity=" in l for l in lines)


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["ternarize", "sweep-eps"])
def test_non_finite_eps_exits_2(tmp_path, capsys, command, eps):
    fin = tmp_path / "w.fmx"
    fout = tmp_path / "w.tmx"
    dump_fmx(FloatMatrix(np.array([[0.5, -0.2, 0.9, 0.05]])), str(fin))
    args = [f"--eps={eps}", str(fin), str(fout)] if command == "ternarize" else [f"--eps=0.5,{eps}", str(fin)]
    assert main([command, *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"ternroll: epsilon must be a finite number >= 0, got {eps}"]
    assert not fout.exists()


def test_cse_first_definition_line(tmp_path, m7x6_file, capsys):
    out = tmp_path / "m7x6.cse"
    assert main(["cse", "--method", "td", m7x6_file, str(out)]) == 0
    assert out.read_text().splitlines()[0] == "def x6 = +x2 +x3"


def test_cse_verify_flag(tmp_path, m7x6_file, capsys):
    out = tmp_path / "m7x6.cse"
    assert main(["cse", "--method", "bu", m7x6_file, str(out)]) == 0
    assert "verify=ok" in capsys.readouterr().out


def _one_sign_flipped(r: CseResult) -> CseResult:
    defs, outputs = cse_rows.rows(r)
    (v, s), *rest = outputs[1]
    outputs[1] = ((v, -s), *rest)
    return cse_rows.result(r.n_inputs, defs, outputs)


@pytest.mark.parametrize(
    "command, message",
    [("cse", "cse result differs from its matrix"), ("emit", "adder graph differs from its matrix")],
)
def test_wrong_cse_result_fails_the_proof(tmp_path, m7x6_file, capsys, monkeypatch, command, message):
    real = cli._run_cse
    monkeypatch.setattr(cli, "_run_cse", lambda method, m: _one_sign_flipped(real(method, m)))
    out = tmp_path / "out"
    assert main([command, "--method", "td", m7x6_file, str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert sorted(os.listdir(tmp_path)) == ["m7x6.tmx"]


def _first_output_negated(build):
    """``_build_graph`` with the first output's operand sign flipped."""

    def wrong(*args):
        g = build(*args)
        sign = g.operand_sign.copy()
        sign[g.operand_start[g.outputs[0]]] *= -1
        return dataclasses.replace(g, operand_sign=sign)

    return wrong


def test_wrong_adder_graph_fails_the_proof(tmp_path, m7x6_file, capsys, monkeypatch):
    # row 0 of the matrix is 00++00, so its negation differs first in column 2
    assert main(["emit", "--method", "bu", m7x6_file, str(tmp_path / "ok.ngl")]) == 0
    os.remove(tmp_path / "ok.ngl")
    monkeypatch.setattr(cli, "_build_graph", _first_output_negated(cli._build_graph))
    assert main(["emit", "--method", "bu", m7x6_file, str(tmp_path / "out.ngl")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "adder graph differs from its matrix in column 2" in err
    assert sorted(os.listdir(tmp_path)) == ["m7x6.tmx"]


def test_tree_proves_its_graph_against_the_listing(tmp_path, capsys, monkeypatch):
    cse_path, ngl_path = tmp_path / "a.cse", tmp_path / "a.ngl"
    cse_path.write_text("def x3 = +x0 -x2\nout 0 = +x1 +x3\nout 1 = -x3\n")
    monkeypatch.setattr(cli, "_build_graph", _first_output_negated(cli._build_graph))
    assert main(["tree", str(cse_path), str(ngl_path)]) == 3
    err = capsys.readouterr().err
    assert err == "ternroll: internal error: adder graph differs from its listing in column 0\n"
    assert not ngl_path.exists()


def test_tree_proof_is_sparse_in_the_inputs(tmp_path, capsys):
    # a dense outputs x inputs comparison would hold 2,000 x 2^20 values
    cse_path, ngl_path = tmp_path / "wide.cse", tmp_path / "wide.ngl"
    cse_path.write_text("".join(f"out {i} = +x0 -x1048575\n" for i in range(2000)))
    assert main(["tree", "--inputs", "1048576", str(cse_path), str(ngl_path)]) == 0
    g = netlist.load(str(ngl_path))
    assert g.shape == (2000, 1048576)
    assert np.array_equal(g.expansion()[2], np.tile([1, -1], 2000))


def test_report_ops_with_cse_proves_each_graph(tmp_path, capsys, rng, monkeypatch):
    net_path, wdir, _ = _tiny_network_files(tmp_path, rng)
    monkeypatch.setattr(cli, "_build_graph", _first_output_negated(cli._build_graph))
    assert main(["report-ops", net_path, str(wdir), "--with-cse", "--method", "td"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ternroll: internal error: layer 1: adder graph differs from its matrix in column ")


def test_emit_proves_a_wide_layer_without_basis_evaluation(tmp_path, capsys, monkeypatch):
    path = tmp_path / "w.tmx"
    dump_tmx(random_ternary(256, 2304, 0.75, np.random.default_rng(1)), str(path))

    def refuse(*args):
        raise AssertionError("the proof evaluated the graph")

    monkeypatch.setattr(ternroll.treegen, "evaluate_batch", refuse)
    monkeypatch.setattr(ternroll, "evaluate_batch", refuse)
    assert main(["emit", "--method", "none", str(path), str(tmp_path / "w.ngl")]) == 0
    assert "Adds+Regs" in capsys.readouterr().out


def test_stats_on_an_invalid_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ngl"
    path.write_text(
        "ngl inputs 2 outputs 1 nodes 4 digits 1 total 16 aligned 1\n"
        "node 0 in 0 16\nnode 1 in 0 16\nnode 2 add 5 16 +0 +1\nnode 3 out 5 16 +2\n"
    )
    assert main(["stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "ternroll: add node 2 at stage 5 reads node 0 at stage 0\n"


def test_tree_and_stats_roundtrip(tmp_path, m7x6_file, capsys):
    cse_path = tmp_path / "a.cse"
    ngl_path = tmp_path / "a.ngl"
    assert main(["cse", "--method", "td", m7x6_file, str(cse_path)]) == 0
    assert main(["tree", "--arity", "2", "--inputs", "6", str(cse_path), str(ngl_path)]) == 0
    assert main(["stats", str(ngl_path)]) == 0
    out = capsys.readouterr().out
    assert "Adds+Regs" in out
    g = netlist.load(str(ngl_path))
    assert evaluate(g, [1] * 6) == [2, 4, 3, 2, 3, 2, 3]


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("out 0 = +x99999999999\n", [], "line 1: term '+x99999999999' has an index above 1048576"),
        ("out 0 =\n", ["--inputs", "0"], "n_inputs must be at least 1, got 0"),
        ("out 0 =\n", ["--inputs", "-5"], "n_inputs must be at least 1, got -5"),
        ("out 0 =\n", ["--inputs", "1048577"], "n_inputs 1048577 is above 1048576"),
    ],
    ids=["11-digit-variable", "no-inputs", "negative-inputs", "inputs-above-the-limit"],
)
def test_tree_refuses_out_of_range_variables_and_inputs(tmp_path, capsys, text, flags, message):
    cse_path, ngl_path = tmp_path / "a.cse", tmp_path / "a.ngl"
    cse_path.write_text(text)
    assert main(["tree", *flags, str(cse_path), str(ngl_path)]) == 2
    assert capsys.readouterr().err == f"ternroll: {message}\n"
    assert not ngl_path.exists()


def test_emit_one_shot(tmp_path, m7x6_file):
    ngl_path = tmp_path / "b.ngl"
    assert main(["emit", "--method", "bu", "--interval", "4", m7x6_file, str(ngl_path)]) == 0
    g = netlist.load(str(ngl_path))
    assert g.digits == 4
    assert evaluate(g, [1] * 6) == [2, 4, 3, 2, 3, 2, 3]


@pytest.mark.parametrize("name", ["a b", "x\ny", "\u00e9"], ids=["space", "newline", "non-ascii"])
@pytest.mark.parametrize("command", ["tree", "emit"])
def test_a_name_the_netlist_cannot_hold_is_refused(tmp_path, m7x6_file, capsys, command, name):
    infile, ngl_path = m7x6_file, tmp_path / "n.ngl"
    if command == "tree":
        infile = str(tmp_path / "a.cse")
        assert main(["cse", "--method", "td", m7x6_file, infile]) == 0
        capsys.readouterr()
    assert main([command, "--name", name, infile, str(ngl_path)]) == 2
    assert capsys.readouterr().err == (
        f"ternroll: --name: graph name {name!r} is not one or more ASCII characters from '!' to '~'\n"
    )
    assert not ngl_path.exists()
    assert main([command, "--name", "conv_1!", infile, str(ngl_path)]) == 0
    assert netlist.load(str(ngl_path)).name == "conv_1!"


def test_arity3_serial_rejected(tmp_path, m7x6_file, capsys):
    ngl_path = tmp_path / "c.ngl"
    rc = main(["emit", "--method", "td", "--arity", "3", "--interval", "4", m7x6_file, str(ngl_path)])
    assert rc == 2
    assert not ngl_path.exists()  # no partial outputs


def test_cli_pipeline_equals_library(tmp_path, rng):
    w = FloatMatrix(rng.normal(size=(8, 12)))
    fmx = tmp_path / "w.fmx"
    tmx = tmp_path / "w.tmx"
    cse_p = tmp_path / "w.cse"
    ngl_p = tmp_path / "w.ngl"
    dump_fmx(w, str(fmx))
    assert main(["ternarize", "--eps", "0.8", str(fmx), str(tmx)]) == 0
    assert main(["cse", "--method", "td", str(tmx), str(cse_p)]) == 0
    assert main(["tree", "--inputs", "12", str(cse_p), str(ngl_p)]) == 0

    t_lib, _ = ternarize(w, 0.8)
    r_lib = td_cse(t_lib)
    g_lib = schedule_serial(build_tree(r_lib, 2), 1)
    assert load_tmx(str(tmx)).entries.tolist() == t_lib.entries.tolist()
    assert parse_cse(cse_p.read_text(), 12) == r_lib
    assert netlist.load(str(ngl_p)) == g_lib


def test_byte_identical_outputs(tmp_path, m7x6_file):
    a = tmp_path / "a.ngl"
    b = tmp_path / "b.ngl"
    assert main(["emit", "--method", "bu", m7x6_file, str(a)]) == 0
    assert main(["emit", "--method", "bu", m7x6_file, str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_throughput_line(capsys):
    assert main(["report-throughput", VGG7_CONFIG, "--clock", "125e6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "122070 frames/sec"
    assert "64 values every 4 cycles" in out
    assert "4 values every cycle" in out


def test_report_throughput_below_one_frame_per_second(capsys):
    assert main(["report-throughput", VGG7_CONFIG, "--clock", "100"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0.09765625 frames/sec"


def test_report_ops_dense_column(capsys):
    assert main(["report-ops", VGG7_CONFIG]) == 0
    out = capsys.readouterr().out
    assert "Conv1" in out and "1769472" in out
    assert "153289984" in out


def test_report_ops_with_weights_and_cse(tmp_path, capsys, rng):
    net_path = tmp_path / "net.json"

    net = tiny_net()
    save_network(net, str(net_path))
    w = tiny_weights(rng)
    wdir = tmp_path / "weights"
    wdir.mkdir()
    dump_tmx(w[1], str(wdir / "layer01.tmx"))
    (wdir / "layer02.json").write_text(json.dumps({"c": list(w[2].c), "b": list(w[2].b)}))
    dump_tmx(w[5], str(wdir / "layer05.tmx"))
    assert main(["report-ops", str(net_path), str(wdir), "--with-cse"]) == 0
    out = capsys.readouterr().out
    assert "Conv1" in out
    assert "-" not in out.splitlines()[1].split()[3]  # sparsity column filled


def test_report_ops_needs_only_the_tmx_files(tmp_path, capsys, rng):
    net_path, wdir, _ = _tiny_network_files(tmp_path, rng)
    os.remove(wdir / "layer02.json")
    assert main(["report-ops", net_path, str(wdir), "--with-cse"]) == 0
    assert "-" not in capsys.readouterr().out.splitlines()[1].split()[3]


@pytest.mark.parametrize(
    "layer, shape, needs",
    [(1, (5, 7), "Conv layer 1 needs 4x9"), (5, (3, 63), "Dense layer 5 needs 3x64"), (5, (4, 64), "Dense layer 5 needs 3x64")],
    ids=["conv-5x7", "dense-3x63", "dense-4x64"],
)
@pytest.mark.parametrize("with_cse", [[], ["--with-cse"]], ids=["plain", "with-cse"])
def test_report_ops_rejects_weights_of_the_wrong_shape(tmp_path, capsys, rng, layer, shape, needs, with_cse):
    net_path, wdir, _ = _tiny_network_files(tmp_path, rng)
    path = str(wdir / f"layer{layer:02d}.tmx")
    dump_tmx(random_ternary(*shape, 0.5, rng), path)
    assert main(["report-ops", net_path, str(wdir), *with_cse]) == 2
    assert capsys.readouterr().err == f"ternroll: {path}: weights are {shape[0]}x{shape[1]}, {needs}\n"


def test_report_ops_with_cse_requires_weights(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(tiny_net(), str(net_path))
    with pytest.raises(SystemExit) as e:
        main(["report-ops", str(net_path), "--with-cse"])
    assert e.value.code == 1
    assert "report-ops --with-cse requires a weights directory" in capsys.readouterr().err


def test_report_ops_refuses_3_input_adders_at_a_serial_interval(tmp_path, capsys, rng):
    # the second conv follows a stride-2 pool, so its pixel interval is 4
    net = NetworkSpec(
        (
            LayerSpec("Buffer", 8, 1, kernel=3),
            LayerSpec("Conv", 8, 1, kernel=3, filters=2),
            LayerSpec("MaxPool", 8, 2, kernel=2, stride=2),
            LayerSpec("Buffer", 4, 2, kernel=3),
            LayerSpec("Conv", 4, 2, kernel=3, filters=2),
            LayerSpec("Mux", 4, 2),
            LayerSpec("Dense", 1, 32, filters=2),
        ),
        clock_hz=1e8,
    )
    net_path = tmp_path / "net.json"
    save_network(net, str(net_path))
    wdir = tmp_path / "weights"
    wdir.mkdir()
    for idx, (rows, cols) in {1: (2, 9), 4: (2, 18), 6: (2, 32)}.items():
        dump_tmx(random_ternary(rows, cols, 0.3, rng), str(wdir / f"layer{idx:02d}.tmx"))
    args = ["report-ops", str(net_path), str(wdir), "--with-cse", "--method", "td"]
    assert main(args) == 0
    capsys.readouterr()
    assert main([*args, "--arity", "3"]) == 2
    assert capsys.readouterr().err == (
        "ternroll: 3-input adders cannot be scheduled word- or bit-serial; use --arity 2\n"
    )


def test_simulate_cli_matches_library(tmp_path, capsys, rng):
    net = tiny_net()
    w = tiny_weights(rng)
    net_path = tmp_path / "net.json"
    save_network(net, str(net_path))
    wdir = tmp_path / "weights"
    wdir.mkdir()
    dump_tmx(w[1], str(wdir / "layer01.tmx"))
    (wdir / "layer02.json").write_text(json.dumps({"c": list(w[2].c), "b": list(w[2].b)}))
    dump_tmx(w[5], str(wdir / "layer05.tmx"))
    img = ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1)))
    img_path = tmp_path / "img.txt"
    dump_img(img, str(img_path))
    assert main(["simulate", str(net_path), str(img_path), "--weights", str(wdir)]) == 0
    out = capsys.readouterr().out.strip()
    res = simulate(net, w, img)
    fields = out.split("\t")
    assert [int(v) for v in fields[:-1]] == list(res.scores)
    assert fields[-1] == f"argmax={res.argmax}"


def test_explain_config(capsys):
    assert main(["report-throughput", VGG7_CONFIG, "--explain-config"]) == 0
    out = capsys.readouterr().out
    assert "clock_hz" in out and "(from" in out


def test_exit_codes_subprocess(tmp_path):
    # usage error: unknown subcommand
    r = run_cli(["frobnicate"])
    assert r.returncode == 1
    assert "ternroll: error:" in r.stderr
    # usage error: missing required flag
    r = run_cli(["cse", "in.tmx", "out.cse"])
    assert r.returncode == 1
    assert "ternroll cse: error:" in r.stderr
    # input error: missing file
    r = run_cli(["cse", "--method", "td", str(tmp_path / "nope.tmx"), str(tmp_path / "o.cse")])
    assert r.returncode == 2
    assert r.stderr.strip().count("\n") == 0  # single-line diagnostic
    # input error: malformed matrix
    bad = tmp_path / "bad.tmx"
    bad.write_text("tmx 1 2\n+x\n")
    r = run_cli(["cse", "--method", "td", str(bad), str(tmp_path / "o.cse")])
    assert r.returncode == 2


def test_report_ops_with_cse_repeats_its_output(tmp_path, rng):
    net = tiny_net()
    w = tiny_weights(rng)
    net_path = tmp_path / "net.json"
    save_network(net, str(net_path))
    wdir = tmp_path / "weights"
    wdir.mkdir()
    dump_tmx(w[1], str(wdir / "layer01.tmx"))
    (wdir / "layer02.json").write_text(json.dumps({"c": list(w[2].c), "b": list(w[2].b)}))
    dump_tmx(w[5], str(wdir / "layer05.tmx"))
    outs = []
    for _ in range(2):
        r = run_cli(["report-ops", str(net_path), str(wdir), "--with-cse"], cwd=tmp_path)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_simulate_requires_weights_and_image(tmp_path):
    net_path = tmp_path / "net.json"

    save_network(tiny_net(), str(net_path))
    r = run_cli(["simulate", str(net_path)])
    assert r.returncode == 1
    assert "simulate requires --weights" in r.stderr


def _tiny_network_files(tmp_path, rng):
    """The tiny test network, its weights directory and a matching image."""
    net_path = tmp_path / "net.json"
    save_network(tiny_net(), str(net_path))
    w = tiny_weights(rng)
    wdir = tmp_path / "weights"
    wdir.mkdir()
    dump_tmx(w[1], str(wdir / "layer01.tmx"))
    (wdir / "layer02.json").write_text(json.dumps({"c": list(w[2].c), "b": list(w[2].b)}))
    dump_tmx(w[5], str(wdir / "layer05.tmx"))
    img_path = tmp_path / "img.txt"
    dump_img(ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1))), str(img_path))
    return str(net_path), wdir, str(img_path)


@pytest.mark.parametrize(
    "body",
    [
        {"b": [0.0] * 4},
        {"c": [1.0] * 4},
        4.0,
        {"c": 1.0, "b": 0.0},
        {"c": ["1"] * 4, "b": [0.0] * 4},
        {"c": [1.0] * 4, "b": [True] * 4},
        {"c": [1.0] * 4, "b": [0.0] * 4, "s": "2"},
        {"c": "1234", "b": [0.0] * 4},
        {"c": [10**400] * 4, "b": [0.0] * 4},
    ],
    ids=["no-c", "no-b", "not-an-object", "scalar-c", "string-c", "bool-b", "string-s", "string-body", "big-int-c"],
)
def test_bad_scale_shift_file_exits_2(tmp_path, capsys, rng, body):
    net_path, wdir, img_path = _tiny_network_files(tmp_path, rng)
    (wdir / "layer02.json").write_text(json.dumps(body))
    assert main(["simulate", net_path, img_path, "--weights", str(wdir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "layer02.json" in err


@pytest.mark.parametrize(
    "case", ["stats-through-file", "weights-dir-is-file", "emit-through-file", "missing-output-dir"]
)
def test_unusable_path_exits_2_with_one_line(tmp_path, capsys, rng, case):
    net_path, _, _ = _tiny_network_files(tmp_path, rng)
    tmx = tmp_path / "a.tmx"
    tmx.write_text(TMX_7X6)
    target = {
        "stats-through-file": os.path.join(net_path, "x.ngl"),
        "weights-dir-is-file": net_path,
        "emit-through-file": os.path.join(net_path, "out.ngl"),
        "missing-output-dir": str(tmp_path / "nodir" / "out.ngl"),
    }[case]
    argv = {
        "stats-through-file": ["stats", target],
        "weights-dir-is-file": ["report-ops", net_path, target],
    }.get(case, ["emit", "--method", "td", str(tmx), target])
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ternroll: ")
    if case != "weights-dir-is-file":
        assert repr(target) in err  # the path given, not a temporary file
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "ext, text, where, command",
    [
        ("tmx", "tmx 2 3\n+0-\n0\u00e9+\n", "line 3, column 2", ["cse", "--method", "td"]),
        ("fmx", "fmx 1 2\n0.5 \u00e9\n", "line 2, column 5", ["ternarize", "--eps", "0.7"]),
        ("ngl", "ngl inputs 1 outputs 1 nodes 2 digits 1 total 16 aligned 1\n"
                "node 0 in 0 16\nnode 1 out 0 16 +0 \u00e9\n", "line 3, column 20", ["stats"]),
        ("cse", "out 0 = +x0 \u00e9\n", "line 1, column 13", ["tree"]),
    ],
)
def test_non_ascii_byte_exits_2_naming_its_line_and_column(tmp_path, capsys, ext, text, where, command):
    path = tmp_path / f"bad.{ext}"
    path.write_text(text, encoding="utf-8")
    out = [] if command == ["stats"] else [str(tmp_path / "out")]
    assert main([*command, str(path), *out]) == 2
    assert capsys.readouterr().err == f"ternroll: {path}: {where}: byte 0xc3 is not ASCII\n"
    assert not (tmp_path / "out").exists()


def test_simulate_non_ascii_image_exits_2_naming_its_line_and_column(tmp_path, capsys, rng):
    net_path, wdir, img_path = _tiny_network_files(tmp_path, rng)
    head, body = Path(img_path).read_bytes().split(b"\n", 1)
    Path(img_path).write_bytes(head + b"\n7 \xc3\xa9" + body)
    assert main(["simulate", net_path, img_path, "--weights", str(wdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ternroll: {img_path}: line 2, column 3: byte 0xc3 is not ASCII\n"


def test_simulate_image_of_other_fraction_bits_exits_2(tmp_path, capsys, rng):
    net_path, wdir, img_path = _tiny_network_files(tmp_path, rng)
    text = Path(img_path).read_text().split("\n", 1)
    Path(img_path).write_text("img 8 8 1 9\n" + text[1])
    assert main(["simulate", net_path, img_path, "--weights", str(wdir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "fraction bits" in err


def test_simulate_scale_shift_past_int64_exits_2(tmp_path, capsys, rng):
    net_path, wdir, img_path = _tiny_network_files(tmp_path, rng)
    net = tiny_net()
    save_network(NetworkSpec(net.layers, net.clock_hz, net.act_format, FixedPointFormat(64, 62)), net_path)
    assert main(["simulate", net_path, img_path, "--weights", str(wdir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Q2.62" in err and "int64" in err


def test_simulate_64_bit_scale_format_exits_2_on_a_zero_image(tmp_path, capsys, rng):
    # no product of a zero image leaves int64, but Q2.62 constants times conv
    # sums of Q12.4 pixels could: the network is refused before it runs
    net_path, wdir, img_path = _tiny_network_files(tmp_path, rng)
    net = tiny_net()
    save_network(NetworkSpec(net.layers, net.clock_hz, net.act_format, FixedPointFormat(64, 62)), net_path)
    dump_img(ImageStream(np.zeros((8, 8, 1), dtype=np.int64)), img_path)
    assert main(["simulate", net_path, img_path, "--weights", str(wdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "layer 2: scale-shift" in err and "Q2.62" in err


def test_simulate_conv_sum_past_int64_exits_2(tmp_path, capsys):
    # a scale-shift lifts 16-bit pixels to 2^62; the conv's 2^62 + 2^62 would wrap
    net = NetworkSpec(
        (LayerSpec("ScaleShift", 1, 2), LayerSpec("Conv", 1, 2, kernel=1, filters=1)),
        1e8,
        FixedPointFormat(64, 4),
        FixedPointFormat(64, 0),
    )
    net_path, img_path, wdir = tmp_path / "net.json", tmp_path / "img.txt", tmp_path / "weights"
    save_network(net, str(net_path))
    wdir.mkdir()
    (wdir / "layer00.json").write_text(json.dumps({"c": [2.0**48] * 2, "b": [0.0] * 2}))
    dump_tmx(TernaryMatrix(np.array([[1, 1]], dtype=np.int8)), str(wdir / "layer01.tmx"))
    dump_img(ImageStream(np.full((1, 1, 2), 2**14)), str(img_path))
    assert main(["simulate", str(net_path), str(img_path), "--weights", str(wdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "layer 1: conv 1x2" in err and "int64" in err


def test_report_throughput_rejects_infinite_clock(capsys):
    assert main(["report-throughput", VGG7_CONFIG, "--clock", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "clock_hz" in err


def _net_text(top=None, layers=None, act=None):
    obj = {"clock_hz": 1e8, "act_format": {"total_bits": 16, "frac_bits": 4}}
    obj["layers"] = layers or [
        {"kind": "Buffer", "in_width": 4, "in_channels": 1, "kernel": 3},
        {"kind": "Mux", "in_width": 4, "in_channels": 1},
        {"kind": "Dense", "in_width": 1, "in_channels": 16, "filters": 2},
    ]
    obj.update(top or {})
    obj["act_format"].update(act or {})
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text, command",
    [
        (_net_text(act={"frac_bits": [1]}), "report-throughput"),
        (_net_text().replace('"total_bits": 16', '"total_bits": 1e999'), "report-throughput"),
        (_net_text(layers=[{"kind": "Buffer", "in_width": 4.5, "in_channels": 1}]), "report-throughput"),
        (_net_text().replace('"filters": 2', '"filters": 2.5'), "report-throughput"),
        (_net_text().replace('"filters": 2', '"filters": 2.5'), "report-ops"),
        (_net_text(act={"total_bits": 16.9, "frac_bits": 4.2}), "report-throughput"),
        (_net_text(top={"clock_hz": True}, layers=[{"kind": "Buffer", "in_width": True, "in_channels": 1}]), "report-throughput"),
    ],
    ids=["list-frac", "1e999-total", "float-width", "float-filters", "float-filters-ops", "float-format", "bool-width-clock"],
)
def test_network_json_number_of_the_wrong_type_exits_2(tmp_path, capsys, text, command):
    path = tmp_path / "net.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "expected a JSON integer" in err


@pytest.mark.parametrize(
    "key, value", [("in_width", 10**400), ("in_channels", 10**12)], ids=["401-digit-width", "1e12-channels"]
)
def test_network_json_integer_above_the_limit_exits_2(tmp_path, capsys, key, value):
    layers = [{"kind": "Fifo", "in_width": 4, "in_channels": 1}, {"kind": "Mux", "in_width": 4, "in_channels": 1}]
    for layer in layers:
        layer[key] = value
    path = tmp_path / "net.json"
    path.write_text(_net_text(layers=layers))
    assert main(["report-throughput", str(path)]) == 2
    assert capsys.readouterr().err == f"ternroll: layer 0: {key}: must be at most 1048576\n"


# In-process runs of each command over the tiny network's files, one of
# them replaced by text or bytes close to that file's format.
_TMX = st.sampled_from(["tmx 4 9\n", "tmx 1_0 9\n", "tmx 4 9 9\n", "tmx 3 64\n"]).flatmap(
    lambda head: st.lists(st.text(alphabet="+-0x", min_size=8, max_size=10), max_size=4).map(
        lambda rows: head + "\n".join(rows) + "\n"
    )
) | st.text()
_FMX = st.lists(st.sampled_from(["0.5", "-1", "1_0", "nan", "1e999", ".5", "x"]), max_size=4).map(
    lambda vals: "fmx 2 2\n" + " ".join(vals) + "\n"
) | st.text()
_JSON_VALUE = st.none() | st.booleans() | st.integers(-2, 70) | st.just(10**400) | st.floats() | st.text(max_size=2)
_SCALE_SHIFT = st.fixed_dictionaries(
    {}, optional={"c": st.lists(_JSON_VALUE, max_size=4), "b": st.lists(_JSON_VALUE, max_size=4), "s": _JSON_VALUE}
).map(json.dumps) | st.text()
_NETWORK_EDIT = st.tuples(
    st.integers(0, 5),
    st.sampled_from(["in_width", "in_channels", "kernel", "stride", "filters", "epsilon", "pixel_interval", "kind"]),
    _JSON_VALUE,
)
_IMG = st.sampled_from([b"img 8 8 1 4", b"img 8 8 1 4 le16", b"img 8 8 1 9", b"img 8_0 8 1 4", b"img 8 8 1"]).flatmap(
    lambda head: (st.binary(max_size=130) | st.lists(st.sampled_from(["1", "-7", "1_0", "+5", "40000"]), max_size=64).map(
        lambda t: " ".join(t).encode()
    )).map(lambda body: head + b"\n" + body)
)
_CASES = st.one_of(
    st.tuples(st.just("layer01.tmx"), _TMX),
    st.tuples(st.just("layer02.json"), _SCALE_SHIFT),
    st.tuples(st.just("net.json"), _NETWORK_EDIT),
    st.tuples(st.just("net.json"), st.text()),
    st.tuples(st.just("img.txt"), _IMG),
    st.tuples(st.just("w.fmx"), _FMX),
    st.tuples(st.just("in.cse"), st.text(alphabet="defout x0123+-=\n", max_size=30)),
    st.tuples(st.just("in.ngl"), st.text(alphabet="ngl node in add delay out 0123+-\n", max_size=40)),
)


def _commands(d: str) -> list[list[str]]:
    net, w, img, out = (os.path.join(d, f) for f in ("net.json", "weights", "img.txt", "out"))
    tmx = os.path.join(w, "layer01.tmx")
    return [
        ["simulate", net, img, "--weights", w],
        ["report-ops", net, w, "--with-cse", "--method", "td"],
        ["report-throughput", net],
        ["cse", "--method", "bu", tmx, out],
        ["emit", "--method", "td", tmx, out],
        ["ternarize", "--eps", "0.7", os.path.join(d, "w.fmx"), out],
        ["tree", os.path.join(d, "in.cse"), out],
        ["stats", os.path.join(d, "in.ngl")],
    ]


def _run_main(argv: list[str]) -> tuple[object, str]:
    """``main``'s exit code and stderr, run in-process with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(case=_CASES)
@example(case=("in.cse", "out 0 = +x1230123012301\n"))  # a 13-digit input index
def test_cli_on_malformed_files_exits_0_1_or_2(case):
    name, content = case
    with tempfile.TemporaryDirectory() as d:
        rng = np.random.default_rng(0)
        net_path, wdir, _ = _tiny_network_files(Path(d), rng)
        dump_fmx(FloatMatrix(rng.normal(size=(2, 2))), os.path.join(d, "w.fmx"))
        path = os.path.join(wdir if name.startswith("layer") else d, name)
        if name == "net.json" and isinstance(content, tuple):
            obj = json.loads(Path(net_path).read_text())
            idx, key, value = content
            obj["layers"][idx][key] = value
            content = json.dumps(obj)
        Path(path).write_bytes(content if isinstance(content, bytes) else content.encode())
        for argv in _commands(d):
            code, err = _run_main(argv)
            assert code in (0, 1, 2), (argv, err)
            if code == 2:
                assert err.count("\n") == 1, (argv, err)


@st.composite
def _whole_networks(draw):
    """A valid network of images at most 8 wide and 8 deep, with a seed for
    its weights and input image."""
    width, chans = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    layers: list[LayerSpec] = []
    # image blocks, weighted to put convolutions after pools, then vector blocks
    image = st.sampled_from(["Buffer", "Conv", "Conv", "MaxPool", "MaxPool", "ScaleShift"])
    kinds = draw(st.lists(image, min_size=1, max_size=6))
    kinds += draw(st.lists(st.sampled_from(["ScaleShift", "Mux", "Dense"]), max_size=3))
    for kind in kinds:
        if kind == "Conv":
            kernel = draw(st.sampled_from([k for k in (1, 3, 5) if k <= width]))
            layer = LayerSpec(kind, width, chans, kernel=kernel, filters=draw(st.integers(1, 8)))
        elif kind == "MaxPool":
            stride = draw(st.sampled_from([s for s in range(2, width + 1) if width % s == 0] or [1]))
            layer = LayerSpec(kind, width, chans, kernel=draw(st.integers(1, width)), stride=stride)
        elif kind == "Buffer":
            layer = LayerSpec(kind, width, chans, kernel=draw(st.integers(1, width)))
        elif kind == "ScaleShift":
            layer = LayerSpec(kind, width, chans, activation=draw(st.sampled_from(ACTIVATIONS)))
        elif kind == "Dense":
            layer = LayerSpec(kind, width, chans, filters=draw(st.integers(1, 8)))
        else:
            layer = LayerSpec(kind, width, chans)
        layers.append(layer)
        width, chans = layer.out_shape()
    return NetworkSpec(tuple(layers), clock_hz=1e8), draw(st.integers(0, 2**32 - 1))


def _write_whole_network(d: str, net: NetworkSpec, seed: int) -> tuple[str, str, str]:
    """The network file, a weights directory to match and one image."""
    rng = np.random.default_rng(seed)
    net_path, wdir, img_path = (os.path.join(d, f) for f in ("net.json", "weights", "img.txt"))
    save_network(net, net_path)
    os.mkdir(wdir)
    width = net.input_width
    for idx, layer in enumerate(net.layers):
        name = os.path.join(wdir, f"layer{idx:02d}")
        if layer.kind in ("Conv", "Dense"):
            side = layer.kernel if layer.kind == "Conv" else layer.in_width
            cols = side * side * layer.in_channels
            dump_tmx(random_ternary(layer.filters, cols, rng.uniform(0.2, 0.8), rng), name + ".tmx")
        elif layer.kind == "ScaleShift":
            c, b = rng.uniform(-4, 4, size=(2, layer.in_channels)).tolist()
            Path(name + ".json").write_text(json.dumps({"c": c, "b": b}))
    image = rng.integers(-(2**11), 2**11, size=(width, width, net.input_channels))
    dump_img(ImageStream(image), img_path)
    return net_path, wdir, img_path


@settings(max_examples=25, deadline=None)
@given(drawn=_whole_networks())
def test_cli_on_whole_networks_exits_0_or_2(drawn):
    # report-ops --with-cse refuses a network exactly when emit refuses
    # one of its Conv layers at that layer's pixel interval
    net, seed = drawn
    intervals = net.inferred_intervals()
    convs = [i for i, layer in enumerate(net.layers) if layer.kind == "Conv"]
    with tempfile.TemporaryDirectory() as d:
        net_path, wdir, img_path = _write_whole_network(d, net, seed)
        code, err = _run_main(["simulate", net_path, img_path, "--weights", wdir])
        assert code in (0, 2) and (code == 0 or err.count("\n") == 1), err
        for method in ("td", "bu", "none"):
            for arity in ("2", "3"):
                code, err = _run_main(["report-ops", net_path, wdir, "--with-cse", "--method", method, "--arity", arity])
                assert code in (0, 2) and (code == 0 or err.count("\n") == 1), err
                emitted = [
                    _run_main([
                        "emit", "--method", method, "--arity", arity, "--interval", str(intervals[i]),
                        os.path.join(wdir, f"layer{i:02d}.tmx"), os.path.join(d, "out.ngl"),
                    ])[0]
                    for i in convs
                ]
                assert code == max(emitted, default=0), (method, arity, err)
