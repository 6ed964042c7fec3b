"""Golden fingerprints of the CSE passes over a seeded corpus.

Each constant is the sha256 of the ``format_cse`` text, or of the
extraction trace (variable, pattern and occurrences per step), that a pass
produces on one part of the corpus. The
constants pin the output of ``td`` and ``bu`` byte for byte: a change to
either engine that alters any definition, output row, tie-break or
occurrence count changes a fingerprint.
"""

import hashlib

import numpy as np
import pytest

from ternroll import TernaryMatrix, bu_cse, td_cse
from ternroll.cse import format_cse

from .conftest import ROWS_7X6
from .trits import random_ternary


def _small_matrices() -> list[TernaryMatrix]:
    rng = np.random.default_rng(31)
    out = []
    for _ in range(50):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(2, 15))
        out.append(random_ternary(rows, cols, float(rng.uniform(0.2, 0.8)), rng))
    return out


CORPUS = {
    "c1_7x6": lambda: [TernaryMatrix(np.array(ROWS_7X6, dtype=np.int8))],
    "small_50": _small_matrices,
    "64x27_z41": lambda: [random_ternary(64, 27, 0.41, np.random.default_rng(127))],
    "16x576_z74": lambda: [random_ternary(16, 576, 0.74, np.random.default_rng(1576))],
    "64x576_z75": lambda: [random_ternary(64, 576, 0.75, np.random.default_rng(6576))],
}

METHODS = {"td": td_cse, "bu": bu_cse}

GOLDEN = {
    ("td", "c1_7x6"): "0618c61bb284b5900f921cfe546519b7a066d67faf3f6c9bf06324f1349ccae3",
    ("td", "small_50"): "cb1364ce419493b45496cd914557849e5556321510cbc99893229bbdedc2eb2c",
    ("td", "64x27_z41"): "feb2b5e5169f6cceea8a070e4504671651d93ec6f717ec4d48a6832da3a2aa14",
    ("td", "16x576_z74"): "82bad5d0fdea99772cf37b2791122624be0d71586382f6a339e836a42b4cf4c0",
    ("td", "64x576_z75"): "fbd2f15d0d5e073accb87d37cbb2df388fd5e5fbd700197ee2bdb29fbe4ba679",
    ("bu", "c1_7x6"): "554a97a55e812cd4f7bb00cabd3a22501a7396c83e2569515d0e6735c1807638",
    ("bu", "small_50"): "35b3010d967b29ebd45bc0a292f1348fecb4a0931f945717009c35065bd61351",
    ("bu", "64x27_z41"): "f4e2e25291b1615cb9e43375a93e247e87e1d2c264ed5bbdd2209c6187206213",
    ("bu", "16x576_z74"): "bb5dc8eca27d3a15f7b765ce020fe971f0f883ef3b10f19ac84d83ea0e00e2ed",
    ("bu", "64x576_z75"): "48c156fc7e824c501ad22b416d5f916f53080d9fc39475e8afe1b0772f3b9021",
}

GOLDEN_TD_TRACE = {
    "c1_7x6": "dacad09e9dfb5bd72c05cb012dc25bf6926c153bdc3c6ec2971b32297474a8cb",
    "small_50": "20b4f61404ce3ff44e895073526e4287a94584d2d23f23cb1a87ac1b02663da0",
    "64x27_z41": "975fea4c13648cfd0f1f0c855955300f933bdde86efc21275b8a573af0e47a10",
    "16x576_z74": "1c13b5ae44ff95f5c74a934ded189713526c3bde76e677a399ea083baea2b9b8",
    "64x576_z75": "51118bcdf16b3de055453a8e3cf65e9b1048e590cd02bafbe6adac6409576655",
}

GOLDEN_BU_TRACE = {
    "c1_7x6": "7a45cf692865764fca093bb9d470742ef1d0c885a6c09e18c4b0e5d9b7455445",
    "small_50": "a3f31085dce8c92e5acf1eb63997012417e975dfc231ee393769267f75d4a822",
    "64x27_z41": "f686f49f328d7cf23e4a2cba47285f7f4370173ac52d89630f5b1a39cf973ee4",
    "16x576_z74": "9d4e5e6e87bad60f05419be4790f7a8e4cd638a6c826d7fc68c276157e6e9cb0",
    "64x576_z75": "e4d4d02b1ed52e6a32fea3e84b850b47f2e4a6f9870accfe6c95c03a6d671e23",
}


def _sha(parts: list[str]) -> str:
    return hashlib.sha256("--\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("case", list(CORPUS))
@pytest.mark.parametrize("method", list(METHODS))
def test_cse_output_fingerprint(method, case):
    texts = [format_cse(METHODS[method](m)) for m in CORPUS[case]()]
    assert _sha(texts) == GOLDEN[method, case]


def _trace_sha(method, case) -> str:
    lines = []
    for m in CORPUS[case]():
        trace = []
        METHODS[method](m, trace=trace)
        lines.append("".join(f"{ev.var} {' '.join(('+' if s > 0 else '-') + f'x{v}' for v, s in ev.pattern)} {ev.occurrences}\n" for ev in trace))
    return _sha(lines)


@pytest.mark.parametrize("case", list(CORPUS))
def test_td_trace_fingerprint(case):
    assert _trace_sha("td", case) == GOLDEN_TD_TRACE[case]


@pytest.mark.parametrize("case", list(CORPUS))
def test_bu_trace_fingerprint(case):
    assert _trace_sha("bu", case) == GOLDEN_BU_TRACE[case]
