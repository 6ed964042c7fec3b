"""Golden fingerprints of the emitted netlists over a seeded corpus.

Each constant is the sha256 of the ``.ngl`` texts that
``emit(schedule_serial(build_tree(r, arity, align_outputs=a), interval))``
gives for one CSE method on one part of the corpus, over every schedule the
command line can build: arity 2 at intervals 1, 4 and 16, arity 3 at
interval 1, each with aligned and unaligned outputs. They pin node ids,
kinds, stages and operand order byte for byte, so a change to the tree
builder or the emitter that alters any node changes a fingerprint.
"""

import hashlib
from functools import cache

import numpy as np
import pytest

from ternroll import TernaryMatrix, bu_cse, build_tree, no_cse, schedule_serial, td_cse
from ternroll.netlist import emit, parse

from .conftest import ROWS_7X6
from .trits import random_ternary

CORPUS = {
    "c1_7x6": lambda: TernaryMatrix(np.array(ROWS_7X6, dtype=np.int8)),
    "64x27_z41": lambda: random_ternary(64, 27, 0.41, np.random.default_rng(127)),
    "16x576_z74": lambda: random_ternary(16, 576, 0.74, np.random.default_rng(1576)),
    "64x2304_z75": lambda: random_ternary(64, 2304, 0.75, np.random.default_rng(62304)),
}

METHODS = {"none": no_cse, "td": td_cse, "bu": bu_cse}

# (arity, interval) pairs, as cli._build_graph allows them
SCHEDULES = ((2, 1), (2, 4), (2, 16), (3, 1))

GOLDEN = {
    ("none", "c1_7x6"): "6f517a20647222a6eaf6711679975a2f2fddc22eb44847591bafc61752cdb786",
    ("td", "c1_7x6"): "d6402f2e87edfbf9dcfa60fb5c99f81bd6bdb7cc59f2a6d56728555c1a359653",
    ("bu", "c1_7x6"): "d1e9ba1f151074116938467bf2004ce96e89f37c13b451c493afcff0b35fc5ce",
    ("none", "64x27_z41"): "130b34a4d1680410dbfb719f65def36cf95a615dbd6c295ad6995b996a918da3",
    ("td", "64x27_z41"): "ed16fe5b7dc1f20adbf855b54b701602fa7485144a91cb7e1abb1014549289e0",
    ("bu", "64x27_z41"): "1f6cadae8d3aa8d8bc80795e37c31eeb3b06a7ea5d850351ce11dd34425db6bc",
    ("none", "16x576_z74"): "7e2e178a089dc540ced8a50466defffc33d597aeb4c9d73a57310e064ba16852",
    ("td", "16x576_z74"): "216520669000cee879ef812d05a6ba2b358044b353d35d166058fa57ee40d394",
    ("bu", "16x576_z74"): "199f3d960e26f981f7c7e43a5620420cdb88d145dee7ee9a811d06eff06e1530",
    ("none", "64x2304_z75"): "fb3aaf9ac80907620101f85f6322c4ee809f0d422797d0aab1bb7936586ef0e8",
}


@cache
def _texts(method: str, case: str) -> tuple[str, ...]:
    r = METHODS[method](CORPUS[case]())
    return tuple(
        emit(schedule_serial(build_tree(r, arity, align_outputs=aligned), interval))
        for arity, interval in SCHEDULES
        for aligned in (True, False)
    )


CASES = [(method, case) for case in CORPUS for method in METHODS if case != "64x2304_z75" or method == "none"]


@pytest.mark.parametrize("method, case", CASES)
def test_netlist_fingerprint(method, case):
    digest = hashlib.sha256("--\n".join(_texts(method, case)).encode()).hexdigest()
    assert digest == GOLDEN[method, case]


@pytest.mark.parametrize("method, case", CASES)
def test_parse_then_emit_gives_the_same_text(method, case):
    for text in _texts(method, case):
        assert emit(parse(text)) == text
