"""ternroll: compile ternary-weight CNNs into pruned, pipelined adder trees
and simulate the resulting streaming pipeline bit-exactly in fixed point."""

from .cse import (
    CseResult,
    CseStats,
    ExtractionEvent,
    bu_cse,
    expand_paths,
    find_counterexample,
    no_cse,
    td_cse,
)
from .fixedpoint import (
    ACT_FORMAT,
    SCALE_FORMAT,
    FixedPointFormat,
    SaturationCounter,
    quantize,
)
from .matrices import FloatMatrix, TernaryMatrix
from .netlist import emit as emit_netlist
from .netlist import parse as parse_netlist
from .network import LayerSpec, NetworkSpec, ScaleShiftParams, load_network, vgg7_cifar10
from .pipeline import (
    ImageStream,
    SimulationResult,
    ThroughputReport,
    max_pool,
    op_count,
    scale_shift,
    simulate,
    throughput_model,
)
from .ternarize import sparsity_sweep, ternarize
from .treegen import (
    AdderGraph,
    CostReport,
    build_tree,
    cost,
    evaluate_batch,
    schedule_serial,
)

__version__ = "0.1.0"

__all__ = [
    "ACT_FORMAT",
    "SCALE_FORMAT",
    "AdderGraph",
    "CostReport",
    "CseResult",
    "CseStats",
    "ExtractionEvent",
    "FixedPointFormat",
    "FloatMatrix",
    "ImageStream",
    "LayerSpec",
    "NetworkSpec",
    "SaturationCounter",
    "ScaleShiftParams",
    "SimulationResult",
    "TernaryMatrix",
    "ThroughputReport",
    "bu_cse",
    "build_tree",
    "cost",
    "emit_netlist",
    "evaluate_batch",
    "expand_paths",
    "find_counterexample",
    "load_network",
    "max_pool",
    "no_cse",
    "op_count",
    "parse_netlist",
    "quantize",
    "scale_shift",
    "schedule_serial",
    "simulate",
    "sparsity_sweep",
    "td_cse",
    "ternarize",
    "throughput_model",
    "vgg7_cifar10",
]
