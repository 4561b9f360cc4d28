"""Mediabench-like synthetic workloads.

The paper evaluates on 14 Mediabench programs compiled with IMPACT; this
reproduction substitutes a calibrated catalog of synthetic loop kernels
(:mod:`repro.workloads.catalog` derives each model from the paper's
Tables 1 and 3).  Each benchmark model specifies its interleave factor
and a weighted set of loops; each loop is a DDG template plus
deterministic profile/execution address traces.
"""

from repro.workloads.traces import (
    AddressTrace,
    TraceSpec,
    trace_factory,
)
from repro.workloads.kernels import (
    chain_kernel,
    copy_kernel,
    inplace_stencil_kernel,
    reduction_kernel,
    streaming_kernel,
    table_update_kernel,
)
from repro.workloads.catalog import (
    BENCHMARKS,
    Benchmark,
    LoopSpec,
    benchmark_names,
    get_benchmark,
)
from repro.workloads.specialization import specialize_ambiguous

__all__ = [
    "AddressTrace",
    "TraceSpec",
    "trace_factory",
    "chain_kernel",
    "copy_kernel",
    "inplace_stencil_kernel",
    "reduction_kernel",
    "streaming_kernel",
    "table_update_kernel",
    "BENCHMARKS",
    "Benchmark",
    "LoopSpec",
    "benchmark_names",
    "get_benchmark",
    "specialize_ambiguous",
]
