"""Benchmark harness helpers.

Each ``bench_*`` module regenerates one table or figure of the paper.
Experiments are heavy (hundreds of compile+simulate runs), so every
benchmark runs its driver exactly once via ``benchmark.pedantic`` and
prints the paper-vs-measured table to stdout (run with ``-s`` to see
it).  The paper's values are transcribed in
``repro/experiments/paperdata.py``; ROADMAP.md's paper-fidelity item
records how the full-scale reproduction compares with them.

All drivers go through the :mod:`repro.api` session layer: the shared
:data:`RUNNER` below executes every figure/table plan against the
process-wide ``ResultStore``, so benches sharing variants (e.g. Figures
6 and 7) reuse each other's simulations.  Set ``REPRO_SCALE`` (default
0.5) to trade run time for trace length; ``bench_api_overhead`` measures
the cold/warm cost of the on-disk store itself.
"""

from __future__ import annotations

from repro.api import Runner

#: One runner for the whole bench session, on the default (shared) store.
RUNNER = Runner()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
