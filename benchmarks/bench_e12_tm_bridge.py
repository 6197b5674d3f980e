"""Benchmark E12 — Summary section: the TM->ring transformation.

Regenerates the E12 table (full sweep; README.md lists E1-E12) and asserts the
claimed shape.  See src/repro/experiments/e12_tm_bridge.py for the sweep
definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e12_tm_bridge(benchmark):
    run_experiment_benchmark(benchmark, "E12")
