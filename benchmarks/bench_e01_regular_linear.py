"""Benchmark E1 — Theorems 1 and 6: regular languages cost ceil(log2|Q|)*n bits, uni and bidi.

Regenerates the E1 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e01_regular_linear.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e1_regular_linear(benchmark):
    run_experiment_benchmark(benchmark, "E1")
