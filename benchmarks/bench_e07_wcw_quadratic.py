"""Benchmark E7 — Paragraph 7(1): w c w costs Theta(n^2); collect-all upper bound.

Regenerates the E7 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e07_wcw_quadratic.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e7_wcw_quadratic(benchmark):
    run_experiment_benchmark(benchmark, "E7")
