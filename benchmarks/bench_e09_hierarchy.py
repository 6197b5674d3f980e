"""Benchmark E9 — Paragraph 7(3): the L_g hierarchy tracks Theta(g(n)).

Regenerates the E9 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e09_hierarchy.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e9_hierarchy(benchmark):
    run_experiment_benchmark(benchmark, "E9")
