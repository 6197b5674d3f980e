"""Benchmark E10 — Paragraph 7(4): known n brings the hierarchy down to Theta(n).

Regenerates the E10 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e10_known_n.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e10_known_n(benchmark):
    run_experiment_benchmark(benchmark, "E10")
