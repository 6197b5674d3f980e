"""Benchmark E8 — Paragraph 7(2): 0^k 1^k 2^k costs Theta(n log n) with three counters.

Regenerates the E8 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e08_counters_nlogn.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e8_counters_nlogn(benchmark):
    run_experiment_benchmark(benchmark, "E8")
