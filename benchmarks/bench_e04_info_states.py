"""Benchmark E4 — Theorem 4: information-state counting on non-regular recognizers.

Regenerates the E4 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e04_info_states.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e4_info_states(benchmark):
    run_experiment_benchmark(benchmark, "E4")
