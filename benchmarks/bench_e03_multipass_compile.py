"""Benchmark E3 — Theorem 3: multi-pass O(n) algorithms compile to an O(n) single pass.

Regenerates the E3 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e03_multipass_compile.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e3_multipass_compile(benchmark):
    run_experiment_benchmark(benchmark, "E3")
