"""Benchmark E2 — Theorem 2: message graphs - finite => DFA extraction, infinite => n log n witness.

Regenerates the E2 table (full sweep; README.md lists E1-E12) and asserts
the claimed shape.  See src/repro/experiments/e02_message_graph.py for the
sweep definition.
"""

from bench_harness import run_experiment_benchmark


def bench_e2_message_graph(benchmark):
    run_experiment_benchmark(benchmark, "E2")
