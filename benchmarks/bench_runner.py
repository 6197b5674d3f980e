"""Benchmarks for the cell executor: serial vs process-pool dispatch.

Times ``execute_plan`` on E8's quick plan under both backends and checks
the contract the CLI advertises: renders are byte-identical regardless
of ``jobs``.  Also reports the *available parallelism* of the long-sweep
plans (sum of per-cell seconds / max cell seconds) — the wall-clock
speedup an N-core machine can reach; on a single-core CI runner the
process pool itself cannot beat serial, so the assertion is on
determinism, not speed.  Run with ``pytest benchmarks/bench_runner.py``.
"""

from __future__ import annotations

from bench_harness import journals_in_tmp  # noqa: F401 (autouse fixture)
from repro.experiments import RunProfile, get_spec
from repro.runner import execute_plan

QUICK = RunProfile(preset="quick")


def bench_execute_plan_serial(benchmark):
    """E8 quick plan, in-process executor."""
    execution = benchmark(execute_plan, get_spec("E8"), QUICK)
    execution.result.require_passed()


def bench_execute_plan_process_pool(benchmark):
    """E8 quick plan on 4 worker processes; table must match serial."""
    serial = execute_plan(get_spec("E8"), QUICK)
    execution = benchmark(execute_plan, get_spec("E8"), QUICK, 4)
    execution.result.require_passed()
    assert execution.result.render() == serial.result.render()


def bench_available_parallelism_e8_long(benchmark):
    """Measure E8's long plan cell-time profile (single pass).

    ``sum(cell seconds) / max(cell seconds)`` bounds the achievable
    speedup; the long sweep is shaped (six sizes) so the largest cell is
    well under half the total, keeping the bound >= 2.5 even though the
    n log n cost concentrates in the top sizes.
    """
    execution = benchmark.pedantic(
        execute_plan,
        args=(get_spec("E8"), RunProfile(preset="long")),
        rounds=1,
        iterations=1,
    )
    execution.result.require_passed()
    seconds = [outcome.seconds for outcome in execution.outcomes]
    bound = sum(seconds) / max(seconds)
    print(
        f"\nE8 long: {len(seconds)} cells, cell time {sum(seconds):.2f}s, "
        f"largest {max(seconds):.2f}s, available parallelism {bound:.2f}x"
    )
    # Nominal is ~2.76x (recorded in BENCH_2026-07-30_cells.json); the
    # assert is a loose shape guard only, because this also runs in the
    # correctness-mode CI job where noisy shared runners can skew any
    # single cell's wall clock.
    assert bound >= 1.3
