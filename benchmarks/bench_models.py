"""Benchmarks for the analytic fast path (PERFORMANCE.md layer 7).

Two questions, both answered from real clocks:

* **Per-cell speedup** — how long does one (growth law, size) cell take
  through the simulator vs through the closed-form model?  The sim side
  is the Θ(n²)-law cells that bound the long campaign
  (BENCH_2026-07-30_campaign.json: ~154 s each at n = 16384); the model
  side is O(log n) integer arithmetic.
* **Fleet speedup** — wall clock of the whole E9+E10 long campaign in
  ``--mode model`` (which also extends the sweeps to n = 2^20) against
  the recorded 4-worker sim makespan of the same fleet.

Run with ``pytest benchmarks/bench_models.py``; running the file as a
script (``python benchmarks/bench_models.py``) prints the payload that
seeds ``BENCH_*_model.json``.
"""

from __future__ import annotations

import json
import random
import time

from bench_harness import journals_in_tmp  # noqa: F401 (autouse fixture)
from repro.experiments import RunProfile, get_spec
from repro.experiments import e09_hierarchy, e10_known_n
from repro.runner import execute_campaign

LONG_MODEL = RunProfile(preset="long", mode="model")

# What the retired sim path cost (BENCH_2026-07-30_campaign.json): the
# E9+E10 long fleet on 4 workers was bounded by its two ~153 s n=16384
# Θ(n²) heads — cell time 628.5 s over 48 cells, LPT makespan ~157 s.
SIM_LONG_FLEET_4W_MAKESPAN_S = 157.1
SIM_LONG_CELL_TIME_S = 628.5


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def sim_vs_model_cell_rows(sizes=(1024, 2048, 4096)) -> "list[dict]":
    """Per-cell wall clock, simulator vs model, for the Θ(n²) law.

    The n^2 law is the one that bounds the campaign makespan; model
    timings are best-of-3 (they are microseconds), sim timings single
    shot (they are the thing being retired).
    """
    rows = []
    for module, measure, model_params in (
        (e09_hierarchy, e09_hierarchy._measure, {"growth": "n^2"}),
        (e10_known_n, e10_known_n._measure_hierarchy, {"growth": "n^2"}),
    ):
        exp_id = module.SPEC.exp_id
        for n in sizes:
            params = {**model_params, "n": n}
            rng = random.Random(20260808)
            started = time.perf_counter()
            sim_record = measure(params, rng)
            sim_s = time.perf_counter() - started
            model_s = _best_of(
                lambda: measure(
                    {**params, "mode": "model"}, random.Random(20260808)
                )
            )
            rows.append(
                {
                    "cell": f"{exp_id}/g=n^2/n={n}",
                    "sim_s": round(sim_s, 4),
                    "model_s": round(model_s, 6),
                    "speedup": round(sim_s / max(model_s, 1e-9), 1),
                    "bits_equal": not sim_record.get("skipped"),
                }
            )
    return rows


def long_model_fleet_seconds() -> "tuple[float, int]":
    """Wall clock of the E9+E10 long campaign in model mode (1 worker).

    Model cells are O(log n): parallel workers would only add spawn
    cost, so one in-process worker *is* the fast configuration.
    """
    specs = [get_spec("E9"), get_spec("E10")]
    started = time.perf_counter()
    campaign = execute_campaign(specs, LONG_MODEL, jobs=1)
    seconds = time.perf_counter() - started
    for execution in campaign.executions.values():
        execution.result.require_passed()
    return seconds, campaign.cell_count


def bench_long_model_fleet(benchmark):
    """The whole E9+E10 long sweep (out to n = 2^20) through the model."""
    specs = [get_spec("E9"), get_spec("E10")]
    campaign = benchmark(execute_campaign, specs, LONG_MODEL, 1)
    for execution in campaign.executions.values():
        execution.result.require_passed()


def bench_model_cell_at_two_to_the_twenty(benchmark):
    """One model cell at n = 2^20 — the size the simulator cannot reach."""
    record = benchmark(
        e09_hierarchy._measure,
        {"growth": "n^2", "n": 2**20, "mode": "model"},
        random.Random(0),
    )
    assert record["mode"] == "model" and not record["skipped"]


def payload() -> dict:
    """The BENCH_*_model.json payload, from real clocks on this machine."""
    fleet_s, cells = long_model_fleet_seconds()
    return {
        "machine": "single-core CI-class container, Python 3.11",
        "sim_vs_model_cells": sim_vs_model_cell_rows(),
        "long_model_fleet": {
            "fleet": ["E9", "E10"],
            "mode": "model",
            "cells": cells,
            "max_n": 2**20,
            "wall_s_jobs1": round(fleet_s, 4),
            "sim_baseline_4w_makespan_s": SIM_LONG_FLEET_4W_MAKESPAN_S,
            "sim_baseline_cell_time_s": SIM_LONG_CELL_TIME_S,
            "speedup_vs_sim_4w": round(
                SIM_LONG_FLEET_4W_MAKESPAN_S / max(fleet_s, 1e-9), 1
            ),
            "note": "sim baseline from BENCH_2026-07-30_campaign.json "
            "(e9/e10_long_widened: 628.5s of cell time, ~157s LPT "
            "makespan on 4 workers, ceiling n=16384); the model fleet "
            "additionally extends both sweeps to n=2^20",
        },
    }


if __name__ == "__main__":
    print(json.dumps(payload(), indent=1, sort_keys=True))
