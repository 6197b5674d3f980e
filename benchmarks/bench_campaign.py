"""Benchmarks for the campaign scheduler: one shared pool vs per-experiment pools.

Two effects are measured:

* **Pool amortization** — the sequential path spins up (and drains) one
  ``ProcessPoolExecutor`` per experiment; a campaign pays the worker
  spawn cost once for the whole fleet.  Even on a single-core runner
  this is a real wall-clock difference, so the timing benches compare
  the two paths at ``jobs=2`` on a quick fleet and assert the renders
  stay byte-identical.
* **Makespan** — with real cores the win is scheduling: global LPT over
  every cell has one tail, per-experiment pools have twelve.  Cores are
  whatever CI gives us, so ``bench_campaign_makespan_model`` *computes*
  both schedules from measured per-cell seconds (deterministic
  arithmetic, no timing noise) and prints the modeled speedup at 4
  workers — the number an idle 4-core machine reaches.

Run with ``pytest benchmarks/bench_campaign.py``.
"""

from __future__ import annotations

import heapq

from bench_harness import journals_in_tmp  # noqa: F401 (autouse fixture)
from repro.experiments import RunProfile, get_spec
from repro.runner import execute_campaign, execute_plan

QUICK = RunProfile(preset="quick")

# E2 alone costs ~30s in quick mode (word catalogs, full traces), so the
# timing fleet is the counter-style subset; the schedule model below is
# what extrapolates to the full `all` campaign.
FLEET = ("E8", "E9", "E10", "E11")


def _specs():
    return [get_spec(exp_id) for exp_id in FLEET]


def lpt_makespan(seconds: "list[float]", workers: int) -> float:
    """Makespan of the longest-processing-time schedule on N workers."""
    loads = [0.0] * workers
    for cost in sorted(seconds, reverse=True):
        load = heapq.heappop(loads)
        heapq.heappush(loads, load + cost)
    return max(loads)


def bench_campaign_shared_pool(benchmark):
    """The whole fleet through one 2-worker pool."""
    campaign = benchmark(execute_campaign, _specs(), QUICK, 2)
    for execution in campaign.executions.values():
        execution.result.require_passed()


def bench_sequential_per_experiment_pools(benchmark):
    """The same fleet as four consecutive 2-worker pools (the old path).

    The render comparison is the campaign contract: one shared pool must
    not change a byte of any table.
    """

    def sequential():
        return {
            spec.exp_id: execute_plan(spec, QUICK, jobs=2)
            for spec in _specs()
        }

    executions = benchmark(sequential)
    campaign = execute_campaign(_specs(), QUICK, jobs=2)
    for exp_id, execution in executions.items():
        assert (
            campaign.executions[exp_id].result.render()
            == execution.result.render()
        ), exp_id


def bench_campaign_makespan_model(benchmark):
    """Modeled 4-worker makespans: shared pool vs per-experiment pools.

    One measurement pass (serial, so per-cell seconds are clean), then
    pure arithmetic: the campaign schedules every cell through one LPT
    queue; the sequential path sums per-experiment LPT makespans.  The
    printed ratio is the wall-clock speedup a 4-core machine gets from
    the shared pool *on top of* per-experiment parallelism.
    """
    campaign = benchmark.pedantic(
        execute_campaign, args=(_specs(), QUICK), rounds=1, iterations=1
    )
    per_exp = {
        exp_id: [outcome.seconds for outcome in execution.outcomes]
        for exp_id, execution in campaign.executions.items()
    }
    all_seconds = [s for seconds in per_exp.values() for s in seconds]
    workers = 4
    shared = lpt_makespan(all_seconds, workers)
    sequential = sum(
        lpt_makespan(seconds, workers) for seconds in per_exp.values()
    )
    print(
        f"\ncampaign model ({len(all_seconds)} cells, {workers} workers): "
        f"shared-pool makespan {shared:.3f}s vs per-experiment "
        f"{sequential:.3f}s => {sequential / shared:.2f}x"
    )
    # One queue can never schedule worse than twelve: each experiment's
    # tail idles workers the shared pool would hand the next experiment's
    # cells.  Equality holds when a single cell dominates everything.
    assert shared <= sequential + 1e-9
