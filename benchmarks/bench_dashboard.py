"""Benchmarks for the dashboard renderer: store-only, sub-second.

Times ``build_dashboard`` over a populated quick store and asserts the
presentation-layer contracts that double as perf guards: rendering is a
pure read of the store (two builds byte-identical) and stays orders of
magnitude cheaper than the measurements it displays — the PERFORMANCE.md
layer-6 target is a full long-preset store rendered in under a second,
so the quick store here gets a loose 2 s ceiling that still catches an
accidental simulation sneaking into the render path.  Run with
``pytest benchmarks/bench_dashboard.py``.
"""

from __future__ import annotations

import time

from bench_harness import journals_in_tmp  # noqa: F401 (autouse fixture)
from repro.dashboard import build_dashboard
from repro.experiments import RunProfile, get_spec
from repro.runner import RunStore, execute_campaign

QUICK = RunProfile(preset="quick")

FLEET = ("E1", "E7", "E8", "E9", "E10", "E11")


def _populated_store(tmp_path) -> RunStore:
    store = RunStore(tmp_path / "runs")
    execute_campaign([get_spec(e) for e in FLEET], QUICK, store=store)
    return store


def bench_build_dashboard_quick_store(benchmark, tmp_path):
    """Full dashboard build (index + 12 pages + exports) from the store."""
    store = _populated_store(tmp_path)
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    written = benchmark(
        build_dashboard,
        store,
        QUICK,
        tmp_path / "site",
        4,
        bench_dir,
    )
    assert any(path.name == "index.html" for path in written)
    # index + E1..E12 + telemetry.html
    assert sum(1 for path in written if path.suffix == ".html") == 14


def bench_dashboard_render_is_store_bound(benchmark, tmp_path):
    """One timed render: must be a cheap pure read, byte-stable."""
    store = _populated_store(tmp_path)
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()

    def build_once():
        started = time.perf_counter()
        build_dashboard(store, QUICK, tmp_path / "a", 4, bench_dir)
        return time.perf_counter() - started

    seconds = benchmark.pedantic(build_once, rounds=1, iterations=1)
    build_dashboard(store, QUICK, tmp_path / "b", 4, bench_dir)
    first = {
        path.name: path.read_bytes()
        for path in (tmp_path / "a").iterdir()
    }
    second = {
        path.name: path.read_bytes()
        for path in (tmp_path / "b").iterdir()
    }
    assert first == second
    print(f"\ndashboard render: {len(first)} files in {seconds:.3f}s")
    # Loose ceiling for noisy CI runners; locally this is ~0.15s for the
    # quick store and ~0.45s for the full long-preset store (layer 6).
    assert seconds < 2.0
