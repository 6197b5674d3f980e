"""The engine picks its own route; no environment variable overrides it.

Two routes reach every bit count: round-batched delivery or the
heap/deque loop, and divided cells or monolithic ones.  The engine
chooses by itself — a run batches if and only if its scheduler is
``round_batchable`` and it streams ``trace="metrics"``, and a campaign
splits every divisible cell.  The two variables that once forced the
other route, ``REPRO_NO_SPLIT`` and ``REPRO_NO_ROUND_BATCH``, are set
here to prove that nothing reads them any more: a store rendered with
or without them is the same site.
"""

from __future__ import annotations

import pytest

from repro.dashboard import build_dashboard
from repro.experiments import RunProfile, get_spec
from repro.ring.schedulers import FifoScheduler
from repro.runner import RunStore, execute_campaign
from test_delivery_batch import _run_chaos_bidi, _run_chaos_line

QUICK = RunProfile(preset="quick")
RETIRED = ("REPRO_NO_SPLIT", "REPRO_NO_ROUND_BATCH")


def _set_retired(monkeypatch) -> None:
    for name in RETIRED:
        monkeypatch.setenv(name, "1")


def _clear_retired(monkeypatch) -> None:
    for name in RETIRED:
        monkeypatch.delenv(name, raising=False)


def _site(out_dir) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def test_campaign_still_splits(monkeypatch, tmp_path):
    _set_retired(monkeypatch)
    campaign = execute_campaign(
        [get_spec("E2"), get_spec("E9")],
        QUICK,
        jobs=1,
        store=RunStore(tmp_path / "runs"),
    )
    assert campaign.subtasks_run > 0
    assert campaign.cells_folded > 0


@pytest.mark.parametrize("run", [_run_chaos_bidi, _run_chaos_line])
def test_fifo_metrics_run_still_batches(run, monkeypatch):
    """Poisoned LinkQueues: the heap oracle must not be built."""
    import repro.ring.bidirectional as bidirectional
    import repro.ring.line as line

    class _Poisoned:
        def __init__(self, *args, **kwargs):
            raise AssertionError("metrics run under FIFO built LinkQueues")

    _set_retired(monkeypatch)
    for module in (bidirectional, line):
        monkeypatch.setattr(module, "LinkQueues", _Poisoned)
    stats, _ = run(7, 9, FifoScheduler(), "metrics")
    assert stats.decision is True


def test_dashboard_ignores_retired_variables(monkeypatch, tmp_path):
    _clear_retired(monkeypatch)
    store = RunStore(tmp_path / "runs")
    execute_campaign([get_spec("E2"), get_spec("E9")], QUICK, store=store)
    bench = tmp_path / "bench"
    bench.mkdir()
    build_dashboard(store, QUICK, tmp_path / "plain", bench_dir=bench)
    _set_retired(monkeypatch)
    build_dashboard(store, QUICK, tmp_path / "set", bench_dir=bench)
    plain, with_vars = _site(tmp_path / "plain"), _site(tmp_path / "set")
    assert list(plain) == list(with_vars)
    for name in plain:
        assert plain[name] == with_vars[name], name
