"""The engine picks its own route; no environment variable overrides it.

Two routes reach every bit count: the round-batched sweep or the
chooser loop, and divided cells or monolithic ones.  The engine
chooses by itself — a run sweeps if and only if its scheduler is
``round_batchable`` (whatever its trace policy), and a campaign splits
every divisible cell.  The two variables that once forced the
other route, ``REPRO_NO_SPLIT`` and ``REPRO_NO_ROUND_BATCH``, are set
here to prove that nothing reads them any more: a store rendered with
or without them is the same site.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.dashboard import build_dashboard
from repro.experiments import RunProfile, get_spec
from repro.ring.schedulers import FifoScheduler
from repro.runner import RunStore, execute_campaign
from test_delivery_batch import (
    _run_chaos_bidi,
    _run_chaos_line,
    _run_chaos_uni,
)

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


def _poison_link_queues(monkeypatch) -> None:
    """Make building LinkQueues, wherever a ring module holds it, fail."""
    import repro.ring.bidirectional as bidirectional
    import repro.ring.delivery as delivery
    import repro.ring.line as line

    class _Poisoned:
        def __init__(self, *args, **kwargs):
            raise AssertionError("run under FIFO built LinkQueues")

    for module in (delivery, bidirectional, line):
        if hasattr(module, "LinkQueues"):
            monkeypatch.setattr(module, "LinkQueues", _Poisoned)


@pytest.mark.parametrize("run", [_run_chaos_bidi, _run_chaos_line])
def test_fifo_metrics_run_still_batches(run, monkeypatch):
    """Poisoned LinkQueues: the chooser oracle must not be built."""
    _set_retired(monkeypatch)
    _poison_link_queues(monkeypatch)
    stats, _ = run(7, 9, FifoScheduler(), "metrics")
    assert stats.decision is True


@pytest.mark.parametrize(
    "run",
    [
        partial(_run_chaos_bidi, 7, 9, FifoScheduler()),
        partial(_run_chaos_line, 7, 9, FifoScheduler()),
        partial(_run_chaos_uni, 7, 9),
    ],
    ids=["bidi", "line", "uni"],
)
def test_fifo_full_run_builds_no_link_queues(run, monkeypatch):
    """A full trace under FIFO rides the sweep: the policy picks the sink,
    never the engine.  The trace still agrees with the metrics run."""
    _poison_link_queues(monkeypatch)
    full, full_journal = run("full")
    stats, journal = run("metrics")
    assert full.decision is True
    assert full_journal == journal
    assert full.stats().total_bits == stats.total_bits
    assert full.max_in_flight == stats.max_in_flight


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
