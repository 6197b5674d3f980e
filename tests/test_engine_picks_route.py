"""The engine picks its own route; no environment variable overrides it.

Two routes reach every bit count: the relay walk, the round-batched
sweep or the chooser loop, and divided cells or monolithic ones.  The
engine chooses by itself — a ``trace="metrics"`` run of an algorithm
with a relay program walks, on either ring and under every scheduler;
any other run sweeps if and only if its scheduler is
``round_batchable`` (whatever its trace policy), and a campaign splits
every divisible cell.  Each metrics run
names its engine in ``TraceStats.engine``, so a silent fallback fails
here.  The two variables that once forced the other route,
``REPRO_NO_SPLIT`` and ``REPRO_NO_ROUND_BATCH``, are set here to prove
that nothing reads them any more: a store rendered with or without them
is the same site.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core import CopyRecognizer, DFARecognizer, HierarchyRecognizer
from repro.core.passes_tradeoff import (
    OnePassTradeoffRecognizer,
    TwoPassTradeoffRecognizer,
)
from repro.core.regular_onepass import TransducerRingAlgorithm
from repro.dashboard import build_dashboard
from repro.experiments import RunProfile, get_spec
from repro.experiments.e02_message_graph import CountingTransducer
from repro.languages import parity_language
from repro.languages.hierarchy import STANDARD_GROWTHS, PeriodicLanguage
from repro.languages.regular import tradeoff_language
from repro.ring import (
    BidirectionalRing,
    UnidirectionalRing,
    run_bidirectional,
    run_unidirectional,
)
from repro.ring.schedulers import FifoScheduler, RandomScheduler
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


def _walkers():
    tradeoff = tradeoff_language(2)
    return [
        (DFARecognizer(parity_language().dfa), "abba"),
        (TransducerRingAlgorithm(CountingTransducer()), "abab"),
        (OnePassTradeoffRecognizer(tradeoff), "0123"),
        (TwoPassTradeoffRecognizer(tradeoff), "0123"),
    ]


@pytest.mark.parametrize("index", range(4))
def test_relay_programs_walk_on_metrics(index, monkeypatch):
    """A transducer or multipass metrics run walks and builds no processor."""
    algorithm, word = _walkers()[index]

    def refuse(*args, **kwargs):
        raise AssertionError("a walked run built a processor")

    monkeypatch.setattr(algorithm, "create_processor_positioned", refuse)
    assert run_unidirectional(algorithm, word, trace="metrics").engine == "walk"


@pytest.mark.parametrize("index", range(4))
def test_full_traces_of_relay_programs_sweep(index, monkeypatch):
    """Full traces need events, so they keep the processors on the sweep."""
    import repro.ring.unidirectional as unidirectional

    def refuse(*args, **kwargs):
        raise AssertionError("a full trace took the walk")

    monkeypatch.setattr(unidirectional, "run_relay", refuse)
    algorithm, word = _walkers()[index]
    ring = UnidirectionalRing(algorithm, word)
    trace = ring.run(trace="full")
    assert ring.processors[0].decision is trace.decision is not None


def test_hand_written_pairs_sweep():
    language = PeriodicLanguage(STANDARD_GROWTHS[0])
    word = language.sample_member(8, random.Random(1))
    for algorithm, ring_word in (
        (HierarchyRecognizer(language), word),
        (CopyRecognizer(), "abcab"),
    ):
        stats = run_unidirectional(algorithm, ring_word, trace="metrics")
        assert stats.engine == "sweep"


def test_bidirectional_runs_keep_their_engine(monkeypatch):
    """On the bidirectional ring a relay program's metrics run walks under
    FIFO and under a random scheduler, and builds no processor; a
    hand-written pair keeps the chooser, and a full trace never walks."""
    algorithm = DFARecognizer(parity_language().dfa)

    def refuse(*args, **kwargs):
        raise AssertionError("a walked run built a processor")

    with monkeypatch.context() as patch:
        patch.setattr(algorithm, "create_processor_positioned", refuse)
        fifo = run_bidirectional(
            algorithm, "abba", FifoScheduler(), trace="metrics"
        )
        chosen = run_bidirectional(
            algorithm, "abba", RandomScheduler(seed=1), trace="metrics"
        )
    assert (fifo.engine, chosen.engine) == ("walk", "walk")

    pair = run_bidirectional(
        CopyRecognizer(), "abcab", RandomScheduler(seed=1), trace="metrics"
    )
    assert pair.engine == "chooser"

    import repro.ring.unidirectional as unidirectional

    def no_walk(*args, **kwargs):
        raise AssertionError("a full trace took the walk")

    monkeypatch.setattr(unidirectional, "run_relay", no_walk)
    for scheduler in (FifoScheduler(), RandomScheduler(seed=1)):
        ring = BidirectionalRing(algorithm, "abba", scheduler)
        trace = ring.run(trace="full")
        assert ring.processors[0].decision is trace.decision is not None
