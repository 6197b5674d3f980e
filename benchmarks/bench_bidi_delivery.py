"""Benchmarks for the bidirectional delivery engines: sweep vs chooser.

For a hand-written processor pair such as the echo flood below, the
scheduler alone picks one of two engines (see
``repro/ring/delivery.py``):

* **round-batched sweep** — the default FIFO scheduler, on either trace
  policy: whole rounds swept over packed lists, no per-delivery
  scheduling; ``trace="full"`` records through a processor wrapper;
* **chooser loop** — every scheduler that is not ``round_batchable``
  (``_BatchOff`` below: FIFO order, batching declined — the sweep's
  bit-for-bit oracle): one ``choose`` call per delivery over the
  incrementally sorted candidate view, O(log q) bisect maintenance per
  delivery for q active queues.

Every timed path first asserts identical accounting (bits, message
count, peak in-flight) against the others — same delivery order by
construction.  A single-token relay program (Theorem 6's DFA
recognizer) takes neither: its metrics runs walk the word, and the
sequential bench asserts that route.  Run with
``pytest benchmarks/bench_bidi_delivery.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.bits import Bits
from repro.ring.bidirectional import run_bidirectional
from repro.ring.messages import Direction, Send
from repro.ring.processor import Processor, RingAlgorithm
from repro.ring.schedulers import FifoScheduler, Scheduler


class _BatchOff(FifoScheduler):
    """FIFO delivery order via the chooser loop (round batching declined).

    Same order as :class:`FifoScheduler`; leaving ``round_batchable``
    False puts every run on the chooser loop's sorted candidate view,
    which is how the benchmarks time the oracle the sweep is diffed
    against.
    """

    round_batchable = False


_WAVE = Bits("1")
_ECHO = Bits("0")

# Preallocated responses: the protocol is deliberately allocation-light
# (identity checks, constant tuples) so the timings isolate the delivery
# engines' own overhead rather than per-message Send construction.
_LAUNCH = (Send.cw(_WAVE),)
_WAVE_FWD = (Send.cw(_WAVE), Send.ccw(_ECHO))
_ECHO_BACK = (Send.ccw(_ECHO),)
_SILENT = ()


class _EchoLeader(Processor):
    """Launch the wave; absorb it plus one echo from every relay."""

    def __init__(self, letter: str, expected: int) -> None:
        super().__init__(letter, is_leader=True)
        self._expected = expected
        self._absorbed = 0

    def on_start(self) -> Iterable[Send]:
        return _LAUNCH

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        self._absorbed += 1
        if self._absorbed == self._expected:
            self.decide(True)
        return _SILENT


class _EchoRelay(Processor):
    """Forward the wave; echo *backward* to the leader when it passes."""

    def on_receive(self, message: Bits, arrived_from: Direction) -> Iterable[Send]:
        if message is _WAVE:
            return _WAVE_FWD
        return _ECHO_BACK


class EchoFlood(RingAlgorithm):
    """Every relay the wave passes sends an echo back toward the leader.

    The echoes travel against the wave, so under round-robin
    (global-FIFO) delivery the live messages sit at *distinct* ring
    positions and never merge into one frontier queue: the concurrently
    active queue count q grows with the ring instead of staying O(1) —
    the regime where a full per-delivery re-sort would cost O(q log q)
    while the incrementally sorted view pays O(log q) search plus one
    O(q) shift and the batch engine pays O(1).  Total deliveries are
    ~n^2/2.
    """

    name = "echo-flood"

    def __init__(self) -> None:
        super().__init__("ab")

    def create_processor_positioned(
        self, letter: str, is_leader: bool, index: int, size: int
    ) -> Processor:
        if is_leader:
            return _EchoLeader(letter, expected=size)
        return _EchoRelay(letter, is_leader=False)

    def create_processor(self, letter: str, is_leader: bool) -> Processor:
        raise NotImplementedError("EchoFlood needs ring positions")


_N = 256
_N_LARGE = 1024  # the size of the historical batch-engine acceptance row


def _run(scheduler: Scheduler, n: int = _N, trace: str = "metrics"):
    word = "a" * n
    return run_bidirectional(
        EchoFlood(), word, scheduler=scheduler, trace=trace
    )


def _assert_engines_agree(n: int) -> None:
    """Sweep and chooser loop: identical accounting at size n."""
    batch = _run(FifoScheduler(), n)
    sort = _run(_BatchOff(), n)
    assert batch.total_bits == sort.total_bits
    assert batch.message_count == sort.message_count
    assert batch.link_bits == sort.link_bits
    assert batch.sent_counts == sort.sent_counts
    assert batch.pass_bits == sort.pass_bits
    assert batch.max_in_flight == sort.max_in_flight
    assert batch.decision == sort.decision


def bench_flood_batch_engine(benchmark):
    """n=1024 echo flood on the round-batched engine (the acceptance case)."""
    _assert_engines_agree(_N)
    result = benchmark(_run, FifoScheduler(), _N_LARGE)
    assert result.decision is True
    assert result.max_in_flight >= _N_LARGE // 2


def bench_flood_batch_small(benchmark):
    """n=256 flood, batch engine (comparable with the historical n=256 rows)."""
    result = benchmark(_run, FifoScheduler())
    assert result.decision is True
    assert result.max_in_flight >= _N // 2


def bench_flood_full_trace(benchmark):
    """n=256 flood, ``trace="full"`` on the batch engine (recording sink)."""
    metrics = _run(FifoScheduler())
    result = benchmark(_run, FifoScheduler(), _N, "full")
    assert result.decision is True
    assert result.stats().total_bits == metrics.total_bits
    assert result.max_in_flight == metrics.max_in_flight


def bench_flood_sorted_path(benchmark):
    """Same flood, same order, chooser loop's sorted view (regression case).

    Before PR 8 this path re-sorted every active queue per delivery
    (O(q log q)); it now bisect-maintains the view, so its gap to the
    batch bench above is the regression being watched.
    """
    result = benchmark(_run, _BatchOff())
    assert result.decision is True
    assert result.max_in_flight >= _N // 2


def bench_sequential_batch_overhead(benchmark):
    """q=1 workload: a sequential recognizer's metrics run on the relay walk.

    Theorem 6's DFA recognizer declares a relay program, so under the
    default FIFO it walks the word instead of taking the batch engine;
    the assertion fails if the route silently changes.
    """
    result = benchmark(_run_sequential)
    assert result.decision is True
    assert result.engine == "walk"


def _run_sequential():
    from repro.core.regular_bidirectional import BidirectionalDFARecognizer
    from repro.languages.regular import parity_language

    algorithm = BidirectionalDFARecognizer(parity_language().dfa)
    return run_bidirectional(algorithm, "ab" * 256, trace="metrics")
