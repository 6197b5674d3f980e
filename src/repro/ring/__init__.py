"""Asynchronous ring simulation with exact bit accounting.

This subpackage is the paper's execution model made executable:

* :mod:`repro.ring.messages` — messages are explicit bit strings with a
  travel direction.
* :mod:`repro.ring.processor` — the message-driven processor API.  All
  processors except the leader run the same code (the paper's uniformity
  assumption); only the leader may decide.
* :mod:`repro.ring.unidirectional` — the unidirectional ring, whose
  execution is unique (paper §2) and decomposes into passes.
* :mod:`repro.ring.bidirectional` — the bidirectional ring with pluggable
  schedulers covering the asynchronous adversary.
* :mod:`repro.ring.trace` — execution traces: ordered message events,
  per-link totals, per-processor *information states* (paper §4); plus
  :class:`~repro.ring.trace.TraceStats`, the O(n)-memory streaming
  counters every simulator can produce instead via ``trace="metrics"``.
* :mod:`repro.ring.token` — token-algorithm checks and the chaotic→token
  serialization used by Theorem 5.
* :mod:`repro.ring.line` — the Theorem 5 ring→line execution transformation
  and a line-network simulator for the Theorem 7 compiler.
"""

from repro._lazy import lazy_exports

# Each public name, in ``__all__`` order, and the submodule defining it.
_EXPORTS = {
    "Direction": ".messages",
    "Send": ".messages",
    "Processor": ".processor",
    "LeaderMixin": ".processor",
    "RingAlgorithm": ".processor",
    "MessageEvent": ".trace",
    "InformationState": ".trace",
    "ExecutionTrace": ".trace",
    "TraceStats": ".trace",
    "UnidirectionalRing": ".unidirectional",
    "run_unidirectional": ".unidirectional",
    "BidirectionalRing": ".bidirectional",
    "run_bidirectional": ".bidirectional",
    "Scheduler": ".schedulers",
    "FifoScheduler": ".schedulers",
    "LifoScheduler": ".schedulers",
    "RandomScheduler": ".schedulers",
    "AdversarialScheduler": ".schedulers",
    "TokenTrace": ".token",
    "TokenStats": ".token",
    "is_token_trace": ".token",
    "serialize_to_token": ".token",
    "LineNetwork": ".line",
    "LineTransformResult": ".line",
    "LineTransformStats": ".line",
    "ring_to_line": ".line",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
