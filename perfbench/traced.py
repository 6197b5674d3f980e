"""The traced run: per-layer spans around calls into each ``repro`` module.

The traced run is separate from the timed runs.  It imports the program
into this process, rebinds the public entry points of each layer at
every name their callers bound (module globals, class attributes, the
experiment specs' ``plan``/``finalize``) to :class:`tracing.Tracer`
wrappers, and runs the workload's invocations in-process at
``--jobs 1`` so every span lands in one process's memory.  Nothing
inside ``src/`` is changed.  The tables it prints must be byte-identical
to the untraced run's.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import Tracer, totals

RING_CLASSES = (
    "ring.uni.metrics",
    "ring.uni.full",
    "ring.bidi.metrics.fifo",
    "ring.bidi.metrics.chooser",
    "ring.bidi.full",
)

_MODULES = (
    "repro.dashboard",
    "repro.runner.store",
    "repro.runner.campaign",
    "repro.experiments.registry",
    "repro.core.hierarchy",
    "repro.core.known_n",
    "repro.core.message_graph",
    "repro.core.information_state",
    "repro.languages",
    "repro.languages.hierarchy",
    "repro.languages.nonregular",
    "repro.languages.regular",
    "repro.analysis.growth",
    "repro.obs.journal",
    "repro.ring.line",
    "repro.ring.token",
)


def _arg(fn, name: str):
    """A reader of argument ``name`` from a call's ``(args, kwargs)``."""
    params = list(inspect.signature(fn).parameters.values())
    index = next(i for i, p in enumerate(params) if p.name == name)
    default = params[index].default

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if len(args) > index else default

    return read


def _run_counts(args, kwargs, result) -> dict:
    return {"msgs": result.message_count, "bits": result.total_bits}


def _token_counts(args, kwargs, result) -> dict:
    events = getattr(result, "events", None)
    if events is not None:
        return {"msgs": len(events)}
    return {"msgs": result.move_count + result.carry_count}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(result).stat().st_size}


def _campaign_counts(args, kwargs, result) -> dict:
    return {"cells": result.cell_count, "cached": result.cached_count}


def _dashboard_counts(args, kwargs, result) -> dict:
    return {"files": len(result), "bytes": sum(Path(p).stat().st_size for p in result)}


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` at every module-level binding."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> "list[str]":
    """Wrap each layer's public entry points (the program must be imported).

    Returns the entry points it could not find: a renamed function is
    reported, and its metrics read 0, instead of failing the run.
    """
    missing: "list[str]" = []
    for module in _MODULES:
        try:
            importlib.import_module(module)
        except ImportError:
            missing.append(module)
    cli = sys.modules["repro.cli"]
    base = sys.modules["repro.experiments.base"]
    campaign = sys.modules["repro.runner.campaign"]
    store = sys.modules["repro.runner.store"]
    registry = sys.modules["repro.experiments.registry"]
    ring_uni = importlib.import_module("repro.ring.unidirectional")
    ring_bidi = importlib.import_module("repro.ring.bidirectional")

    def function(name, module, attr, measure=None):
        original = getattr(module, attr, None)
        if module is None or original is None:
            missing.append(f"{getattr(module, '__name__', '?')}.{attr}")
            return
        _rebind(original, tracer.wrap(name, original, measure))

    function("cli.main", cli, "main")
    function("experiments.run_cell", base, "run_cell")
    function("experiments.run_subtask", base, "run_subtask")
    function("experiments.fold", base, "fold_cell")
    function("runner.campaign", campaign, "execute_campaign", _campaign_counts)
    for spec in registry.ALL_SPECS.values():
        # Specs are frozen dataclasses; their hooks are plain attributes.
        object.__setattr__(spec, "plan", tracer.wrap("experiments.plan", spec.plan))
        object.__setattr__(
            spec, "finalize", tracer.wrap("experiments.finalize", spec.finalize)
        )

    def method(name, cls, attr, measure=None):
        if attr not in cls.__dict__:
            missing.append(f"{cls.__qualname__}.{attr}")
            return
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], measure))

    method("experiments.config_hash", base.Cell, "config_hash")
    for attr in ("save", "save_subtask"):
        method("runner.store.save", store.RunStore, attr, _file_bytes)
    for attr in ("load_campaign", "load", "load_subtasks", "require_all"):
        method("runner.store.load", store.RunStore, attr)
    for attr in ("read_record_payload", "read_subtask_payload"):
        function("runner.store.load", store, attr)

    uni_trace = _arg(ring_uni.run_unidirectional, "trace")
    function(
        lambda a, k: "ring.uni.metrics" if uni_trace(a, k) == "metrics" else "ring.uni.full",
        ring_uni, "run_unidirectional", _run_counts,
    )
    bidi_trace = _arg(ring_bidi.run_bidirectional, "trace")
    bidi_scheduler = _arg(ring_bidi.run_bidirectional, "scheduler")

    def bidi_class(args, kwargs) -> str:
        if bidi_trace(args, kwargs) != "metrics":
            return "ring.bidi.full"
        scheduler = bidi_scheduler(args, kwargs)
        batched = scheduler is None or getattr(scheduler, "round_batchable", False)
        return "ring.bidi.metrics.fifo" if batched else "ring.bidi.metrics.chooser"

    function(bidi_class, ring_bidi, "run_bidirectional", _run_counts)
    line = sys.modules.get("repro.ring.line")
    function("ring.line", line, "ring_to_line")
    function("ring.line", line, "restore_from_line")
    function("ring.token", sys.modules.get("repro.ring.token"), "serialize_to_token",
             _token_counts)

    function("core.replay_segment", sys.modules.get("repro.core.hierarchy"), "replay_segment")
    function("core.replay_segment", sys.modules.get("repro.core.known_n"), "replay_segment")
    graph = sys.modules.get("repro.core.message_graph")
    for attr in ("build_message_graph", "infinite_witness", "extract_dfa"):
        function("core.message_graph", graph, attr)
    info = sys.modules.get("repro.core.information_state")
    for attr in getattr(info, "__all__", ()):
        if inspect.isfunction(getattr(info, attr)):
            function("core.information_state", info, attr)

    pending, seen = [sys.modules["repro.languages"].Language], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for attr in ("sample_member", "sample_non_member"):
            if attr in cls.__dict__:
                method("languages.sample", cls, attr)

    journal = sys.modules.get("repro.obs.journal")
    if journal is not None:
        for attr in ("emit", "span", "close"):
            method("obs.journal", journal.Journal, attr)
    function("obs.journal", journal, "note")

    growth = sys.modules.get("repro.analysis.growth")
    function("analysis.growth", growth, "classify_growth")
    function("analysis.growth", growth, "refit_from_store")
    function("dashboard.build", sys.modules.get("repro.dashboard"), "build_dashboard",
             _dashboard_counts)
    return missing


def run_in_process(argv: "list[str]") -> wl.ProcRun:
    """One ``ring-repro`` call through ``repro.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["repro.cli"].main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
    return wl.ProcRun(code or 0, out.getvalue(), err.getvalue(),
                      time.perf_counter() - started, 0.0, 0)


def journal_figures(tel_dir: Path) -> "tuple[int, list[float]]":
    """Journal line count, and the duration of every cell and subtask span."""
    lines = 0
    durations: "list[float]" = []
    for path in sorted(tel_dir.glob("*.jsonl")):
        starts: "dict[int, float]" = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            lines += 1
            try:
                event = json.loads(line)
            except ValueError:
                continue
            ev = event.get("ev", "")
            if ev in ("cell_start", "subtask_start"):
                starts[event["span"]] = event["t"]
            elif ev in ("cell_stop", "subtask_stop") and event.get("span") in starts:
                durations.append(event["t"] - starts.pop(event["span"]))
    return lines, durations


def tail(values: "list[float]") -> float:
    """The highest order statistic with at least ten samples beyond it.

    Below 21 samples that statistic is not above the median, so the
    median is reported instead (the sample count says which it is).
    """
    ordered = sorted(values)
    if len(ordered) > 20:
        return ordered[-11]
    return statistics.median(ordered) if ordered else 0.0


# The untraced twin of the traced run: a fresh interpreter imports the CLI
# and makes the same calls in-process at --jobs 1, with no wrappers.
UNTRACED_CODE = """\
import contextlib, io, json, sys, time
started = time.perf_counter()
import repro.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = repro.cli.main(argv)
    if code:
        sys.exit(code)
print(time.perf_counter() - started)
"""


def layer_metrics(tracer: Tracer) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics computed from the recorded spans."""
    agg = totals(tracer.spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def data_sum(name: str, key: str) -> float:
        return sum(
            (span[4] or {}).get(key, 0) for span in tracer.spans if span[0] == name
        )

    m: "dict[str, tuple[float, str]]" = {}
    m["experiments.plan_s"] = (get("experiments.plan", "total_s"), "s")
    m["experiments.config_hash.calls"] = (get("experiments.config_hash", "calls"), "count")
    for name in ("config_hash", "run_cell", "run_subtask", "fold", "finalize"):
        m[f"experiments.{name}.self_s"] = (get(f"experiments.{name}", "self_s"), "s")
    folds = get("experiments.fold", "calls")
    m["experiments.subtasks_per_divisible_cell"] = (
        get("experiments.run_subtask", "calls") / folds if folds else 0.0, "ratio"
    )
    m["runner.campaign.self_s"] = (get("runner.campaign", "self_s"), "s")
    m["runner.store.save.calls"] = (get("runner.store.save", "calls"), "count")
    m["runner.store.save.self_s"] = (get("runner.store.save", "self_s"), "s")
    m["runner.store.bytes_written"] = (data_sum("runner.store.save", "bytes"), "B")
    m["runner.store.load.self_s"] = (get("runner.store.load", "self_s"), "s")
    cells = data_sum("runner.campaign", "cells")
    m["runner.store.hit_ratio"] = (
        data_sum("runner.campaign", "cached") / cells if cells else 0.0, "ratio"
    )
    for cls in RING_CLASSES:
        own = get(cls, "self_s")
        msgs = data_sum(cls, "msgs")
        m[f"{cls}.calls"] = (get(cls, "calls"), "count")
        m[f"{cls}.self_s"] = (own, "s")
        m[f"{cls}.msgs"] = (msgs, "msg")
        m[f"{cls}.bits"] = (data_sum(cls, "bits"), "bit")
        m[f"{cls}.msgs_per_s"] = (msgs / own if own else 0.0, "msg/s")
    m["ring.line.self_s"] = (get("ring.line", "self_s"), "s")
    m["ring.token.self_s"] = (get("ring.token", "self_s"), "s")
    m["ring.token.msgs"] = (data_sum("ring.token", "msgs"), "msg")
    m["core.replay_segment.calls"] = (get("core.replay_segment", "calls"), "count")
    m["core.replay_segment.self_s"] = (get("core.replay_segment", "self_s"), "s")
    m["core.message_graph.self_s"] = (get("core.message_graph", "self_s"), "s")
    m["core.information_state.self_s"] = (get("core.information_state", "self_s"), "s")
    m["languages.sample.calls"] = (get("languages.sample", "calls"), "count")
    m["languages.sample.self_s"] = (get("languages.sample", "self_s"), "s")
    m["analysis.growth.self_s"] = (get("analysis.growth", "self_s"), "s")
    m["obs.journal.self_s"] = (get("obs.journal", "self_s"), "s")
    m["dashboard.build.self_s"] = (get("dashboard.build", "self_s"), "s")
    m["dashboard.files"] = (data_sum("dashboard.build", "files"), "count")
    m["dashboard.bytes"] = (data_sum("dashboard.build", "bytes"), "B")
    return m


def largest_self_times(tracer: Tracer, top: int = 5) -> "list[tuple[str, float]]":
    agg = totals(tracer.spans)
    ranked = sorted(agg.items(), key=lambda item: -item[1]["self_s"])
    return [(name, entry["self_s"]) for name, entry in ranked[:top]]


def traced_invocations(
    invocations, cwd: Path, tel_dir: Path, checks: "wl.Checks", untraced: dict
) -> "tuple[Tracer, float, float]":
    """Import, instrument and run the workload in this process at ``--jobs 1``.

    Returns the tracer, the import time of ``repro.cli`` and the traced
    wall clock (import included).  Each invocation's tables are checked
    against the untraced run's (``untraced`` maps label to digest).
    """
    for switch in wl.SWITCHES:
        os.environ.pop(switch, None)
    os.environ["REPRO_TELEMETRY_DIR"] = str(tel_dir)
    sys.path.insert(0, str(wl.SRC))
    home = os.getcwd()
    os.chdir(cwd)
    try:
        started = time.perf_counter()
        importlib.import_module("repro.cli")
        import_s = time.perf_counter() - started
        tracer = Tracer()
        missing = install(tracer)
        if missing:
            print("not traced (entry points not found): " + ", ".join(missing))
        matched = 0
        for inv in invocations:
            run = run_in_process(inv.argv(out="dash-traced", jobs=1))
            checks.invocation(inv, run)
            if inv.command == "dashboard":
                value = wl.tree_digest(cwd / "dash-traced")
                checks.same("dashboard-tree", value)
                label = "dashboard-tree"
            else:
                value = wl.digest(wl.tables(run.stdout))
                label = inv.label
            matched += checks.check(untraced.get(label) == value,
                                    f"{label}: traced tables differ from the untraced run's")
        wall = time.perf_counter() - started
    finally:
        os.chdir(home)
    print(f"traced tables: {matched} of {len(invocations)} invocation(s) "
          "byte-identical to the untraced run's")
    return tracer, import_s, wall


def pool_metrics(stdout: str) -> "dict[str, tuple[float, str]]":
    busy, capacity, idle, straggler = wl.pool_figures(stdout)
    return {
        "runner.pool.utilization": (busy / capacity if capacity else 0.0, "ratio"),
        "runner.pool.idle_straggler_frac": (straggler / idle if idle else 0.0, "ratio"),
    }


def cell_metrics(durations: "list[float]") -> "dict[str, tuple[float, str]]":
    return {
        "runner.cell_p50_s": (statistics.median(durations) if durations else 0.0, "s"),
        "runner.cell_tail_s": (tail(durations), "s"),
        "runner.cell_samples": (len(durations), "count"),
    }
