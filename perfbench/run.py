"""The repo benchmark: user-action workloads of the ``ring-repro`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload store-warm --seed 0 --seconds 20 --trace 1

``--trace 0`` is the timed run.  It repeats the workload's iteration —
fresh ``ring-repro`` processes, one after another — until ``--seconds``
have passed, and reports medians:

* ``wall_s``: wall clock of the iteration's processes, interpreter
  start-up included;
* ``cpu_s``: user plus system seconds of the whole process tree, pool
  workers included;
* ``peak_rss_mb``: the highest max-RSS of any process in the iteration;
* ``setup_s``: wall clock of a fresh interpreter that imports
  ``repro.cli`` and builds the workload's plans, executing nothing (one
  sample before each iteration, at least five).

``--trace 1`` is the separate traced run (:mod:`traced`): untraced
reference runs (telemetry on and off, and ``--jobs 1``), then the
workload in-process at ``--jobs 1`` with spans around calls into each
layer, reported as the per-layer metrics.

Every run checks the program's output: exit codes, ``RESULT: PASS`` per
experiment, table digests against ``references.json`` (regenerate with
``perfbench/capture.py``), verify verdicts, and on ``store-warm`` that
resume measured nothing and the dashboard tree is unchanged.
``fail_frac`` = failed / attempted checks.  The last stdout line is one
JSON object ``{correct, attempted, failed, metrics}``; every metric is
also written as canonical ``{name, value, unit, context}`` records to
``perfbench/out/<workload>-seed<S>-trace<T>.json``, which ``ring-repro
ledger append`` ingests as is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import traced
import workloads as wl

OUT = wl.HERE / "out"
WORK = wl.HERE / "work"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.import_s": "s",
    "experiments.plan_s": "s",
    "experiments.config_hash.calls": "count",
    "experiments.config_hash.self_s": "s",
    "experiments.run_cell.self_s": "s",
    "experiments.run_subtask.self_s": "s",
    "experiments.fold.self_s": "s",
    "experiments.finalize.self_s": "s",
    "experiments.subtasks_per_divisible_cell": "ratio",
    "runner.campaign.self_s": "s",
    "runner.store.save.calls": "count",
    "runner.store.save.self_s": "s",
    "runner.store.bytes_written": "B",
    "runner.store.load.self_s": "s",
    "runner.store.hit_ratio": "ratio",
    "runner.pool.utilization": "ratio",
    "runner.pool.idle_straggler_frac": "ratio",
    "runner.cell_p50_s": "s",
    "runner.cell_tail_s": "s",
    "runner.cell_samples": "count",
    **{
        f"{cls}.{field}": unit
        for cls in traced.RING_CLASSES
        for field, unit in (
            ("calls", "count"),
            ("self_s", "s"),
            ("msgs", "msg"),
            ("bits", "bit"),
            ("msgs_per_s", "msg/s"),
        )
    },
    "ring.line.self_s": "s",
    "ring.token.self_s": "s",
    "ring.token.msgs": "msg",
    "core.replay_segment.calls": "count",
    "core.replay_segment.self_s": "s",
    "core.message_graph.self_s": "s",
    "core.information_state.self_s": "s",
    "languages.sample.calls": "count",
    "languages.sample.self_s": "s",
    "analysis.growth.self_s": "s",
    "obs.journal.lines": "count",
    "obs.journal.self_s": "s",
    "obs.journal.overhead_s": "s",
    "dashboard.build.self_s": "s",
    "dashboard.files": "count",
    "dashboard.bytes": "B",
    "bench.trace_overhead_s": "s",
    "host.spin_s": "s",
}

SETUP_MIN_SAMPLES = 5

# What an invocation pays before its first cell: import the CLI, build plans.
SETUP_CODE = """\
import json, sys
import repro.cli
from repro.experiments import ALL_EXPERIMENTS, get_spec
for exps, preset, sizes, mode in json.loads(sys.argv[1]):
    profile = repro.cli.build_profile(preset, sizes, False, mode)
    for exp_id in (list(ALL_EXPERIMENTS) if exps == ["all"] else exps):
        get_spec(exp_id).plan(profile)
"""


def spin() -> float:
    """Seconds for a fixed pure-Python loop: the machine reference."""
    started = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def bench_record(name: str, value, unit: str = "", context: str = "") -> dict:
    """One canonical ledger record (the schema ``bench_harness.bench_record`` emits)."""
    return {"name": name, "value": value, "unit": unit, "context": context}


class Sample:
    """One iteration: summed wall and CPU, peak RSS, and each call's run."""

    def __init__(self, cwd: Path) -> None:
        self.cwd = cwd
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.maxrss_kb = 0
        self.runs: "dict[str, wl.ProcRun]" = {}
        self.digests: "dict[str, str]" = {}

    @property
    def stdout(self) -> str:
        return "".join(run.stdout for run in self.runs.values())


def iteration(workload, invocations, base: Path, index, env, checks,
              jobs=None) -> Sample:
    """Run the workload's invocations once, as fresh processes, and check them."""
    if workload.fresh_store:
        cwd = base / f"it-{index}"
        cwd.mkdir()
    else:
        cwd = base
        shutil.rmtree(cwd / "tel", ignore_errors=True)
    sample = Sample(cwd)
    for inv in invocations:
        out = f"dash-{index}"
        run = wl.run_cli(inv.argv(out=out, jobs=jobs), cwd, env,
                         f"{inv.label.replace(' ', '_')}-{index}")
        sample.wall_s += run.wall_s
        sample.cpu_s += run.cpu_s
        sample.maxrss_kb = max(sample.maxrss_kb, run.maxrss_kb)
        sample.runs[inv.label] = run
        checks.invocation(inv, run)
        if inv.command == "dashboard":
            value = wl.tree_digest(cwd / out)
            checks.same("dashboard-tree", value)
            sample.digests["dashboard-tree"] = value
            shutil.rmtree(cwd / out)
        else:
            sample.digests[inv.label] = wl.digest(wl.tables(run.stdout))
    return sample


def discard(workload, sample: Sample) -> None:
    if workload.fresh_store:
        shutil.rmtree(sample.cwd, ignore_errors=True)


def prepare(workload, work: Path, env, checks, smoke: bool) -> Path:
    """The directory iterations run in; ``store-warm`` fills its store here."""
    if not workload.fill():
        return work
    warm = work / "warm"
    (warm / "bench").mkdir(parents=True)
    for inv in workload.fill(smoke):
        checks.invocation(inv, wl.run_cli(inv.argv(), warm, env, inv.label.replace(" ", "_")))
    ingest = wl.run_cli(["ingest", "fill", "--into", "store", "--strip-seconds"],
                        warm, env, "ingest")
    checks.check(ingest.code == 0, f"ingest: exit code {ingest.code}\n{ingest.stderr}")
    shutil.rmtree(warm / "fill", ignore_errors=True)
    return warm


def setup_sample(invocations, work: Path, env, checks) -> float:
    """Wall clock of one fresh interpreter importing the CLI and planning."""
    plans = json.dumps([inv.plan() for inv in invocations])
    run = wl.run_process([sys.executable, "-c", SETUP_CODE, plans], work, env, "setup")
    checks.check(run.code == 0, f"setup: exit code {run.code}\n{run.stderr[-2000:]}")
    return run.wall_s


def timed(workload, seed: int, seconds: float, smoke: bool, work: Path, env, checks):
    invocations = workload.invocations(seed, smoke)
    base = prepare(workload, work, env, checks, smoke)
    samples: "list[Sample]" = []
    setup: "list[float]" = []
    started = time.perf_counter()
    # Set-up samples interleave with the iterations, so both are taken over
    # the same stretch of time and a passing change in host speed moves
    # them alike.  The last iteration starts only if it should end less
    # than half an iteration past ``seconds``.
    while not samples or (time.perf_counter() - started
                          + samples[-1].wall_s / 2 < seconds):
        setup.append(setup_sample(invocations, work, env, checks))
        sample = iteration(workload, invocations, base, len(samples), env, checks)
        discard(workload, sample)
        samples.append(sample)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample(invocations, work, env, checks))
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in samples), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s.maxrss_kb for s in samples) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {
        "wall_s.samples": (len(samples), "count"),
        "setup_s.samples": (len(setup), "count"),
    }
    return metrics, extra


def traced_run(workload, seed: int, smoke: bool, work: Path, env, checks,
               spans_out: Path):
    invocations = workload.invocations(seed, smoke)
    base = prepare(workload, work, env, checks, smoke)
    first = iteration(workload, invocations, base, "on-0", env, checks)
    layers = traced.pool_metrics(first.stdout)
    lines, durations = traced.journal_figures(first.cwd / "tel")
    layers.update(traced.cell_metrics(durations))
    layers["obs.journal.lines"] = (lines, "count")
    untraced = dict(first.digests)
    discard(workload, first)

    # Journal overhead: alternate telemetry-on and -off runs; cheap
    # workloads get more pairs so the median difference means something.
    off_env = dict(env, REPRO_NO_TELEMETRY="1")
    pairs = max(1, min(5, int(6 / max(first.wall_s, 1e-3))))
    on_walls, off_walls = [first.wall_s], []
    for k in range(pairs):
        if k:
            sample = iteration(workload, invocations, base, f"on-{k}", env, checks)
            discard(workload, sample)
            on_walls.append(sample.wall_s)
        sample = iteration(workload, invocations, base, f"off-{k}", off_env, checks)
        discard(workload, sample)
        off_walls.append(sample.wall_s)
    layers["obs.journal.overhead_s"] = (
        statistics.median(on_walls) - statistics.median(off_walls), "s")
    serial_cwd = base
    if workload.fresh_store:
        serial_cwd = work / "serial"
        serial_cwd.mkdir()
    serial = wl.run_process(
        [sys.executable, "-c", traced.UNTRACED_CODE,
         json.dumps([inv.argv(out="dash-serial", jobs=1) for inv in invocations])],
        serial_cwd, env, "serial")
    checks.check(serial.code == 0, f"untraced in-process run: exit code {serial.code}\n"
                 f"{serial.stderr[-2000:]}")
    serial_wall = float(serial.stdout) if serial.code == 0 else 0.0

    cwd = base
    if workload.fresh_store:
        cwd = work / "traced"
        cwd.mkdir()
    shutil.rmtree(cwd / "tel", ignore_errors=True)
    tracer, import_s, traced_wall = traced.traced_invocations(
        invocations, cwd, cwd / "tel", checks, untraced)
    layers["cli.import_s"] = (import_s, "s")
    layers["bench.trace_overhead_s"] = (traced_wall - serial_wall, "s")
    layers.update(traced.layer_metrics(tracer))
    spans_out.parent.mkdir(exist_ok=True)
    tracer.dump(spans_out)
    largest = traced.largest_self_times(tracer)
    print("largest self times: " + ", ".join(f"{n} {v:.4f} s" for n, v in largest))
    hashing = layers["experiments.config_hash.self_s"][0]
    if largest and largest[0][0] != "experiments.config_hash":
        print(f"experiments.config_hash.self_s ({hashing:.4f} s) is not the largest "
              f"self time; {largest[0][0]} is ({largest[0][1]:.4f} s)")
    return layers, {"bench.traced_wall_s": (traced_wall, "s"),
                    "bench.serial_wall_s": (serial_wall, "s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and the quick preset, checked only "
                        "for self-consistency (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not wl.program_present():
        print(f"perfbench: no program at {wl.SRC / 'repro'}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    checks = wl.Checks(None if args.smoke else wl.references(workload, args.seed))
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    env = wl.child_env(Path("tel"), work / "tmp")
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    spin_start = spin()
    try:
        if args.trace:
            metrics, extra = traced_run(workload, args.seed, args.smoke, work, env, checks,
                                        OUT / f"{stem}.spans.jsonl")
        else:
            metrics, extra = timed(workload, args.seed, args.seconds, args.smoke,
                                   work, env, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    spin_end = spin()
    host = {
        "host.spin_s": ((spin_start + spin_end) / 2, "s"),
        "host.spin_start_s": (spin_start, "s"),
        "host.spin_end_s": (spin_end, "s"),
    }
    fail_frac = checks.failed / max(checks.attempted, 1)
    wanted = PER_LAYER if args.trace else END_TO_END
    reported = {**metrics, "host.spin_s": host["host.spin_s"]}
    missing = sorted(set(wanted) - set(reported))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")

    context = f"workload={workload.name};seed={args.seed};trace={args.trace}"
    everything = {**metrics, **extra, **host, "fail_frac": (fail_frac, "ratio")}
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: "
          + " | ".join(inv.label + (f" --sizes {inv.sizes}" if inv.sizes else "")
                       for inv in workload.invocations(args.seed, args.smoke)))
    for name, (value, unit) in everything.items():
        print(f"{name} = {value:.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    ledger = OUT / f"{stem}.json"
    records = [bench_record(n, v, u, context) for n, (v, u) in everything.items()]
    ledger.write_text(json.dumps({"records": records}, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
    print(f"ledger records: {ledger.relative_to(wl.ROOT)} "
          f"(ring-repro ledger append {ledger.relative_to(wl.ROOT)} --run-id ID)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": reported[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
