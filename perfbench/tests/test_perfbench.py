"""The benchmark's own tests.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--smoke`` (reduced sizes, the quick preset), so
the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, covered, self_times, totals  # noqa: E402


# -- self-time arithmetic -------------------------------------------------


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_overlapping_children_are_counted_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
        span("c", 8.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1:] == [pytest.approx(3.0), pytest.approx(3.0), pytest.approx(1.0)]


def test_self_time_is_never_negative():
    spans = [
        span("root", 0.0, 2.0),
        span("wide", -1.0, 5.0, 0),  # reaches past both ends of its parent
        span("inner", 0.5, 1.0, 0),
    ]
    own = self_times(spans)
    assert own[0] == 0.0
    assert all(value >= 0.0 for value in own)
    assert covered([(-1.0, 5.0)], 0.0, 2.0) == pytest.approx(2.0)


def test_grandchildren_do_not_count_against_the_root():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 2.0, 8.0, 0),
        span("grandchild", 3.0, 7.0, 1),
    ]
    assert self_times(spans) == [
        pytest.approx(4.0), pytest.approx(2.0), pytest.approx(4.0)
    ]
    agg = totals(spans)
    assert agg["child"] == {"calls": 1, "self_s": pytest.approx(2.0),
                            "total_s": pytest.approx(6.0)}


def test_tracer_nests_spans_and_collapses_same_name_reentry():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf, lambda a, k, r: {"out": r})

    def outer(x):
        return traced_leaf(x) + traced_recursive(0)

    def recursive(depth):
        return depth if depth >= 2 else traced_recursive(depth + 1)

    traced_recursive = tracer.wrap("recursive", recursive)
    traced_outer = tracer.wrap(lambda args, kwargs: f"outer.{args[0]}", outer)
    assert traced_outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["outer.1", "leaf", "recursive"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.spans[1][4] == {"out": 2}


# -- workloads and seeds ----------------------------------------------------


def sizes(name, seed):
    return [inv.sizes for inv in wl.WORKLOADS[name].invocations(seed)]


def test_seed_zero_reproduces_the_canonical_sizes():
    assert sizes("sim-long", 0) == ["2048,4096,8192,16384", "1024,2048,3072"]
    args = wl.WORKLOADS["sim-long"].invocations(0)[0].argv()
    assert args[:2] == ["E1", "E11"] and "--jobs" in args
    assert int(args[args.index("--jobs") + 1]) <= (os.cpu_count() or 1)


def test_other_seeds_shift_sizes_and_preset_workloads_ignore_the_seed():
    assert sizes("sim-long", 3) == ["2054,4102,8198,16390", "1030,2054,3078"]
    assert sizes("sim-long", 3) == sizes("sim-long", 3 + len(wl.OFFSETS))
    for name in ("catalog-cold", "store-warm"):
        assert wl.WORKLOADS[name].invocations(0) == wl.WORKLOADS[name].invocations(7)


def test_every_seed_variant_has_committed_references():
    refs = json.loads(wl.REFERENCES.read_text(encoding="utf-8"))
    for name, workload in wl.WORKLOADS.items():
        variants = range(len(wl.OFFSETS)) if workload.seeded else (0,)
        for variant in variants:
            labels = set(refs[name][str(variant)])
            wanted = {inv.label for inv in workload.invocations(variant)
                      if inv.command != "dashboard"}
            assert wanted <= labels, (name, variant)
    assert {"dashboard-tree", "fill all", "fill verify"} <= set(refs["store-warm"]["0"])


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_profile_lines_are_stripped_from_tables():
    stdout = (
        "table\n[E1 took 1.00s of cell time across 4 cells (wall 1s, jobs=2)]\n"
        "[campaign: 1 experiment(s), 4 cells (0 from store), busy 2.00 "
        "worker-seconds over 1.00s wall x 2 jobs => utilization 100%]\n"
        "[refit E1/x: n]\nall 1 experiment(s) passed\n"
    )
    assert wl.tables(stdout) == "table\n[refit E1/x: n]\nall 1 experiment(s) passed\n"
    assert wl.campaign_counts(stdout) == (4, 0)
    assert wl.pool_figures(stdout)[:2] == (2.0, 2.0)


# -- ledger compatibility ---------------------------------------------------


def test_records_match_bench_harness_and_ingest_verbatim(tmp_path):
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from bench_harness import bench_record
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    from repro.obs.ledger import append_run, normalize_bench_file, read_ledger

    record = run.bench_record("wall_s", 1.25, "s", "workload=x;seed=0;trace=0")
    assert record == bench_record("wall_s", 1.25, "s", "workload=x;seed=0;trace=0")
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"records": [record]}), encoding="utf-8")
    assert normalize_bench_file(path) == [record]
    append_run(tmp_path / "LEDGER.jsonl", "r1", normalize_bench_file(path))
    assert read_ledger(tmp_path / "LEDGER.jsonl")[0]["value"] == 1.25


# -- smoke runs of every workload -------------------------------------------


def snapshot(root: Path) -> "dict[str, tuple[int, int]]":
    """Every file of the repo outside the benchmark's output, with size and mtime."""
    skip = {".git", "__pycache__", ".pytest_cache"}
    output = {HERE / "out", HERE / "work"}
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in skip and Path(dirpath) / d not in output]
        for name in filenames:
            path = Path(dirpath) / name
            stat = path.stat()
            files[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return files


@pytest.fixture(scope="module")
def smoke_runs():
    before = snapshot(ROOT)
    results = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-3000:]
            results[name, trace] = proc
    return before, results


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_named_metric_with_its_unit(smoke_runs, name, trace):
    proc = smoke_runs[1][name, trace]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[1]
               for line in lines if " = " in line}
    for metric, unit in wanted.items():
        assert printed[metric] == unit
    assert printed["fail_frac"] == "ratio"
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_tables_equal_untraced_tables(smoke_runs, name):
    proc = smoke_runs[1][name, 1]
    count = len(wl.WORKLOADS[name].invocations(0, smoke=True))
    assert (f"traced tables: {count} of {count} invocation(s) byte-identical"
            in proc.stdout)


def test_runs_leave_the_repo_tree_unchanged(smoke_runs):
    before, _ = smoke_runs
    after = snapshot(ROOT)
    assert after == before
    assert not (HERE / "work").exists()


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
