"""The benchmark's workloads: what each one runs, and how its output is checked.

Every workload is a list of ``ring-repro`` invocations that one user
action makes.  Invocations run as fresh ``python -m repro.cli``
processes with the checkout's ``src/`` on ``PYTHONPATH``, inside a
private work directory, so stores, dashboards and telemetry journals
never land in the repo's ``runs/`` or ``dashboard/``.

Seed 0 runs the canonical ring sizes.  Any other seed picks one of
:data:`OFFSETS` (``seed % len(OFFSETS)``) and adds it to every
``--sizes`` entry; every offset is a usable seed (all experiments PASS,
and ``references.json`` holds its table digests).  The preset workloads
(``catalog-cold``, ``store-warm``) take no sizes, so the seed does not
change them.

A full-trace workload (``E4 E5 --sizes 1024,2048,4096``) is left out:
on a shared two-core host its run-to-run spread reached a third of its
median, and three workloads leave room for longer, steadier runs.  Its
layers (``trace="full"`` simulation, ``ring_to_line``, token
serialization, information states) still run, at quick sizes, in
``catalog-cold``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

JOBS = min(2, os.cpu_count() or 1)
OFFSETS = (0, 2, 4, 6, 8, 10, 12, 14)

# A child process that outlives this is stopped (with its process group).
INVOCATION_TIMEOUT_S = 150.0

# Environment switches that change what the program does; the benchmark
# always measures the default engine, whatever the caller's shell holds.
SWITCHES = ("REPRO_NO_SPLIT", "REPRO_NO_ROUND_BATCH", "REPRO_NO_TELEMETRY")

# ``--profile`` lines: timings, not tables.
_PROFILE_LINE = re.compile(r"^\[(E\d+ took |campaign: |calibration: |idle: )")
_CAMPAIGN_LINE = re.compile(
    r"^\[campaign: .*?(\d+) cells \((\d+) from store.*?busy ([\d.]+) "
    r"worker-seconds over ([\d.]+)s wall x (\d+) jobs"
)
_IDLE_LINE = re.compile(
    r"^\[idle: ([\d.]+) worker-second\(s\) across \d+ lane\(s\): (\d+)% straggler"
)
_VERIFY_FAIL = re.compile(r"(\d+) verify FAIL")


@dataclass(frozen=True)
class Invocation:
    """One ``ring-repro`` call of a workload iteration."""

    label: str
    command: str  # "run" | "report" | "dashboard"
    exps: "tuple[str, ...]" = ()
    preset: "str | None" = None
    sizes: "str | None" = None
    mode: str = "sim"
    jobs: int = 1
    resume: bool = False
    store: str = "store"

    @property
    def experiment_count(self) -> int:
        if self.command == "dashboard":
            return 0
        return 12 if self.exps == ("all",) else len(self.exps)

    def argv(self, out: str = "dashboard", jobs: "int | None" = None) -> "list[str]":
        """The CLI arguments; ``jobs`` overrides the declared worker count."""
        if self.command == "dashboard":
            args = ["dashboard", "--out", out, "--bench-dir", "bench"]
        elif self.command == "report":
            args = ["report", "--all", "--refit"]
        else:
            args = list(self.exps)
        args += ["--store", self.store]
        if self.preset is not None:
            args += ["--preset", self.preset]
        if self.sizes is not None:
            args += ["--sizes", self.sizes]
        if self.mode != "sim":
            args += ["--mode", self.mode]
        if self.command == "run":
            jobs = self.jobs if jobs is None else jobs
            if jobs != 1:
                args += ["--jobs", str(jobs)]
            if self.resume:
                args.append("--resume")
            args.append("--profile")
        return args

    def plan(self) -> tuple:
        """``(exp_ids, preset, sizes, mode)`` the invocation plans before running."""
        return (list(self.exps), self.preset, self.sizes, self.mode)


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    fresh_store: bool  # every iteration starts from an empty store

    def variant(self, seed: int) -> int:
        return seed % len(OFFSETS) if self.seeded else 0

    def invocations(self, seed: int, smoke: bool = False) -> "list[Invocation]":
        offset = OFFSETS[self.variant(seed)]

        def sizes(*ns: int) -> str:
            return ",".join(str(n + offset) for n in ns)

        if self.name == "catalog-cold":
            return [Invocation("all", "run", ("all",), preset="quick")]
        if self.name == "sim-long":
            first = sizes(128, 256, 512) if smoke else sizes(2048, 4096, 8192, 16384)
            second = sizes(128, 256, 384) if smoke else sizes(1024, 2048, 3072)
            return [
                Invocation("E1 E11", "run", ("E1", "E11"), sizes=first,
                           jobs=JOBS, store="store-1"),
                Invocation("E9 E10", "run", ("E9", "E10"), sizes=second,
                           jobs=JOBS, store="store-2"),
            ]
        if self.name == "store-warm":
            preset = "quick" if smoke else None
            return [
                Invocation("resume", "run", ("all",), preset=preset, resume=True),
                Invocation("report", "report", ("all",), preset=preset),
                Invocation("dashboard", "dashboard", ("all",), preset=preset),
            ]
        raise ValueError(self.name)

    def fill(self, smoke: bool = False) -> "list[Invocation]":
        """Untimed set-up: what ``store-warm`` fills its store with."""
        if self.name != "store-warm":
            return []
        preset = "quick" if smoke else None
        return [
            Invocation("fill all", "run", ("all",), preset=preset, jobs=JOBS, store="fill"),
            Invocation("fill verify", "run", ("E9", "E10"), preset=preset,
                       mode="verify", jobs=JOBS, store="fill"),
        ]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog-cold", seeded=False, fresh_store=True),
        Workload("sim-long", seeded=True, fresh_store=True),
        Workload("store-warm", seeded=False, fresh_store=False),
    )
}


def program_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def child_env(telemetry_dir: Path, tmp_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_TELEMETRY_DIR"] = str(telemetry_dir)
    env["TMPDIR"] = str(tmp_dir)
    return env


@dataclass
class ProcRun:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def run_process(argv: "list[str]", cwd: Path, env: dict, tag: str) -> ProcRun:
    """Run one child to completion; its rusage includes its own reaped workers.

    ``os.wait4`` returns the child's resource use together with that of
    every process it waited for (the campaign's pool workers), which is
    the ``RUSAGE_CHILDREN`` delta this process sees for it.
    """
    out_path = cwd / f"{tag}.stdout"
    err_path = cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return ProcRun(
        code=code,
        stdout=stdout,
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(argv: "list[str]", cwd: Path, env: dict, tag: str) -> ProcRun:
    return run_process([sys.executable, "-m", "repro.cli", *argv], cwd, env, tag)


def tables(stdout: str) -> str:
    """Stdout without the ``--profile`` timing lines."""
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if not _PROFILE_LINE.match(line)
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of a directory's relative paths and file bytes.

    ``telemetry.html`` replays the latest campaign journal, so it holds
    measured times and is left out.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "telemetry.html":
            continue
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def campaign_counts(stdout: str) -> "tuple[int, int] | None":
    """``(cells, from_store)`` from a ``[campaign: ...]`` profile line."""
    for line in stdout.splitlines():
        match = _CAMPAIGN_LINE.match(line)
        if match:
            return int(match.group(1)), int(match.group(2))
    return None


def pool_figures(stdout: str) -> "tuple[float, float, float, float]":
    """``(busy_s, wall_x_jobs_s, idle_s, straggler_idle_s)`` from profile lines."""
    busy = capacity = idle = straggler = 0.0
    for line in stdout.splitlines():
        match = _CAMPAIGN_LINE.match(line)
        if match:
            busy += float(match.group(3))
            capacity += float(match.group(4)) * int(match.group(5))
        match = _IDLE_LINE.match(line)
        if match:
            idle += float(match.group(1))
            straggler += float(match.group(1)) * int(match.group(2)) / 100
    return busy, capacity, idle, straggler


def load_references() -> dict:
    """``{workload: {variant: {label: digest}}}`` from ``references.json``."""
    try:
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def references(workload: Workload, seed: int) -> "dict[str, str]":
    """The committed digests for this workload at this seed's sizes."""
    return load_references().get(workload.name, {}).get(str(workload.variant(seed)), {})


class Checks:
    """Counts correctness checks attempted and failed; reports each failure.

    ``refs`` maps an output label to its committed digest; ``None`` (a
    reduced-size run, or capturing references) checks outputs only for
    agreement with their own first sighting, which ``seen`` records.
    """

    def __init__(self, refs: "dict[str, str] | None") -> None:
        self.attempted = 0
        self.failed = 0
        self.refs = refs
        self.seen: "dict[str, str]" = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def same(self, label: str, value: str) -> None:
        """``value`` equals the committed reference and every earlier sighting."""
        if self.refs is not None:
            self.check(self.refs.get(label) == value,
                       f"{label}: digest {value[:12]} differs from the reference")
        first = self.seen.setdefault(label, value)
        self.check(first == value, f"{label}: digest differs between iterations")

    def invocation(self, inv: Invocation, run: ProcRun) -> None:
        self.check(run.code == 0, f"{inv.label}: exit code {run.code}\n{run.stderr[-2000:]}")
        if inv.experiment_count:
            passed = run.stdout.count("RESULT: PASS")
            self.check(passed == inv.experiment_count and "RESULT: FAIL" not in run.stdout,
                       f"{inv.label}: {passed} of {inv.experiment_count} experiments PASS")
        if inv.command != "dashboard":
            self.same(inv.label, digest(tables(run.stdout)))
        verify = [int(n) for n in _VERIFY_FAIL.findall(run.stdout)]
        if verify:
            self.check(not any(verify), f"{inv.label}: verify verdicts FAIL")
        if inv.resume:
            counts = campaign_counts(run.stdout)
            self.check(counts is not None and counts[0] == counts[1],
                       f"{inv.label}: resume measured cells ({counts})")
