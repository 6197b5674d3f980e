"""Regenerate ``references.json``: the digests every benchmark run checks against.

Usage (from the repository root, on the commit whose output is the
reference)::

    python3 perfbench/capture.py [--workload NAME ...]

Runs each workload's iteration once at every seed variant (one per
entry of ``workloads.OFFSETS``; the preset workloads have one) and
stores the digest of each invocation's stdout tables, plus the fill
tables and dashboard tree of ``store-warm``.  A variant whose run fails
any check (an experiment that does not PASS) is refused: such a seed
would not be usable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads as wl


def capture(workload: wl.Workload, variant: int) -> "dict[str, str]":
    checks = wl.Checks(None)
    work = run.WORK / f"capture-{workload.name}-{variant}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    try:
        env = wl.child_env(Path("tel"), work / "tmp")
        base = run.prepare(workload, work, env, checks, smoke=False)
        run.iteration(workload, workload.invocations(variant), base, 0, env, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if checks.failed:
        raise SystemExit(f"{workload.name} variant {variant}: {checks.failed} check(s) failed")
    return dict(sorted(checks.seen.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    refs = wl.load_references()
    for name in args.workload or list(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        variants = range(len(wl.OFFSETS)) if workload.seeded else (0,)
        refs[name] = {str(v): capture(workload, v) for v in variants}
        print(f"{name}: {len(refs[name])} variant(s) captured", file=sys.stderr)
    wl.REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
