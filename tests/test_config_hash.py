"""Cell.config_hash: pinned values, computed once, never stale.

The config hash is the run store's proof that a stored record still
matches the code, so its *value* is a compatibility contract (every
stored file name and the dashboard exports embed it).  It is also
computed on every store-touching path, so each function's source is
read once per process and each cell memoises its digest; these tests
pin that neither shortcut changes a value or outlives the code it
describes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import pickle
import sys

import pytest

from repro.experiments import ALL_EXPERIMENTS, RunProfile, get_spec
from repro.experiments import base
from repro.experiments.base import Cell

# sha256 over the newline-joined hashes of every planned cell, first 16
# hex characters, with the cell count.  Captured before the hash was
# memoised; a change here invalidates every existing run store.
GOLDEN = {
    ("quick", "sim"): ("46122bf35389d3bc", 90),
    ("quick", "model"): ("6f63d7b3fb89d879", 90),
    ("quick", "verify"): ("6731cf28ba80fab4", 90),
    ("full", "sim"): ("7a64a687660e8bf2", 186),
    ("full", "model"): ("d8c770a7a3367e43", 186),
    ("full", "verify"): ("0647b02fbe63aa28", 186),
}


def _plan(preset: str, mode: str) -> "list[Cell]":
    profile = RunProfile(preset, mode=mode)
    return [
        cell for exp_id in ALL_EXPERIMENTS for cell in get_spec(exp_id).plan(profile)
    ]


def _quick_cells() -> "list[Cell]":
    return [
        cell for mode in ("sim", "model", "verify") for cell in _plan("quick", mode)
    ]


@pytest.mark.parametrize("preset, mode", sorted(GOLDEN))
def test_hash_values_are_pinned(preset, mode):
    hashes = [cell.config_hash() for cell in _plan(preset, mode)]
    digest = hashlib.sha256("\n".join(hashes).encode()).hexdigest()[:16]
    assert (digest, len(hashes)) == GOLDEN[(preset, mode)]


class TestComputedOnce:
    def test_source_read_once_per_function_object(self, monkeypatch):
        base._fn_source.cache_clear()
        base._code_identity.cache_clear()
        reads = []
        real = inspect.getsource

        def counting(obj):
            reads.append(obj)
            return real(obj)

        monkeypatch.setattr(inspect, "getsource", counting)
        for _ in range(2):
            cells = _quick_cells()
            for cell in cells:
                cell.config_hash()
        hooks = {
            hook
            for cell in cells
            for hook in (cell.fn, cell.split, cell.fold)
            if hook is not None
        }
        assert reads
        assert len(reads) <= len(hooks)

    def test_second_call_does_no_work(self, monkeypatch):
        cell = _plan("quick", "verify")[0]
        first = cell.config_hash()
        work = []
        real_dumps, real_sha256 = json.dumps, hashlib.sha256

        def dumps(*args, **kwargs):
            work.append("json.dumps")
            return real_dumps(*args, **kwargs)

        def sha256(*args, **kwargs):
            work.append("sha256")
            return real_sha256(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        monkeypatch.setattr(hashlib, "sha256", sha256)
        assert cell.config_hash() == first
        shipped = pickle.loads(pickle.dumps(cell))
        assert shipped.config_hash() == first
        assert work == []

    def test_memo_is_invisible_to_equality_and_repr(self):
        hashed, fresh = _plan("quick", "sim")[0], _plan("quick", "sim")[0]
        hashed.config_hash()
        assert hashed == fresh
        assert repr(hashed) == repr(fresh)
        assert fresh.config_hash() == hashed.config_hash()


_PROBE = '''\
def measure(params, rng):
    {body}
'''


class TestNoStaleIdentity:
    def test_reloaded_fn_is_read_again(self, tmp_path, monkeypatch):
        name = "config_hash_probe_cells"
        path = tmp_path / f"{name}.py"
        path.write_text(_PROBE.format(body="return {'bits': params['n']}"))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        probe = importlib.import_module(name)
        try:
            old_fn = probe.measure
            before = Cell("EX", "n=1", old_fn, {"n": 1}, seed=1).config_hash()
            # Same qualified name, new body (and a later mtime, so no
            # import or line cache can serve the old text).
            path.write_text(
                _PROBE.format(body="return {'bits': 2 * params['n'] + 1}")
            )
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 2 * 10**9))
            probe = importlib.reload(probe)
            assert probe.measure is not old_fn
            assert probe.measure.__qualname__ == old_fn.__qualname__
            after = Cell("EX", "n=1", probe.measure, {"n": 1}, seed=1).config_hash()
        finally:
            sys.modules.pop(name, None)
        assert after != before

    def test_replace_does_not_carry_the_memo(self):
        cell = _plan("quick", "sim")[0]
        original = cell.config_hash()
        reseeded = dataclasses.replace(cell, seed=cell.seed + 1)
        reparamed = dataclasses.replace(cell, params={**cell.params, "extra": 1})
        for changed in (reseeded, reparamed):
            rebuilt = Cell(**{
                f.name: getattr(changed, f.name) for f in dataclasses.fields(Cell)
            })
            assert changed.config_hash() != original
            assert changed.config_hash() == rebuilt.config_hash()
