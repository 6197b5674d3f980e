"""What an invocation imports: only the experiments it plans, and their code.

The first three checks run in a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1`` (every imported module is compiled, which
is why loading less is faster) and read ``sys.modules`` afterwards.

* ``import repro.cli`` loads no experiment module and nothing of
  ``repro.core``: ``ALL_SPECS`` imports an experiment when its id is
  looked up, and the packages resolve their re-exports on first use.
* A run of E1 and E11 loads those two experiments and not the
  constructions only other experiments use.
* A ``--jobs 2`` campaign's forked workers import no ``repro`` module
  the parent had not imported when it forked them, so no worker
  compiles a module again.
* Every lazy package still resolves every name in its ``__all__``.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS, ALL_SPECS, get_spec

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.ring",
    "repro.languages",
    "repro.automata",
    "repro.runner",
    "repro.analysis",
)


def _fresh(code: str, tmp_path: Path) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_TELEMETRY_DIR"] = str(tmp_path / "telemetry")
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


EXPERIMENT_MODULE = re.compile(r"repro\.experiments\.e\d\d_\w+")


def _experiment_modules(modules) -> "list[str]":
    return sorted(m for m in modules if EXPERIMENT_MODULE.fullmatch(m))


def test_cli_import_loads_no_experiment_and_no_core(tmp_path):
    modules = _fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        tmp_path,
    )
    assert _experiment_modules(modules) == []
    assert [m for m in modules if m.split(".")[:2] == ["repro", "core"]] == []
    assert "concurrent.futures.process" not in modules
    assert "repro.runner.ingest" not in modules


def test_e1_e11_load_only_what_they_run(tmp_path):
    modules = _fresh(
        "import contextlib, io, json, sys\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = repro.cli.main(['E1', 'E11', '--preset', 'quick', '--no-store'])\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        tmp_path,
    )
    assert _experiment_modules(modules) == [
        "repro.experiments.e01_regular_linear",
        "repro.experiments.e11_passes_tradeoff",
    ]
    for unused in (
        "repro.core.message_graph",
        "repro.core.information_state",
        "repro.core.bidi_to_unidi",
        "repro.tm",
        "repro.ring.token",
        "repro.ring.line",
    ):
        assert unused not in modules, unused


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the pool's workers are forked only under the fork start method",
)
def test_forked_workers_import_nothing_new(tmp_path):
    # Each worker notes the repro modules present when it was forked and,
    # after every cell or subtask it runs, the ones it imported since.
    code = f"""
import contextlib, io, json, os, sys
import repro.cli
import repro.runner.executor as executor

out = {str(tmp_path / "workers")!r}
os.makedirs(out)
at_fork = set()

def remember():
    at_fork.update(sys.modules)

os.register_at_fork(after_in_child=remember)

def spy(run):
    def measured(item):
        result = run(item)
        new = sorted(
            m for m in sys.modules if m.startswith("repro") and m not in at_fork
        )
        with open(os.path.join(out, f"{{os.getpid()}}.json"), "a") as handle:
            handle.write(json.dumps(new) + "\\n")
        return result
    return measured

executor.run_cell = spy(executor.run_cell)
executor.run_subtask = spy(executor.run_subtask)
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(["all", "--preset", "quick", "--no-store", "--jobs", "2"])
assert code == 0, code
print(json.dumps(sorted(os.listdir(out))))
"""
    files = _fresh(code, tmp_path)
    assert files, "no cell ran in a worker"
    for name in files:
        for line in (tmp_path / "workers" / name).read_text().splitlines():
            assert json.loads(line) == [], (name, line)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, (package, name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_star_import_of_core():
    namespace: dict = {}
    exec("from repro.core import *", namespace)
    core = importlib.import_module("repro.core")
    assert set(core.__all__) <= set(namespace)
    assert namespace["DFARecognizer"] is importlib.import_module(
        "repro.core.regular_onepass"
    ).DFARecognizer


def test_spec_table_is_a_read_only_ordered_mapping():
    assert tuple(ALL_SPECS) == ALL_EXPERIMENTS
    assert len(ALL_SPECS) == 12 and "E7" in ALL_SPECS and "E13" not in ALL_SPECS
    assert [spec.exp_id for spec in ALL_SPECS.values()] == list(ALL_EXPERIMENTS)
    assert [exp_id for exp_id, _ in ALL_SPECS.items()] == list(ALL_EXPERIMENTS)
    assert ALL_SPECS["E3"] is get_spec("e3")
    with pytest.raises(KeyError):
        ALL_SPECS["E13"]
    with pytest.raises(TypeError):
        ALL_SPECS["E1"] = ALL_SPECS["E2"]  # type: ignore[index]
