"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.automata.dfa import DFA


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xBEEF)


REPO_RUNS = Path(__file__).resolve().parent.parent / "runs"


def _runs_listing() -> "list[str]":
    """Every path under the repo's ``runs/`` (empty when it is absent)."""
    return sorted(str(path.relative_to(REPO_RUNS)) for path in REPO_RUNS.rglob("*"))


@pytest.fixture(scope="session", autouse=True)
def _repo_runs_untouched():
    """Fail the session if any test wrote into the repo's ``runs/``."""
    before = _runs_listing()
    yield
    changed = sorted(set(_runs_listing()) ^ set(before))
    assert not changed, f"the suite changed {REPO_RUNS}: {changed[:5]}"


@pytest.fixture(autouse=True)
def _isolated_run_store(tmp_path, monkeypatch):
    """Point the CLI's default cell store at a per-test temp directory.

    Persisting cell records is on by default, so any test driving
    ``repro.cli.main`` without an explicit ``--store``/``--no-store``
    would otherwise grow a ``runs/`` tree in whatever directory pytest
    was launched from.
    """
    monkeypatch.setattr(
        "repro.cli.DEFAULT_STORE_ROOT", str(tmp_path / "runs")
    )
    # Same isolation for the span journal's sidecar directory: any test
    # running a campaign would otherwise append journals under the
    # launch directory's runs/_telemetry.
    monkeypatch.setenv(
        "REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry")
    )


def random_dfa(rng: random.Random, size: int, alphabet: str = "ab") -> DFA:
    """A random total DFA (used by hypothesis-style sweeps in tests)."""
    states = list(range(size))
    transitions = {
        (state, symbol): rng.choice(states)
        for state in states
        for symbol in alphabet
    }
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return DFA(frozenset(states), tuple(alphabet), transitions, 0, accepting)


def all_words(alphabet: str, max_length: int):
    """Every word over ``alphabet`` of length ``<= max_length``."""
    frontier = [""]
    while frontier:
        word = frontier.pop(0)
        yield word
        if len(word) < max_length:
            frontier.extend(word + symbol for symbol in alphabet)


def assert_rejected(capsys, argv: "list[str]", needle: str) -> None:
    """``main(argv)`` is a usage error (exit 2) whose stderr names ``needle``."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert needle in capsys.readouterr().err
