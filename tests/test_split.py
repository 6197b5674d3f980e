"""Divisible cells: split/fold identity, resume from partial records.

The contract under test is an *identity*, not an approximation: for
every divisible cell, ``fold(run every subtask) == run the monolithic
measurement`` byte-for-byte, invariant to the part count K, the
scheduling order and the worker count.  A campaign splits every
divisible cell; :func:`run_cell` is the monolithic oracle.  The tests
exercise the contract at three levels — the pure
``run_subtask``/``fold_cell`` functions, a synthetic experiment whose K
is a parameter, and whole campaigns through the executor pool (against
a store filled cell by cell with ``run_cell``) — plus
the mid-cell resume path (a killed run's ``.json.part`` records
complete without re-measuring landed parts) and the BFS early-stop that
makes E2's witness subtasks cheap.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import encode_elias_gamma
from repro.core.hierarchy import HierarchyRecognizer
from repro.core.hierarchy import replay_segment as replay_hierarchy_segment
from repro.core.known_n import KnownNHierarchyRecognizer
from repro.core.known_n import replay_segment as replay_known_n_segment
from repro.core.message_graph import build_message_graph, infinite_witness
from repro.errors import ProtocolError, ReproError
from repro.languages.hierarchy import STANDARD_GROWTHS, GrowthFunction, PeriodicLanguage
from repro.ring.unidirectional import run_unidirectional
from repro.experiments import ALL_EXPERIMENTS, RunProfile, get_spec
from repro.experiments.base import (
    Cell,
    Subtask,
    fold_cell,
    run_cell,
    run_subtask,
    subtask_seed,
)
from repro.experiments.e02_message_graph import CountingTransducer
from repro.runner import RunStore, execute_campaign

QUICK = RunProfile(preset="quick")
# The experiments that ship divisible cells (E2's witness, every E9/E10
# simulation cell).
DIVISIBLE_EXPS = ("E2", "E9", "E10")


def _divisible_cells(exp_id: str, profile: RunProfile) -> list:
    return [c for c in get_spec(exp_id).cells(profile) if c.divisible]


# --------------------------------------------------------------------------
# The core identity: fold(subtasks) == monolithic, for every shipped cell.


class TestFoldIdentity:
    @pytest.mark.parametrize("exp_id", DIVISIBLE_EXPS)
    def test_fold_matches_monolithic_for_every_quick_cell(self, exp_id):
        cells = _divisible_cells(exp_id, QUICK)
        assert cells, f"{exp_id} plans no divisible cells under quick"
        for cell in cells:
            parts = {s.part: run_subtask(s) for s in cell.subtasks()}
            assert fold_cell(cell, parts) == run_cell(cell), (
                exp_id,
                cell.key,
                cell.mode,
            )

    def test_fold_is_order_invariant(self):
        (cell,) = _divisible_cells("E2", QUICK)
        subtasks = cell.subtasks()
        forward = {s.part: run_subtask(s) for s in subtasks}
        backward = {s.part: run_subtask(s) for s in reversed(subtasks)}
        assert fold_cell(cell, forward) == fold_cell(cell, backward)

    def test_quick_plan_is_pinned(self):
        """Golden (cells, divisible cells, subtasks) per experiment.

        90 cells, 29 divisible, 133 subtasks in all: a plan that grows
        or shrinks, or a cell that starts or stops splitting, fails here
        by name.
        """
        counts = {}
        for exp_id in ALL_EXPERIMENTS:
            cells = get_spec(exp_id).cells(QUICK)
            divisible = [cell for cell in cells if cell.divisible]
            subtasks = sum(len(cell.subtasks()) for cell in divisible)
            counts[exp_id] = (len(cells), len(divisible), subtasks)
        assert counts == {
            "E1": (4, 0, 0), "E2": (6, 1, 2), "E3": (1, 0, 0),
            "E4": (7, 0, 0), "E5": (12, 0, 0), "E6": (1, 0, 0),
            "E7": (12, 0, 0), "E8": (4, 0, 0), "E9": (16, 16, 80),
            "E10": (12, 12, 51), "E11": (6, 0, 0), "E12": (9, 0, 0),
        }

    def test_subtask_weights_sum_to_cell_weight(self):
        for exp_id in DIVISIBLE_EXPS:
            for cell in _divisible_cells(exp_id, QUICK):
                total = sum(s.weight for s in cell.subtasks())
                assert total == pytest.approx(cell.weight), (exp_id, cell.key)


# --------------------------------------------------------------------------
# K-invariance on a synthetic divisible cell: the part count is a free
# parameter, and the folded record must not depend on it.  Per-trial
# randomness is drawn from subtask_seed over the *trial*, never the
# chunk, which is exactly the discipline the shipped cells follow.

_TRIALS = 24


def _trial_value(t: int) -> int:
    return random.Random(subtask_seed("EX", "synth", f"trial={t}")).randrange(
        1_000_000
    )


def _measure_slice(params: dict, rng: random.Random) -> dict:
    values = [_trial_value(t) for t in range(params["lo"], _TRIALS, params["step"])]
    return {"sum": sum(values), "count": len(values)}


def _measure_all(params: dict, rng: random.Random) -> dict:
    values = [_trial_value(t) for t in range(_TRIALS)]
    return {"total": sum(values), "trials": len(values)}


def _split_chunks(cell: Cell) -> "list[Subtask]":
    k = cell.params["chunks"]
    return [
        Subtask(
            exp_id=cell.exp_id,
            cell_key=cell.key,
            part=f"chunk={i}",
            fn=_measure_slice,
            params={"lo": i, "step": k},
            seed=subtask_seed(cell.exp_id, cell.key, f"chunk={i}"),
            weight=cell.weight / k,
        )
        for i in range(k)
    ]


def _fold_chunks(params: dict, parts: dict) -> dict:
    return {
        "total": sum(p["sum"] for p in parts.values()),
        "trials": sum(p["count"] for p in parts.values()),
    }


def _synthetic_cell(chunks: int) -> Cell:
    return Cell(
        exp_id="EX",
        key="synth",
        fn=_measure_all,
        params={"chunks": chunks},
        seed=subtask_seed("EX", "synth", "whole"),
        weight=float(_TRIALS),
        split=_split_chunks,
        fold=_fold_chunks,
    )


class TestKInvariance:
    @pytest.mark.parametrize("chunks", [1, 2, 4, 8])
    def test_folded_record_is_invariant_to_k(self, chunks):
        cell = _synthetic_cell(chunks)
        subtasks = cell.subtasks()
        assert len(subtasks) == chunks
        parts = {s.part: run_subtask(s) for s in subtasks}
        folded = fold_cell(cell, parts)
        assert folded == run_cell(_synthetic_cell(1))
        assert folded == run_cell(cell)
        assert folded["trials"] == _TRIALS

    def test_subtask_seed_depends_on_identity_only(self):
        a = subtask_seed("EX", "synth", "chunk=0")
        assert a == subtask_seed("EX", "synth", "chunk=0")
        assert a != subtask_seed("EX", "synth", "chunk=1")
        assert a != subtask_seed("EX", "other", "chunk=0")
        assert a != subtask_seed("E9", "synth", "chunk=0")


# --------------------------------------------------------------------------
# Decomposition validation: the executor trusts subtasks() to hand back
# a usable pool roster, so the failure modes must be loud.


def _bad_split_empty(cell: Cell) -> list:
    return []


def _bad_split_duplicate(cell: Cell) -> "list[Subtask]":
    sub = _split_chunks(cell)[0]
    return [sub, sub]


def _bad_split_foreign(cell: Cell) -> "list[Subtask]":
    from dataclasses import replace

    return [replace(_split_chunks(cell)[0], cell_key="elsewhere")]


class TestValidation:
    def test_monolithic_cell_has_no_subtasks(self):
        cell = Cell(
            exp_id="EX",
            key="mono",
            fn=_measure_all,
            params={},
            seed=1,
        )
        assert not cell.divisible
        with pytest.raises(ReproError):
            cell.subtasks()

    @pytest.mark.parametrize(
        "split",
        [_bad_split_empty, _bad_split_duplicate, _bad_split_foreign],
    )
    def test_bad_decompositions_are_rejected(self, split):
        from dataclasses import replace

        cell = replace(_synthetic_cell(2), split=split)
        with pytest.raises(ReproError):
            cell.subtasks()


# --------------------------------------------------------------------------
# Campaign byte-identity: a divided campaign and the monolithic oracle
# (run_cell per cell) produce the same tables and the same store records
# (file names included — shared config hash), at every worker count.


def _store_snapshot(root) -> dict:
    """Relative path -> payload with wall clock zeroed (the only
    legitimately nondeterministic field)."""
    out = {}
    for path in sorted(root.rglob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["seconds"] = 0.0
        out[path.relative_to(root).as_posix()] = payload
    return out


def _monolithic_store(root, exp_ids) -> dict:
    """Fill a store through the oracle: ``run_cell`` on every cell, whole,
    saved with seconds zeroed.  Returns each experiment's finalized result."""
    store = RunStore(root)
    results = {}
    for exp_id in exp_ids:
        spec = get_spec(exp_id)
        records = {}
        for cell in spec.cells(QUICK):
            records[cell.key] = run_cell(cell)
            store.save(cell, QUICK, records[cell.key], 0.0)
        results[exp_id] = spec.finalize(QUICK, records)
    return results


class TestCampaignByteIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_divided_equals_undivided(self, jobs, tmp_path):
        specs = [get_spec(e) for e in DIVISIBLE_EXPS]
        divided_store = RunStore(tmp_path / "divided")
        divided = execute_campaign(
            specs, QUICK, jobs=jobs, store=divided_store
        )
        assert divided.subtasks_run > 0
        assert divided.cells_folded > 0
        mono = _monolithic_store(tmp_path / "mono", DIVISIBLE_EXPS)

        for exp_id in DIVISIBLE_EXPS:
            left = divided.executions[exp_id].result
            right = mono[exp_id]
            assert left.rows == right.rows, exp_id
            assert left.conclusions == right.conclusions, exp_id
            assert left.passed == right.passed, exp_id

        assert _store_snapshot(tmp_path / "divided") == _store_snapshot(
            tmp_path / "mono"
        )
        # No partial records outlive their fold.
        assert not list((tmp_path / "divided").rglob("*.json.part"))

    def test_jobs_do_not_change_divided_results(self, tmp_path):
        specs = [get_spec("E2"), get_spec("E9")]
        serial = execute_campaign(
            specs, QUICK, jobs=1, store=RunStore(tmp_path / "serial")
        )
        pooled = execute_campaign(
            specs, QUICK, jobs=4, store=RunStore(tmp_path / "pooled")
        )
        assert _store_snapshot(tmp_path / "serial") == _store_snapshot(
            tmp_path / "pooled"
        )
        assert serial.subtasks_run == pooled.subtasks_run


# --------------------------------------------------------------------------
# Mid-cell resume: a killed run's landed parts complete the cell without
# re-measuring them.


class TestPartialResume:
    def test_resume_completes_from_partial_records(self, tmp_path):
        spec = get_spec("E2")
        store = RunStore(tmp_path / "store")
        (cell,) = _divisible_cells("E2", QUICK)
        subtasks = cell.subtasks()
        assert len(subtasks) == 2
        # Simulate a campaign killed after the first subtask landed.
        first = subtasks[0]
        store.save_subtask(
            cell, QUICK, first.part, run_subtask(first), 0.25
        )
        assert store.subtask_path_for(cell, QUICK, first.part).exists()

        resumed = execute_campaign(
            [spec], QUICK, jobs=1, store=store, resume=True
        )
        # Only the missing part was measured; the fold still landed.
        assert resumed.subtasks_run == len(subtasks) - 1
        assert resumed.cells_folded >= 1
        assert resumed.executions["E2"].result.passed
        # The preloaded part's wall clock is carried, not re-measured.
        assert resumed.partial_fresh_seconds >= 0.0

        # Full record present, part files spent.
        assert store.path_for(cell, QUICK).exists()
        assert not store._subtask_paths(cell, QUICK)

        # The resumed record equals a from-scratch monolithic run.
        stored = store.load(cell, QUICK)
        assert stored.record == run_cell(cell)

    def test_stale_part_records_are_ignored(self, tmp_path):
        """A part whose embedded hash mismatches the current cell is
        re-measured, not folded."""
        store = RunStore(tmp_path / "store")
        (cell,) = _divisible_cells("E2", QUICK)
        first = cell.subtasks()[0]
        path = store.save_subtask(
            cell, QUICK, first.part, run_subtask(first), 0.25
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["config_hash"] = "0" * len(payload["config_hash"])
        path.write_text(
            json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
        )
        assert store.load_subtasks(cell, QUICK) == {}


# --------------------------------------------------------------------------
# The BFS early-stop that makes E2's witness parts cheap: the stopped
# graph is a prefix of the full exploration, so the witness word is
# identical to what the unbounded search selects.


class TestEarlyStopWitness:
    @pytest.mark.parametrize("length", [1, 5, 17, 24])
    def test_early_stop_word_matches_full_search(self, length):
        transducer = CountingTransducer()
        full = build_message_graph(transducer, max_vertices=100_000)
        candidates = [v for v, d in full.depth.items() if d >= length]
        vertex = min(candidates, key=lambda v: full.depth[v])
        expected = full.path_word_to(vertex)[:length]
        assert infinite_witness(transducer, length) == expected

    def test_early_stop_graph_is_prefix_of_full(self):
        transducer = CountingTransducer()
        stopped = build_message_graph(transducer, stop_at_depth=6)
        full = build_message_graph(transducer, max_vertices=100_000)
        assert stopped.truncated
        for vertex in stopped.vertices:
            assert vertex in full.vertices
            assert stopped.depth[vertex] == full.depth[vertex]
        for vertex, parent in stopped.parent.items():
            assert full.parent[vertex] == parent


# --------------------------------------------------------------------------
# The ring-segment replays behind E9's and E10's member subtasks: summing
# replay_segment over ANY partition of [0, n) must reproduce the
# simulator's per-pass bit totals and decision — for members, corrupted
# members, and arbitrary words alike (the replay models the algorithm,
# not the language).


def _partitions(n: int) -> "list[list[tuple[int, int]]]":
    """Segment bounds for K in {1, 2, 3, 5}, including uneven splits."""
    return [
        [((n * i) // k, (n * (i + 1)) // k) for i in range(k)]
        for k in (1, 2, 3, 5)
    ]


def _probe_words(language: PeriodicLanguage, n: int) -> "list[str]":
    """A member (when one exists), a corrupted member, a random word."""
    rng = random.Random(20260808)
    words = []
    member = language.sample_member(n, rng)
    if member is not None:
        words.append(member)
        spot = rng.randrange(n)
        other = next(c for c in language.alphabet if c != member[spot])
        words.append(member[:spot] + other + member[spot + 1 :])
    words.append("".join(rng.choice(language.alphabet) for _ in range(n)))
    return words


class TestSegmentReplay:
    @pytest.mark.parametrize("growth", STANDARD_GROWTHS, ids=lambda g: g.name)
    @pytest.mark.parametrize("n", [1, 2, 17, 24])
    def test_hierarchy_replay_matches_simulation(self, growth, n):
        language = PeriodicLanguage(growth)
        for word in _probe_words(language, n):
            trace = run_unidirectional(
                HierarchyRecognizer(language), word, trace="metrics"
            )
            for bounds in _partitions(n):
                segments = [
                    replay_hierarchy_segment(language, word, a, b)
                    for a, b in bounds
                ]
                count = sum(s["count_bits"] for s in segments)
                compare = sum(s["compare_bits"] for s in segments)
                fail = max(s["fail"] for s in segments)
                p_valid = segments[0]["p_valid"]
                assert count == trace.bits_of_pass(0)
                assert count + compare == trace.total_bits
                if p_valid:
                    assert compare == trace.bits_of_pass(1)
                assert (p_valid and fail == 0) == (trace.decision is True)

    @pytest.mark.parametrize("growth", STANDARD_GROWTHS, ids=lambda g: g.name)
    @pytest.mark.parametrize("n", [1, 2, 17, 24])
    def test_known_n_replay_matches_simulation(self, growth, n):
        language = PeriodicLanguage(growth)
        for word in _probe_words(language, n):
            trace = run_unidirectional(
                KnownNHierarchyRecognizer(language), word, trace="metrics"
            )
            for bounds in _partitions(n):
                segments = [
                    replay_known_n_segment(language, word, a, b)
                    for a, b in bounds
                ]
                bits = sum(s["bits"] for s in segments)
                fail = max(s["fail"] for s in segments)
                p_valid = segments[0]["p_valid"]
                assert bits == trace.total_bits
                assert (p_valid and fail == 0) == (trace.decision is True)

    def test_encoded_sizes_match_real_encodings(self):
        language = PeriodicLanguage(STANDARD_GROWTHS[0])
        codec = HierarchyRecognizer(language).codec
        known = KnownNHierarchyRecognizer(language)
        for fail in (0, 1):
            for window in [(), (0,), (1, 0), (0, 1, 1, 0, 1)]:
                for to_fill in (0, 1, 3, 9):
                    assert codec.encoded_size(
                        fail, to_fill, len(window)
                    ) == len(codec.encode(fail, to_fill, window))
                assert known.encoded_size(fail, len(window)) == len(
                    known.encode(fail, window)
                )

    def test_replay_rejects_out_of_range_segments(self):
        language = PeriodicLanguage(STANDARD_GROWTHS[0])
        with pytest.raises(ProtocolError):
            replay_hierarchy_segment(language, "abab", 3, 2)
        with pytest.raises(ProtocolError):
            replay_known_n_segment(language, "abab", 0, 5)


# The replays sum sizes in closed form.  The references below are the
# per-position loops they replaced: every hop's size from the codec, the
# fail flag from one comparison per position.


def _codec_replay_hierarchy(language, word, start, stop):
    n = len(word)
    recognizer = HierarchyRecognizer(language)
    p = recognizer.growth(n) // n
    p_valid = 1 <= p <= n
    count_bits = sum(1 + len(encode_elias_gamma(h + 1)) for h in range(start, stop))
    compare_bits = 0
    fail = 0
    if p_valid:
        for h in range(start, stop):
            if h >= p and word[h] != word[h - p]:
                fail = 1
            compare_bits += recognizer.codec.encoded_size(
                fail, max(p - 1 - h, 0), min(h + 1, p)
            )
    return {
        "count_bits": count_bits,
        "compare_bits": compare_bits,
        "fail": fail,
        "p_valid": p_valid,
    }


def _codec_replay_known_n(language, word, start, stop):
    n = len(word)
    recognizer = KnownNHierarchyRecognizer(language)
    p = recognizer.block_length(n)
    p_valid = 1 <= p <= n
    bits = 0
    fail = 0
    if p_valid:
        for h in range(start, stop):
            if h >= p and word[h] != word[h - p]:
                fail = 1
            bits += recognizer.encoded_size(fail, min(h + 1, p))
    return {"bits": bits, "fail": fail, "p_valid": p_valid}


@st.composite
def _replay_cases(draw):
    """A language whose p = c is valid or not, a word, and a segment."""
    alphabet = draw(st.sampled_from(["ab", "abc", "abcde"]))
    n = draw(st.integers(min_value=1, max_value=80))
    c = draw(st.integers(min_value=0, max_value=n + 3))
    language = PeriodicLanguage(GrowthFunction(f"{c}n", lambda m: c * m), alphabet)
    if c and draw(st.booleans()):
        block = draw(st.text(alphabet=alphabet, min_size=c, max_size=c))
        word = (block * -(-n // c))[:n]
        if draw(st.booleans()):
            spot = draw(st.integers(min_value=0, max_value=n - 1))
            word = word[:spot] + draw(st.sampled_from(alphabet)) + word[spot + 1 :]
    else:
        word = draw(st.text(alphabet=alphabet, min_size=n, max_size=n))
    start = draw(st.integers(min_value=0, max_value=n))
    stop = draw(st.integers(min_value=start, max_value=n))
    return language, word, start, stop


class TestClosedFormReplay:
    @given(case=_replay_cases())
    @settings(max_examples=400, deadline=None)
    def test_hierarchy_replay_equals_the_codec_loop(self, case):
        language, word, start, stop = case
        assert replay_hierarchy_segment(
            language, word, start, stop
        ) == _codec_replay_hierarchy(language, word, start, stop)

    @given(case=_replay_cases())
    @settings(max_examples=400, deadline=None)
    def test_known_n_replay_equals_the_codec_loop(self, case):
        language, word, start, stop = case
        assert replay_known_n_segment(
            language, word, start, stop
        ) == _codec_replay_known_n(language, word, start, stop)

    @pytest.mark.parametrize("growth", STANDARD_GROWTHS, ids=lambda g: g.name)
    def test_long_words_and_every_segment_edge(self, growth):
        # Sizes where the count pass crosses several bit lengths and the
        # filling run is long (p = n for n^2).
        language = PeriodicLanguage(growth, "abc")
        rng = random.Random(11)
        for n in (255, 256, 1030):
            for word in _probe_words(language, n):
                p = language.block_length(n)
                edges = {0, 1, p - 1, p, p + 1, n // 2, n - 1, n}
                for start in sorted(edges & set(range(n + 1))):
                    stop = rng.randint(start, n)
                    for a, b in ((start, stop), (start, start), (start, n)):
                        assert replay_hierarchy_segment(
                            language, word, a, b
                        ) == _codec_replay_hierarchy(language, word, a, b)
                        assert replay_known_n_segment(
                            language, word, a, b
                        ) == _codec_replay_known_n(language, word, a, b)
