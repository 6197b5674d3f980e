"""E9 — §7(3): the dense hierarchy between ``n log n`` and ``n^2``.

For each growth law ``g`` in the standard ladder (``n log n``, ``n^1.5``,
``n log^2 n``, ``n^2``) the ``L_g`` recognizer is swept over ring sizes on
member words (worst case: full windows travel the whole ring).  Checks:

* decisions match the language definition on members and non-members;
* the *compare pass* — the ``Theta(n p) = Theta(g)`` component the theorem
  is about — passes an explicit-constant envelope: ``compare/g(n)`` lies in
  ``[0.4, 1.85]`` with a flat tail, i.e. ``Theta(g)`` with named constants
  (at simulable ring sizes a model *competition* cannot separate
  ``sqrt(n)`` from ``log^2 n`` — they cross near ``n = 65536`` — so the
  envelope is the sound check; the best-fit winner is still reported);
* the total (counting pass + compare pass) stays within a constant of
  ``g(n)`` — the counting phase is absorbed because
  ``g(n) = Omega(n log n)``, exactly the paper's accounting.

Cell plan: one cell per (growth law, ring size); the envelope and
boundedness checks fold in at finalize over each law's size curve.
Sim/verify cells are *divisible* (PERFORMANCE.md layer 10): the
non-member simulation rides as one subtask, and the member run — the
Θ(g(n)) single-token pass that used to pin the campaign makespan —
decomposes into independent ring-segment replays
(:func:`repro.core.hierarchy.replay_segment`), every part drawing its
inputs from identity-derived seeds.  A campaign always splits these
cells; the monolithic path (``run_cell`` / ``ExperimentSpec.run``)
simulates both halves for real and stays the byte-identity oracle for
the replays.

Mode axis (PERFORMANCE.md layer 7): the compare-pass counts are
position-determined, so :mod:`repro.analysis.models` predicts them in
closed form.  Under ``--mode model`` every cell takes that O(log n)
analytic path (the long sweep extends past the simulable ceiling to
n = 2^20); under ``--mode verify`` simulable cells run *both* and
persist a bit-for-bit calibration verdict — the simulator stays the
oracle.
"""

from __future__ import annotations

import random

from repro.analysis import models as analytic
from repro.analysis.growth import classify_growth, theta_check
from repro.bits import fixed_width_for
from repro.core.hierarchy import HierarchyRecognizer, replay_segment
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    ExperimentSpec,
    RunProfile,
    Subtask,
    Sweep,
    calibration_line,
    cell_seed,
    route_mode,
    subtask_seed,
)
from repro.languages.hierarchy import STANDARD_GROWTHS, PeriodicLanguage
from repro.ring.unidirectional import run_unidirectional

# The long ceiling sat at 10240 while per-experiment pools serialized
# the Θ(n²) law behind eleven other experiments; under the shared-pool
# campaign its cells interleave with the whole fleet, so the sweep now
# doubles out to 16384 (the n^2 cell at 16384 is the campaign's single
# heaviest and is scheduled first by global LPT).  Past that, simulation
# stops being the tool: model-routed profiles extend the long sweep two
# more decades to n = 2^20 through the calibrated analytic fast path.
SWEEP = Sweep(
    full=(16, 32, 64, 128, 192, 256, 384, 512),
    quick=(16, 32, 64, 96),
    long=(1024, 2048, 4096, 10240, 12288, 16384),
    model_long=(32768, 65536, 131072, 262144, 524288, 1048576),
)

_GROWTHS = {growth.name: growth for growth in STANDARD_GROWTHS}

# The recognizer's wire format over the binary alphabet "ab".
_LETTER_WIDTH = fixed_width_for(len("ab"))

# Simulated records match the analytic model on exactly these fields —
# the bit-for-bit calibration contract of verify cells.
_VERIFY_FIELDS = ("skipped", "n", "p", "compare_bits", "total_bits")


def _model_record(growth, n: int) -> dict:
    """The analytic prediction of one (growth law, size) measurement.

    Mirrors the simulated record field for field; ``decision_ok`` is
    asserted from the language definition (members accept, non-members
    reject) — the property the verify cells confirm against the oracle.
    Never touches a simulator.
    """
    language = PeriodicLanguage(growth)
    p = language.block_length(n)
    if n < 1 or p < 1 or p > n:
        # Exactly when sample_member returns None: no member to run.
        return {"skipped": True}
    compare = analytic.hierarchy_compare_bits(n, p, _LETTER_WIDTH)
    total = analytic.hierarchy_count_bits(n) + compare
    return {
        "skipped": False,
        "n": n,
        "p": p,
        "compare_bits": compare,
        "total_bits": total,
        "total_ratio": total / max(growth(n), 1),
        "decision_ok": True,
    }


def _measure_member(params: dict, rng: random.Random) -> dict:
    """Member-word half of one (growth law, size) simulation.

    The expensive half of the cell: sample a member, run the recognizer,
    split the passes.  ``decision_ok`` here covers the member run only —
    the fold ANDs in the non-member verdict.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    language = PeriodicLanguage(growth)
    member = language.sample_member(n, rng)
    if member is None:
        return {"skipped": True}
    trace = run_unidirectional(
        HierarchyRecognizer(language), member, trace="metrics"
    )
    return {
        "skipped": False,
        "n": n,
        "p": language.block_length(n),
        "compare_bits": trace.bits_of_pass(1),
        "total_bits": trace.total_bits,
        "total_ratio": trace.total_bits / max(growth(n), 1),
        "decision_ok": trace.decision is True,
    }


def _measure_non_member(params: dict, rng: random.Random) -> dict:
    """Non-member half: does the recognizer reject a perturbed word?

    ``rejected`` is ``None`` when no non-member exists at this size —
    the fold then leaves the member verdict alone, exactly like the
    historical single-pass measurement did.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    language = PeriodicLanguage(growth)
    non_member = language.sample_non_member(n, rng)
    if non_member is None:
        return {"rejected": None}
    trace = run_unidirectional(
        HierarchyRecognizer(language), non_member, trace="metrics"
    )
    return {"rejected": trace.decision is False}


# The sim decomposition (PERFORMANCE.md layer 10).  The member run is
# the cell's makespan problem — one Θ(g(n)) single-token simulation
# that used to ride whole — so the divided path replays it as
# _SEGMENTS independent ring slices (repro.core.hierarchy.replay_segment:
# the token's state at any position is a pure function of the word
# prefix, and sizes come from the live codec).  The non-member run
# stays a true simulation: it is the cheap half, and it keeps the
# simulator exercised on the default path.  The monolithic oracle
# (_measure, reached through run_cell) simulates BOTH halves, so
# fold(subtasks) == monolithic asserts replay == simulation.
_SEGMENTS = 4
# Divided-path cost shares of the declared cell weight: the non-member
# simulation dominates (segment replay is O(n log n) regardless of g);
# when p == n no non-member exists and its run is a no-op.
_NON_MEMBER_SHARE = 0.9


def _segment_bounds(n: int, index: int, total: int) -> "tuple[int, int]":
    """Contiguous position range of segment ``index`` of ``total``."""
    return (n * index) // total, (n * (index + 1)) // total


def _member_word(params: dict) -> "str | None":
    """The member word, from the *cell-level* ``member`` seed stream.

    Every member segment — and the monolithic ``_measure_member`` run —
    reconstructs the same word: it is a function of cell identity, not
    of which part (or worker, or K) touches it.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    language = PeriodicLanguage(growth)
    key = _cell_key(params["growth"], n, params.get("mode", "sim"))
    return language.sample_member(
        n, random.Random(subtask_seed("E9", key, "member"))
    )


def _measure_member_segment(params: dict, rng: random.Random) -> dict:
    """One ring-segment replay of the member run (divided path only).

    ``params["segment"]``/``params["segments"]`` select the position
    slice; the shared ``rng`` is unused (the word comes from
    :func:`_member_word`, the segment accounting is deterministic).
    """
    member = _member_word(params)
    if member is None:
        return {"skipped": True}
    growth = _GROWTHS[params["growth"]]
    start, stop = _segment_bounds(
        params["n"], params["segment"], params["segments"]
    )
    return {
        "skipped": False,
        **replay_segment(PeriodicLanguage(growth), member, start, stop),
    }


def _member_from_segments(params: dict, parts: dict) -> dict:
    """Reassemble the member-half record from its segment replays.

    Summing any partition of ``[0, n)`` reproduces the simulated pass
    totals exactly; the decision is the OR of the segment-local fail
    flags (a mismatch anywhere fails the word).
    """
    segments = [parts[f"member-seg{k}"] for k in range(_SEGMENTS)]
    if any(segment["skipped"] for segment in segments):
        return {"skipped": True}
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    compare = sum(segment["compare_bits"] for segment in segments)
    total = compare + sum(segment["count_bits"] for segment in segments)
    fail = max(segment["fail"] for segment in segments)
    return {
        "skipped": False,
        "n": n,
        "p": PeriodicLanguage(growth).block_length(n),
        "compare_bits": compare,
        "total_bits": total,
        "total_ratio": total / max(growth(n), 1),
        "decision_ok": bool(segments[0]["p_valid"]) and fail == 0,
    }


def _split(cell: Cell) -> "list[Subtask]":
    """Decompose one sim/verify cell: non-member run + member segments."""
    n = cell.params["n"]
    p = PeriodicLanguage(_GROWTHS[cell.params["growth"]]).block_length(n)
    non_share = 0.0 if p == n else _NON_MEMBER_SHARE
    subtasks = [
        Subtask(
            exp_id=cell.exp_id,
            cell_key=cell.key,
            part="non-member",
            fn=_measure_non_member,
            params=dict(cell.params),
            seed=subtask_seed(cell.exp_id, cell.key, "non-member"),
            weight=cell.weight * non_share,
        )
    ]
    segment_share = (1.0 - non_share) / _SEGMENTS
    for k in range(_SEGMENTS):
        part = f"member-seg{k}"
        subtasks.append(
            Subtask(
                exp_id=cell.exp_id,
                cell_key=cell.key,
                part=part,
                fn=_measure_member_segment,
                params={**cell.params, "segment": k, "segments": _SEGMENTS},
                seed=subtask_seed(cell.exp_id, cell.key, part),
                weight=cell.weight * segment_share,
            )
        )
    return subtasks


def _combine(params: dict, member: dict, non_member: dict) -> dict:
    """Member + non-member halves -> the cell record (both paths).

    Pure in its inputs; the verify verdict is recomputed here (the
    analytic model is O(log n)) so a folded verify cell carries exactly
    the verdict the monolithic path would have persisted.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    record = dict(member)
    if not record["skipped"]:
        rejected = non_member["rejected"]
        if rejected is not None:
            record["decision_ok"] = record["decision_ok"] and rejected
    else:
        record = {"skipped": True}
    if params.get("mode", "sim") == "sim":
        return record
    verdict = analytic.calibration_verdict(
        record, _model_record(growth, n), _VERIFY_FIELDS
    )
    return {**record, "mode": "verify", **verdict}


def _fold(params: dict, parts: dict) -> dict:
    """Reconstruct the cell record from the divided path's parts."""
    return _combine(
        dict(params),
        _member_from_segments(dict(params), parts),
        parts["non-member"],
    )


def _measure(params: dict, rng: random.Random) -> dict:
    """One (growth law, size) under the cell's mode.

    ``sim``/``verify`` simulate both halves for real — this is the
    oracle the divided path's segment replays are byte-diffed against
    (REPRO_NO_SPLIT=1, the split-parity CI job, and tests/test_split.py
    all pin ``fold(subtasks) == monolithic``).  Each half draws its
    word from its own :func:`subtask_seed` stream, never from the
    shared ``rng``.  ``model``: closed-form prediction only.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    mode = params.get("mode", "sim")
    if mode == "model":
        return {**_model_record(growth, n), "mode": "model"}
    key = _cell_key(params["growth"], n, mode)
    return _combine(
        dict(params),
        _measure_member(
            dict(params), random.Random(subtask_seed("E9", key, "member"))
        ),
        _measure_non_member(
            dict(params), random.Random(subtask_seed("E9", key, "non-member"))
        ),
    )


TITLE = "The Theta(g(n)) hierarchy (§7(3))"


def _cell_key(name: str, n: int, mode: str) -> str:
    """Cell identity; non-sim modes are distinct keys (distinct records)."""
    key = f"g={name}/n={n}"
    return key if mode == "sim" else f"{key}/mode={mode}"


def plan(profile: RunProfile) -> list[Cell]:
    """Independent per-(growth law, size) cells, routed by mode."""
    cells = []
    for name in _GROWTHS:
        for n in SWEEP.sizes(profile):
            mode = route_mode(profile, n)
            key = _cell_key(name, n, mode)
            params = {"growth": name, "n": n}
            if mode != "sim":
                params["mode"] = mode
                params["model_version"] = analytic.MODEL_VERSION
            divisible = mode != "model"
            cells.append(
                Cell(
                    exp_id="E9",
                    key=key,
                    fn=_measure,
                    params=params,
                    seed=cell_seed("E9", key),
                    # Model cells cost O(log n) regardless of g(n); the
                    # LPT scheduler should treat them as free.  Sim and
                    # verify cells are divisible: their member and
                    # non-member runs schedule as independent subtasks.
                    weight=1.0 if mode == "model" else _GROWTHS[name](n),
                    mode=mode,
                    split=_split if divisible else None,
                    fold=_fold if divisible else None,
                )
            )
    return cells


def _measured(profile: RunProfile, records: dict, name: str) -> list:
    """One law's records in sweep order, skipped sizes dropped — the
    single filter both curves() and finalize() consume, so the table
    rows and the fitted series cannot drift apart."""
    return [
        record
        for record in (
            records[_cell_key(name, n, route_mode(profile, n))]
            for n in SWEEP.sizes(profile)
        )
        if not record["skipped"]
    ]


def curves(profile: RunProfile, records: dict) -> dict:
    """One compare-pass curve per growth law — what finalize fits."""
    out = {}
    for name in _GROWTHS:
        measured = _measured(profile, records, name)
        out[name] = (
            [record["n"] for record in measured],
            [record["compare_bits"] for record in measured],
        )
    return out


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Rows per (law, size); envelope + boundedness verdicts per law."""
    result = ExperimentResult(
        exp_id="E9",
        title=TITLE,
        claim="for each g between n log n and n^2, L_g costs Theta(g(n))",
        columns=[
            "g",
            "n",
            "p",
            "mode",
            "compare bits",
            "total bits",
            "total/g(n)",
            "verify",
            "decision_ok",
        ],
    )
    all_ok = True
    curve_map = curves(profile, records)
    for name, growth in _GROWTHS.items():
        measured = _measured(profile, records, name)
        # The fitted series comes from curves() — the same extraction
        # refit_from_store replays against stored records.
        ns, compare_bits = curve_map[name]
        total_ratios = []
        for record in measured:
            all_ok = all_ok and record["decision_ok"]
            all_ok = all_ok and record.get("verdict", "PASS") == "PASS"
            total_ratios.append(record["total_ratio"])
            result.rows.append(
                {
                    "g": name,
                    "n": record["n"],
                    "p": record["p"],
                    "mode": record.get("mode", "sim"),
                    "compare bits": record["compare_bits"],
                    "total bits": record["total_bits"],
                    "total/g(n)": round(record["total_ratio"], 3),
                    "verify": record.get("verdict", ""),
                    "decision_ok": record["decision_ok"],
                }
            )
        best = classify_growth(ns, compare_bits)
        envelope = theta_check(ns, compare_bits, growth, low=0.4, high=1.85)
        # Total stays within a constant of g: ratio bounded and not growing.
        bounded = max(total_ratios) <= 10 and (
            total_ratios[-1] <= total_ratios[0] * 1.5
        )
        all_ok = all_ok and envelope.ok and bounded
        result.conclusions.append(
            f"L_g[{name}]: compare/g in [{envelope.min_ratio:.2f}, "
            f"{envelope.max_ratio:.2f}], tail cv={envelope.dispersion:.3f} "
            f"=> Theta(g); best-fit shelf: {best.model.name}; "
            f"total/g in [{min(total_ratios):.2f}, {max(total_ratios):.2f}] "
            f"{'ok' if envelope.ok and bounded else 'MISMATCH'}"
        )
    calibration = calibration_line(records.values())
    if calibration is not None:
        result.conclusions.append(calibration)
    result.conclusions.append(
        "every compare-pass curve is Theta(its own g) with explicit "
        "constants, and totals track Theta(g): the n log n .. n^2 range "
        "is dense, as §7(3) claims"
    )
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E9", plan=plan, finalize=finalize, curves=curves, title=TITLE
)
