"""E10 — §7(4): knowing ``n`` closes the gap down to ``Theta(n)``.

Two exhibits:

* **Hierarchy without counting** — the known-``n`` ``L_g`` recognizer runs
  the comparison pass only (fail bit + window, no counters).  With
  ``g(n) = n`` the messages are 2 bits and the total is ``Theta(n)``; with
  the larger ``g``'s it tracks ``Theta(g(n))`` like E9 but without the
  ``n log n`` floor — the hierarchy now starts at linear.

* **A non-regular language at exactly n bits** — ``{w : |w| prime}`` with
  ``n`` known costs exactly ``n`` bits (one confirmation bit per link),
  versus ``Theta(n log n)`` for the same language when ``n`` must be
  counted (E4's recognizer).  The measured ratio between the two grows
  like ``log n``: the ``Omega(n log n)`` barrier of Theorem 4 is purely
  the price of not knowing ``n``.

Cell plan: one cell per (known-n law, ring size) plus one per prime-length
ring size (which runs both the known-n and the counting recognizer so the
ratio column never mixes cells).

Mode axis (PERFORMANCE.md layer 7): both exhibits are position-determined
bit counts, so :mod:`repro.analysis.models` predicts them exactly —
``known_n_hierarchy_bits`` for the one-pass recognizer,
``known_n_length_bits`` / ``counting_pass_bits`` for the prime-length
contrast.  Under ``--mode model`` every cell takes the O(log n) analytic
path (the long sweep extends to n = 2^20); under ``--mode verify``
simulable cells run both and persist a bit-for-bit calibration verdict.
"""

from __future__ import annotations

import math
import random

from repro.analysis import models as analytic
from repro.analysis.growth import classify_growth, curve_from_records, theta_check
from repro.bits import fixed_width_for
from repro.core.counting import LengthPredicateRecognizer
from repro.core.known_n import (
    KnownNHierarchyRecognizer,
    KnownNLengthRecognizer,
    replay_segment as replay_known_n_segment,
)
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
from repro.languages.hierarchy import GrowthFunction, PeriodicLanguage
from repro.languages.nonregular import is_prime
from repro.ring.unidirectional import run_unidirectional

# Long ceiling raised from 10240 once the campaign scheduler let these
# Θ(n²)-law cells interleave with the rest of the fleet (see E9): two
# new sizes double the sweep out to 16384.  Model-routed profiles
# extend two more decades to n = 2^20 via the calibrated analytic path.
SWEEP = Sweep(
    full=(8, 16, 32, 64, 128, 256, 512),
    quick=(8, 16, 32),
    long=(1024, 2048, 4096, 10240, 12288, 16384),
    model_long=(32768, 65536, 131072, 262144, 524288, 1048576),
)

_GROWTHS = {
    "n": GrowthFunction("n", lambda n: float(n)),
    "n^1.5": GrowthFunction("n^1.5", lambda n: n**1.5),
    "n^2": GrowthFunction("n^2", lambda n: float(n * n)),
}

# The recognizer's wire format over the binary alphabet "ab".
_LETTER_WIDTH = fixed_width_for(len("ab"))

# Simulated records match the analytic model on exactly these fields —
# the bit-for-bit calibration contract of verify cells.
_HIERARCHY_VERIFY_FIELDS = ("skipped", "n", "bits")
_PRIME_VERIFY_FIELDS = ("n", "known_bits", "unknown_bits")


def _model_hierarchy_record(growth: GrowthFunction, n: int) -> dict:
    """Analytic prediction of one (known-n law, size) measurement.

    Mirrors the simulated record field for field; ``ok`` is asserted
    from the language definition — the property verify cells confirm
    against the oracle.  Never touches a simulator.
    """
    language = PeriodicLanguage(growth)
    p = language.block_length(n)
    if n < 1 or p < 1 or p > n:
        # Exactly when sample_member returns None: no member to run.
        return {"skipped": True}
    bits = analytic.known_n_hierarchy_bits(n, p, _LETTER_WIDTH)
    return {
        "skipped": False,
        "n": n,
        "bits": bits,
        "ratio": bits / max(growth(n), 1),
        "ok": True,
    }


def _model_prime_record(n: int) -> dict:
    """Analytic prediction of one prime-length contrast cell."""
    return {
        "n": n,
        "known_bits": analytic.known_n_length_bits(n),
        "unknown_bits": analytic.counting_pass_bits(n),
        "ok": True,
    }


def _measure_hierarchy_member(params: dict, rng: random.Random) -> dict:
    """Member-word half of one (known-n law, size) simulation."""
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    language = PeriodicLanguage(growth)
    member = language.sample_member(n, rng)
    if member is None:
        return {"skipped": True}
    trace = run_unidirectional(
        KnownNHierarchyRecognizer(language), member, trace="metrics"
    )
    return {
        "skipped": False,
        "n": n,
        "bits": trace.total_bits,
        "ratio": trace.total_bits / max(growth(n), 1),
        "ok": trace.decision is True,
    }


def _measure_hierarchy_non_member(params: dict, rng: random.Random) -> dict:
    """Non-member half; ``rejected=None`` when no non-member exists."""
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    language = PeriodicLanguage(growth)
    non_member = language.sample_non_member(n, rng)
    if non_member is None:
        return {"rejected": None}
    trace = run_unidirectional(
        KnownNHierarchyRecognizer(language), non_member, trace="metrics"
    )
    return {"rejected": trace.decision is False}


# The sim decomposition (PERFORMANCE.md layer 10), mirroring E9: the
# member run — the Θ(g(n)) single-token pass — replays as _SEGMENTS
# independent ring slices (repro.core.known_n.replay_segment), the
# non-member run stays a true simulation, and the monolithic oracle
# (_measure_hierarchy, reached through run_cell) simulates both halves.
_SEGMENTS = 4
_NON_MEMBER_SHARE = 0.9


def _segment_bounds(n: int, index: int, total: int) -> "tuple[int, int]":
    """Contiguous position range of segment ``index`` of ``total``."""
    return (n * index) // total, (n * (index + 1)) // total


def _hierarchy_member_word(params: dict) -> "str | None":
    """The member word, from the *cell-level* ``member`` seed stream.

    Every member segment — and the monolithic run — reconstructs the
    same word: a function of cell identity, not of which part runs.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    language = PeriodicLanguage(growth)
    key = _cell_key(f"g={params['growth']}", n, params.get("mode", "sim"))
    return language.sample_member(
        n, random.Random(subtask_seed("E10", key, "member"))
    )


def _measure_hierarchy_member_segment(
    params: dict, rng: random.Random
) -> dict:
    """One ring-segment replay of the member run (divided path only)."""
    member = _hierarchy_member_word(params)
    if member is None:
        return {"skipped": True}
    growth = _GROWTHS[params["growth"]]
    start, stop = _segment_bounds(
        params["n"], params["segment"], params["segments"]
    )
    return {
        "skipped": False,
        **replay_known_n_segment(
            PeriodicLanguage(growth), member, start, stop
        ),
    }


def _hierarchy_member_from_segments(params: dict, parts: dict) -> dict:
    """Reassemble the member-half record from its segment replays."""
    segments = [parts[f"member-seg{k}"] for k in range(_SEGMENTS)]
    if any(segment["skipped"] for segment in segments):
        return {"skipped": True}
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    bits = sum(segment["bits"] for segment in segments)
    fail = max(segment["fail"] for segment in segments)
    return {
        "skipped": False,
        "n": n,
        "bits": bits,
        "ratio": bits / max(growth(n), 1),
        "ok": bool(segments[0]["p_valid"]) and fail == 0,
    }


def _combine_hierarchy(params: dict, member: dict, non_member: dict) -> dict:
    """Member + non-member halves -> the cell record (both paths)."""
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    record = dict(member)
    if not record["skipped"]:
        rejected = non_member["rejected"]
        if rejected is not None:
            record["ok"] = record["ok"] and rejected
    else:
        record = {"skipped": True}
    if params.get("mode", "sim") == "sim":
        return record
    verdict = analytic.calibration_verdict(
        record, _model_hierarchy_record(growth, n), _HIERARCHY_VERIFY_FIELDS
    )
    return {**record, "mode": "verify", **verdict}


def _fold_hierarchy(params: dict, parts: dict) -> dict:
    """Reconstruct one (known-n law, size) record from the divided parts."""
    return _combine_hierarchy(
        dict(params),
        _hierarchy_member_from_segments(dict(params), parts),
        parts["non-member"],
    )


def _measure_hierarchy(params: dict, rng: random.Random) -> dict:
    """One (known-n law, size) under the cell's mode.

    ``sim``/``verify`` simulate both halves for real — the oracle the
    divided path's segment replays are byte-diffed against (the shared
    ``rng`` is unused; each half draws from its own
    :func:`subtask_seed` stream).  ``model``: closed-form only.
    """
    growth = _GROWTHS[params["growth"]]
    n = params["n"]
    mode = params.get("mode", "sim")
    if mode == "model":
        return {**_model_hierarchy_record(growth, n), "mode": "model"}
    key = _cell_key(f"g={params['growth']}", n, mode)
    return _combine_hierarchy(
        dict(params),
        _measure_hierarchy_member(
            dict(params), random.Random(subtask_seed("E10", key, "member"))
        ),
        _measure_hierarchy_non_member(
            dict(params),
            random.Random(subtask_seed("E10", key, "non-member")),
        ),
    )


def _measure_prime_known(params: dict, rng: random.Random) -> dict:
    """The known-n recognizer's run: exactly n confirmation bits."""
    n = params["n"]
    trace = run_unidirectional(
        KnownNLengthRecognizer(is_prime, name="prime (n known)"),
        "a" * n,
        trace="metrics",
    )
    return {"known_bits": trace.total_bits, "decision": trace.decision}


def _measure_prime_unknown(params: dict, rng: random.Random) -> dict:
    """The counting recognizer's run: the Theta(n log n) contrast."""
    n = params["n"]
    trace = run_unidirectional(
        LengthPredicateRecognizer(is_prime, name="prime (count)"),
        "a" * n,
        trace="metrics",
    )
    return {"unknown_bits": trace.total_bits, "decision": trace.decision}


# The counting run is the dominant cost (its messages carry counters,
# the known-n run's are single bits): bias the declared split so LPT
# schedules the heavy part first.
_PRIME_PARTS = (
    ("known", _measure_prime_known, 0.25),
    ("unknown", _measure_prime_unknown, 0.75),
)


def _fold_prime(params: dict, parts: dict) -> dict:
    """Reconstruct one prime-length contrast record from its two runs."""
    n = params["n"]
    known = parts["known"]
    unknown = parts["unknown"]
    record = {
        "n": n,
        "known_bits": known["known_bits"],
        "unknown_bits": unknown["unknown_bits"],
        "ok": (
            known["decision"] == unknown["decision"] == is_prime(n)
            and known["known_bits"] == n
        ),
    }
    if params.get("mode", "sim") == "sim":
        return record
    verdict = analytic.calibration_verdict(
        record, _model_prime_record(n), _PRIME_VERIFY_FIELDS
    )
    return {**record, "mode": "verify", **verdict}


def _measure_prime(params: dict, rng: random.Random) -> dict:
    """One prime-length size: known-n vs counting recognizer, same word."""
    n = params["n"]
    mode = params.get("mode", "sim")
    if mode == "model":
        return {**_model_prime_record(n), "mode": "model"}
    key = _cell_key("prime", n, mode)
    parts = {
        part: fn(dict(params), random.Random(subtask_seed("E10", key, part)))
        for part, fn, _share in _PRIME_PARTS
    }
    return _fold_prime(dict(params), parts)


def _split_hierarchy(cell: Cell) -> "list[Subtask]":
    """Decompose one hierarchy cell: non-member run + member segments."""
    n = cell.params["n"]
    p = PeriodicLanguage(_GROWTHS[cell.params["growth"]]).block_length(n)
    non_share = 0.0 if p == n else _NON_MEMBER_SHARE
    subtasks = [
        Subtask(
            exp_id=cell.exp_id,
            cell_key=cell.key,
            part="non-member",
            fn=_measure_hierarchy_non_member,
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
                fn=_measure_hierarchy_member_segment,
                params={**cell.params, "segment": k, "segments": _SEGMENTS},
                seed=subtask_seed(cell.exp_id, cell.key, part),
                weight=cell.weight * segment_share,
            )
        )
    return subtasks


def _split_prime(cell: Cell) -> "list[Subtask]":
    """Decompose one sim/verify prime cell into its two recognizer runs."""
    return _split_parts(cell, _PRIME_PARTS)


def _split_parts(cell: Cell, spec: tuple) -> "list[Subtask]":
    return [
        Subtask(
            exp_id=cell.exp_id,
            cell_key=cell.key,
            part=part,
            fn=fn,
            params=dict(cell.params),
            seed=subtask_seed(cell.exp_id, cell.key, part),
            weight=cell.weight * share,
        )
        for part, fn, share in spec
    ]


TITLE = "Known n: the hierarchy reaches Theta(n) (§7(4))"


def _cell_key(prefix: str, n: int, mode: str) -> str:
    """Cell identity; non-sim modes are distinct keys (distinct records)."""
    key = f"{prefix}/n={n}"
    return key if mode == "sim" else f"{key}/mode={mode}"


def plan(profile: RunProfile) -> list[Cell]:
    """Per-(law, size) hierarchy cells plus per-size prime cells, routed."""
    cells = []
    for name in _GROWTHS:
        for n in SWEEP.sizes(profile):
            mode = route_mode(profile, n)
            key = _cell_key(f"g={name}", n, mode)
            params = {"growth": name, "n": n}
            if mode != "sim":
                params["mode"] = mode
                params["model_version"] = analytic.MODEL_VERSION
            divisible = mode != "model"
            cells.append(
                Cell(
                    exp_id="E10",
                    key=key,
                    fn=_measure_hierarchy,
                    params=params,
                    seed=cell_seed("E10", key),
                    # Model cells cost O(log n) regardless of g(n); the
                    # LPT scheduler should treat them as free.  Sim and
                    # verify cells divide into the non-member run plus
                    # ring-segment replays of the member run.
                    weight=1.0 if mode == "model" else _GROWTHS[name](n),
                    mode=mode,
                    split=_split_hierarchy if divisible else None,
                    fold=_fold_hierarchy if divisible else None,
                )
            )
    for n in SWEEP.sizes(profile):
        mode = route_mode(profile, n)
        key = _cell_key("prime", n, mode)
        params = {"n": n}
        if mode != "sim":
            params["mode"] = mode
            params["model_version"] = analytic.MODEL_VERSION
        divisible = mode != "model"
        cells.append(
            Cell(
                exp_id="E10",
                key=key,
                fn=_measure_prime,
                params=params,
                seed=cell_seed("E10", key),
                weight=1.0 if mode == "model" else n,
                mode=mode,
                split=_split_prime if divisible else None,
                fold=_fold_prime if divisible else None,
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
            records[_cell_key(f"g={name}", n, route_mode(profile, n))]
            for n in SWEEP.sizes(profile)
        )
        if not record["skipped"]
    ]


def curves(profile: RunProfile, records: dict) -> dict:
    """One known-n bit curve per growth law — what finalize fits."""
    return {
        name: curve_from_records(_measured(profile, records, name))
        for name in _GROWTHS
    }


def finalize(profile: RunProfile, records: dict) -> ExperimentResult:
    """Hierarchy rows + envelopes per law, then the prime-length contrast."""
    result = ExperimentResult(
        exp_id="E10",
        title=TITLE,
        claim="with n known the counting phase disappears: L_g costs "
        "Theta(g(n)) down to g(n)=n, and a non-regular language "
        "(prime length) costs exactly n bits",
        columns=[
            "case",
            "n",
            "mode",
            "bits",
            "unknown-n bits",
            "ratio",
            "verify",
            "ok",
        ],
    )
    all_ok = True
    curve_map = curves(profile, records)
    for name, growth in _GROWTHS.items():
        measured = _measured(profile, records, name)
        # Same extraction refit_from_store replays against stored records.
        ns, bits = curve_map[name]
        for record in measured:
            all_ok = all_ok and record["ok"]
            all_ok = all_ok and record.get("verdict", "PASS") == "PASS"
            result.rows.append(
                {
                    "case": f"L_g[{name}] (n known)",
                    "n": record["n"],
                    "mode": record.get("mode", "sim"),
                    "bits": record["bits"],
                    "unknown-n bits": "",
                    "ratio": round(record["ratio"], 3),
                    "verify": record.get("verdict", ""),
                    "ok": record["ok"],
                }
            )
        fit = classify_growth(ns, bits)
        envelope = theta_check(ns, bits, growth, low=0.4, high=2.6)
        all_ok = all_ok and envelope.ok
        result.conclusions.append(
            f"known-n L_g[{name}]: bits/g in "
            f"[{envelope.min_ratio:.2f}, {envelope.max_ratio:.2f}], tail "
            f"cv={envelope.dispersion:.3f} => Theta(g); best-fit shelf: "
            f"{fit.model.name} ({'ok' if envelope.ok else 'MISMATCH'})"
        )

    for n in SWEEP.sizes(profile):
        record = records[_cell_key("prime", n, route_mode(profile, n))]
        all_ok = all_ok and record["ok"]
        all_ok = all_ok and record.get("verdict", "PASS") == "PASS"
        result.rows.append(
            {
                "case": "prime length",
                "n": record["n"],
                "mode": record.get("mode", "sim"),
                "bits": record["known_bits"],
                "unknown-n bits": record["unknown_bits"],
                "ratio": round(record["unknown_bits"] / record["known_bits"], 2),
                "verify": record.get("verdict", ""),
                "ok": record["ok"],
            }
        )
    largest = SWEEP.sizes(profile)[-1]
    result.conclusions.extend(
        [
            "prime length with n known costs exactly n bits (non-regular, O(n)!)",
            f"without n it costs Theta(n log n): the measured ratio at "
            f"n={largest} is ~log2(n)={math.log2(largest):.1f}x as the paper "
            "implies",
        ]
    )
    calibration = calibration_line(records.values())
    if calibration is not None:
        result.conclusions.append(calibration)
    result.passed = all_ok
    return result


SPEC = ExperimentSpec(
    exp_id="E10", plan=plan, finalize=finalize, curves=curves, title=TITLE
)
