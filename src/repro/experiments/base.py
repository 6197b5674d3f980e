"""Shared experiment infrastructure.

An experiment produces an :class:`ExperimentResult`: the table rows the
paper "would have printed", the conclusions drawn, and a ``passed`` flag
asserting the paper's claimed shape held.

Every runner takes a single *profile* argument describing which sweep to
run.  A plain bool is the historical interface (``True`` = quick sweeps,
as the unit tests use; ``False`` = the full sweeps of README.md's
E1-E12 table) and still works everywhere; a :class:`RunProfile` adds
the ``long`` preset (n >= 10^4 metrics-mode sweeps for the counter-only
experiments) and an explicit ``sizes`` override (the CLI's ``--sizes``).
:meth:`Sweep.sizes` accepts either form, so experiment bodies stay
one-liner ``SWEEP.sizes(profile)`` calls.

Cell model
----------
Each experiment is declared as an :class:`ExperimentSpec`: a ``plan``
mapping a profile to independent :class:`Cell` measurements, plus a
``finalize`` folding the cells' JSON records back into the
:class:`ExperimentResult`.  A cell is pure and picklable — a module-level
measurement function, plain-data params, and a deterministically derived
RNG seed (:func:`cell_seed`, a function of ``(exp_id, key)`` only) — so
cells can run in any order, in worker processes, or be skipped entirely
when a run store already holds their record, without changing a byte of
the final tables.  ``repro.runner`` provides the parallel executor and
the persistent store; ``ExperimentSpec.run`` is the serial in-process
path every legacy ``run(profile)`` entry point delegates to.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from repro.analysis.tables import format_table
from repro.errors import ReproError

__all__ = [
    "Cell",
    "CellFn",
    "ExperimentResult",
    "ExperimentSpec",
    "RunProfile",
    "Subtask",
    "Sweep",
    "calibration_line",
    "cell_seed",
    "default_rng",
    "fold_cell",
    "route_mode",
    "run_cell",
    "run_subtask",
    "subtask_seed",
    "PRESETS",
    "MODES",
    "SIM_CEILING",
    "DEFAULT_SEED",
]

PRESETS = ("quick", "full", "long")

MODES = ("sim", "model", "verify")
"""How a cell obtains its record.

``sim`` — run the simulator (the oracle; the historical behavior).
``model`` — evaluate the analytic bit-accounting model only
(:mod:`repro.analysis.models`); O(log n), never simulates, unlocks
ring sizes far past the simulable ceiling.
``verify`` — run *both* and persist a bit-for-bit calibration verdict
alongside the simulated record.
"""

SIM_CEILING = 16384
"""Largest ring size worth simulating (the ~154 s Θ(n²) compare-pass
cells of BENCH_2026-07-30_campaign.json).  ``verify``-profile cells above
it fall back to model-only: there is no oracle run to compare against."""

DEFAULT_SEED = 20250612

# Salt for Cell.config_hash.  The hash covers the cell's params, seed,
# and its own fn source — but not helpers or the simulators the fn
# calls.  Bump this when substrate changes alter measured results, so
# every stored record in runs/ stops matching and --resume/report fail
# closed instead of serving pre-change numbers.  Source text is read
# once per function object per process and each cell memoises its hash,
# so an edit takes effect in the next process (or after a reload, which
# makes new function objects) — never mid-run.
# v2: cells carry a mode axis (sim | model | verify); the mode is part
# of the hash (and of non-sim cell keys), so model-backed and simulated
# records of the same (exp, size) are distinct store entries.
# v3: cells may be divisible (split/fold hooks, covered by the hash);
# the converted experiments re-derive their per-part randomness from
# subtask_seed on BOTH paths, so the monolithic records themselves
# changed and every pre-split store entry must stop matching.
CELL_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class RunProfile:
    """Which sweep an experiment run should execute.

    ``preset`` selects the named sweep variant; ``sizes`` (the CLI's
    ``--sizes N,N,...``) overrides every :class:`Sweep`'s ring sizes
    outright.  ``mode`` (the CLI's ``--mode``) picks how cells with an
    analytic model obtain their records — see :data:`MODES`; experiments
    without a model ignore it and simulate as always.  Truthiness
    preserves the legacy bool protocol: ``bool(profile)`` is ``True``
    exactly for the quick preset, so experiment code written as
    ``ks = (1, 2) if profile else (1, .., 5)`` keeps meaning "shrink
    auxiliary knobs in quick mode".
    """

    preset: str = "full"
    sizes: tuple[int, ...] | None = None
    mode: str = "sim"

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ReproError(
                f"unknown preset {self.preset!r}; choose from {', '.join(PRESETS)}"
            )
        if self.mode not in MODES:
            raise ReproError(
                f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}"
            )
        if self.sizes is not None:
            if not self.sizes or any(
                not isinstance(n, int) or n < 1 for n in self.sizes
            ):
                raise ReproError(
                    f"--sizes needs positive ring sizes, got {self.sizes!r}"
                )

    def __bool__(self) -> bool:
        return self.preset == "quick"

    @classmethod
    def coerce(cls, profile: "bool | RunProfile") -> "RunProfile":
        """Normalize the legacy bool form (True = quick, False = full)."""
        if isinstance(profile, RunProfile):
            return profile
        return cls(preset="quick" if profile else "full")


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    exp_id: str
    title: str
    claim: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    conclusions: list[str] = field(default_factory=list)
    passed: bool = False

    def render(self) -> str:
        """Full human-readable report (what the CLI prints)."""
        parts = [
            f"== {self.exp_id}: {self.title} ==",
            f"claim: {self.claim}",
            "",
            format_table(self.rows, self.columns),
            "",
        ]
        parts.extend(f"- {line}" for line in self.conclusions)
        parts.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)

    def require_passed(self) -> "ExperimentResult":
        """Raise if the experiment's claim check failed (used by tests)."""
        if not self.passed:
            raise ReproError(f"{self.exp_id} failed:\n{self.render()}")
        return self


@dataclass(frozen=True)
class Sweep:
    """Ring sizes for the quick/full/long variants of a sweep.

    ``long`` is the n >= 10^4 metrics-mode preset; experiments whose cost
    makes that infeasible leave it ``None`` and the long preset falls
    back to their full sweep.  ``model_long`` names the sizes *past the
    simulable ceiling* an experiment with an analytic model can reach:
    they extend the long sweep whenever the profile's mode takes the
    model path (``model``/``verify``) and are invisible to ``sim``
    profiles, whose sweeps stay exactly the historical ones.
    """

    full: tuple[int, ...]
    quick: tuple[int, ...]
    long: tuple[int, ...] | None = None
    model_long: tuple[int, ...] | None = None

    def sizes(self, profile: "bool | RunProfile" = False) -> tuple[int, ...]:
        """The sizes to use for this run (bool or :class:`RunProfile`)."""
        profile = RunProfile.coerce(profile)
        if profile.sizes is not None:
            return profile.sizes
        if profile.preset == "quick":
            return self.quick
        if profile.preset == "long" and self.long is not None:
            if profile.mode != "sim" and self.model_long:
                return self.long + self.model_long
            return self.long
        return self.full


def default_rng(seed: int = DEFAULT_SEED) -> random.Random:
    """The deterministic RNG used by all experiments (reproducible tables)."""
    return random.Random(seed)


def cell_seed(exp_id: str, key: str, base: int = DEFAULT_SEED) -> int:
    """Derive a cell's RNG seed from its identity — never from run order.

    Hashing ``(base, exp_id, key)`` makes every cell's randomness a pure
    function of *which measurement it is*: the same cell sampled under
    ``--jobs 1``, ``--jobs 8``, or alone on a resume pass sees identical
    words, which is what makes parallel and resumed tables byte-identical
    to serial ones.
    """
    digest = hashlib.sha256(f"{base}:{exp_id}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def subtask_seed(
    exp_id: str, key: str, part: str, base: int = DEFAULT_SEED
) -> int:
    """Derive one subtask's RNG seed from ``(cell identity, part name)``.

    The sub-seed is a :func:`cell_seed` over the synthetic key
    ``"<key>#part=<part>"`` — a pure function of *which slice of which
    measurement* this is, never of K, scheduling order, or which worker
    runs it.  Divisible measurement functions draw each part's
    randomness from its own sub-seed on the monolithic path too, which
    is what makes ``fold(subtasks) == monolithic`` an identity rather
    than a hope.
    """
    return cell_seed(exp_id, f"{key}#part={part}", base)


def route_mode(
    profile: "bool | RunProfile", n: int, ceiling: int = SIM_CEILING
) -> str:
    """Route one ring-size cell under the profile's mode axis.

    ``sim`` profiles simulate everything (byte-identical to the
    pre-model behavior).  ``model`` profiles take the analytic fast path
    for every routable cell.  ``verify`` profiles calibrate: cells at
    simulable sizes (``n <= ceiling``) run *both* the simulator (the
    oracle) and the model and record a bit-for-bit verdict; cells above
    the ceiling have no oracle to compare against and fall back to
    model-only.  Only experiments with an analytic model call this —
    everything else plans plain ``sim`` cells regardless of profile.
    """
    profile = RunProfile.coerce(profile)
    if profile.mode == "sim":
        return "sim"
    if profile.mode == "verify" and n <= ceiling:
        return "verify"
    return "model"


def calibration_line(records: "Iterable[dict]") -> "str | None":
    """The finalize() conclusion summarizing model routing + verdicts.

    ``None`` when every record is a plain simulated one (sim profiles
    keep their historical conclusions untouched); otherwise counts the
    model-backed cells and the verify cells' bit-for-bit PASSes.
    """
    records = list(records)
    model_count = sum(
        1 for record in records if record.get("mode") == "model"
    )
    verdicts = [
        record["verdict"]
        for record in records
        if record.get("mode") == "verify"
    ]
    if not model_count and not verdicts:
        return None
    passed = sum(1 for verdict in verdicts if verdict == "PASS")
    return (
        f"analytic fast path: {model_count} model-backed cell(s); "
        f"calibration {passed}/{len(verdicts)} verify cell(s) match the "
        "simulator bit-for-bit"
    )


CellFn = Callable[[dict, random.Random], dict]


@dataclass(frozen=True)
class Subtask:
    """One slice of a divisible cell — a first-class pool work item.

    Like a cell, a subtask is pure and picklable: ``fn(params, rng)``
    must be a module-level function returning a JSON record, ``params``
    plain data, and ``seed`` derived from identity
    (:func:`subtask_seed`), so subtasks run in any order, on any
    worker, on any shard, without changing the folded record.
    ``weight`` is the scheduling cost hint (the cell's weight divided
    among its parts); ``key`` is the pool-global work-item identity the
    weight shard strategy partitions on.
    """

    exp_id: str
    cell_key: str
    part: str
    fn: CellFn
    params: Mapping
    seed: int
    weight: float = 1.0

    @property
    def key(self) -> str:
        return f"{self.cell_key}#part={self.part}"


SplitFn = Callable[["Cell"], "Sequence[Subtask]"]
FoldFn = Callable[[dict, dict], dict]


@functools.lru_cache(maxsize=None)
def _fn_source(fn: CellFn) -> str:
    """The measurement function's source text, for the config hash.

    Conservative by design: any edit (even formatting) invalidates
    stored records.  Source-less callables (builtins, REPL definitions)
    fall back to the empty string — their identity is then carried by
    the qualified name alone.  Read once per function *object*: a
    reloaded or redefined function is a new object and is read afresh,
    whatever its qualified name.
    """
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):
        return ""


def _fn_name(fn: Callable) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def _hook_id(hook: "Callable | None") -> "list[str] | None":
    """Identity of an optional split/fold hook for the config hash."""
    if hook is None:
        return None
    return [_fn_name(hook), _fn_source(hook)]


@functools.lru_cache(maxsize=None)
def _code_identity(
    fn: CellFn, split: "SplitFn | None", fold: "FoldFn | None"
) -> "Mapping[str, object]":
    """The code part of a cell's hash blob, built once per hook triple."""
    return MappingProxyType(
        {
            "fn": _fn_name(fn),
            "fn_source": _fn_source(fn),
            # The divisibility hooks are part of the measurement's
            # identity (a fold edit must invalidate folded records),
            # but NOT the route a record took: a campaign's folded
            # record and run_cell's monolithic one share one hash,
            # which is what lets the two stores be byte-diffed.
            "split": _hook_id(split),
            "fold": _hook_id(fold),
        }
    )


@dataclass(frozen=True)
class Cell:
    """One independent measurement of an experiment plan.

    ``fn(params, rng)`` must be a module-level function (picklable by
    reference for process executors) of its arguments only, returning a
    JSON-serializable record; ``params`` is plain JSON data.  ``weight``
    is a relative cost hint (typically the ring size) the executor uses
    to schedule expensive cells first.  ``mode`` is the cell's record
    source (:data:`MODES`); non-``sim`` cells also carry the mode in
    their key (``.../mode=model``), so simulated and model-backed
    records of the same measurement are distinct store entries that can
    coexist — neither is ever "stale" relative to the other.

    A cell opts into *divisibility* by declaring both hooks:
    ``split(cell) -> [Subtask, ...]`` decomposes the measurement into
    independent picklable slices (each with a :func:`subtask_seed`
    sub-seed) and ``fold(params, {part: record}) -> record`` is the
    pure reducer reconstructing the exact cell record.  A campaign
    splits every divisible cell; :func:`run_cell` (and so
    :meth:`ExperimentSpec.run`) always measures monolithically and is
    the oracle.  The contract is byte-identity: ``fold`` over the parts
    must equal what ``fn`` computes monolithically
    (``tests/test_split.py`` diffs the two stores).
    """

    exp_id: str
    key: str
    fn: CellFn
    params: Mapping
    seed: int
    weight: float = 1.0
    mode: str = "sim"
    split: "SplitFn | None" = None
    fold: "FoldFn | None" = None

    @property
    def divisible(self) -> bool:
        """Whether this cell declares the split/fold pair."""
        return self.split is not None and self.fold is not None

    def subtasks(self) -> "list[Subtask]":
        """The declared decomposition, validated.

        Every part must target this cell (same ``exp_id``/``key``) and
        part names must be unique — the store files partial records per
        part and the fold keys on them.
        """
        if not self.divisible:
            raise ReproError(
                f"cell {self.exp_id}/{self.key} declares no split/fold pair"
            )
        parts = list(self.split(self))
        if not parts:
            raise ReproError(
                f"split of {self.exp_id}/{self.key} produced no subtasks"
            )
        names = [subtask.part for subtask in parts]
        if len(set(names)) != len(names):
            raise ReproError(
                f"split of {self.exp_id}/{self.key} has duplicate parts"
            )
        for subtask in parts:
            if subtask.exp_id != self.exp_id or subtask.cell_key != self.key:
                raise ReproError(
                    f"subtask {subtask.exp_id}/{subtask.key} does not "
                    f"belong to cell {self.exp_id}/{self.key}"
                )
        return parts

    def config_hash(self) -> str:
        """Identity of this measurement for the run store.

        Covers everything the record is a function of: params, the
        derived seed, and the measurement *code* — the cell fn's
        qualified name plus its source text, and the same for the
        split/fold hooks — so editing a ``_measure`` body invalidates
        stored records instead of silently serving pre-fix numbers to
        ``--resume``/``report``.  (Helpers the fn calls are not covered;
        bump :data:`CELL_SCHEMA_VERSION` when changing those in a
        result-affecting way.)

        Computed once: source is read once per function object per
        process, and the digest is memoised on the cell.  The memo is not
        a field — equality, ``repr`` and ``dataclasses.replace`` never see
        it — but it rides along when the cell is pickled to a worker.
        """
        memo = self.__dict__.get("_config_hash")
        if memo is not None:
            return memo
        blob = json.dumps(
            {
                **_code_identity(self.fn, self.split, self.fold),
                "schema": CELL_SCHEMA_VERSION,
                "exp_id": self.exp_id,
                "key": self.key,
                "mode": self.mode,
                "params": dict(self.params),
                "seed": self.seed,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
        object.__setattr__(self, "_config_hash", digest)
        return digest


def run_cell(cell: Cell) -> dict:
    """Execute one cell in-process and return its JSON record.

    The record is round-tripped through ``json`` so in-memory results are
    indistinguishable from store-loaded ones (tuples become lists *now*,
    not only on the resume path) and non-serializable records fail fast.
    """
    record = cell.fn(dict(cell.params), random.Random(cell.seed))
    return json.loads(json.dumps(record))


def run_subtask(subtask: Subtask) -> dict:
    """Execute one subtask in-process and return its JSON record.

    Same round-trip discipline as :func:`run_cell`: a part record that
    just ran is indistinguishable from one loaded back from a partial
    store file, so the fold sees identical inputs on every path.
    """
    record = subtask.fn(dict(subtask.params), random.Random(subtask.seed))
    return json.loads(json.dumps(record))


def fold_cell(cell: Cell, parts: "Mapping[str, dict]") -> dict:
    """Reduce a divisible cell's part records into its cell record.

    ``parts`` maps part name to that subtask's JSON record.  The result
    is round-tripped like every other record, so a folded cell is
    byte-identical in the store to a monolithically measured one.
    """
    if cell.fold is None:
        raise ReproError(
            f"cell {cell.exp_id}/{cell.key} declares no fold reducer"
        )
    record = cell.fold(dict(cell.params), dict(parts))
    return json.loads(json.dumps(record))


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative form of one experiment: plan cells, then finalize.

    ``plan(profile)`` returns the independent cells (unique keys, stable
    order); ``finalize(profile, records)`` folds ``{key: record}`` into
    the :class:`ExperimentResult`, iterating in plan order so the table
    is independent of measurement order.

    ``title`` is the experiment's display heading — the same string its
    finalize stamps on the :class:`ExperimentResult`, declared on the
    spec so presentation layers (``ring-repro dashboard``) can head a
    page for an experiment whose records are not in the store yet,
    without running anything.

    ``curves`` (optional) names the experiment's growth-law curves:
    ``curves(profile, records) -> {name: (ns, bits)}`` extracts exactly
    the ``(n, bits)`` series the finalize fits, from the same records —
    which is what lets :func:`repro.analysis.growth.refit_from_store`
    regenerate every fit from persisted cell records without
    re-simulating.  Experiments without a ring-size growth fit (word
    catalogs, closed-form trade-offs) leave it ``None``.
    """

    exp_id: str
    plan: Callable[[RunProfile], "list[Cell]"]
    finalize: Callable[[RunProfile, dict], ExperimentResult]
    curves: "Callable[[RunProfile, dict], dict] | None" = None
    title: str = ""

    def growth_curves(
        self, profile: "bool | RunProfile", records: dict
    ) -> "dict[str, tuple[list[int], list[int]]]":
        """The named ``(ns, bits)`` series this experiment fits.

        Raises for experiments that declare no curves — callers decide
        whether that is an error (``refit_from_store``) or a skip (the
        CLI's ``--refit`` loop checks ``spec.curves`` first).
        """
        if self.curves is None:
            raise ReproError(
                f"{self.exp_id} fits no growth curves (no ring-size sweep "
                "to refit)"
            )
        return self.curves(RunProfile.coerce(profile), records)

    def cells(self, profile: "bool | RunProfile" = False) -> "list[Cell]":
        """The plan under a coerced profile, validated for key uniqueness."""
        cells = self.plan(RunProfile.coerce(profile))
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ReproError(f"{self.exp_id} plan has duplicate cell keys")
        return cells

    def run(self, profile: "bool | RunProfile" = False) -> ExperimentResult:
        """Serial in-process execution: measure every cell, finalize."""
        profile = RunProfile.coerce(profile)
        records = {cell.key: run_cell(cell) for cell in self.cells(profile)}
        return self.finalize(profile, records)
