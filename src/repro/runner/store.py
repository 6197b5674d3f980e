"""Persistent run store: one JSON file per measured cell.

Layout::

    <root>/<exp_id>/<preset>/<safe_key>__<config_hash>.json
    <root>/<exp_id>/<preset>/<safe_key>__<config_hash>.<part>.json.part

``config_hash`` (see :meth:`repro.experiments.base.Cell.config_hash`)
covers the cell's params and derived seed, so a stored record is loaded
only when re-running the cell would recompute it identically — change a
sweep, a knob, or the seed derivation and the old records simply stop
matching instead of silently corrupting tables.  ``--sizes`` overrides
need no special casing: the sizes live in the cell keys and params.

``.json.part`` files are a divisible cell's landed subtask records,
keyed under the cell's own name and hash: a campaign killed mid-cell
resumes from the finished parts instead of re-running a 150 s
measurement from zero.  The extension deliberately does not end in
``.json``, so every whole-record walk (:meth:`RunStore.existing_files`,
stale pruning, report loading) is blind to them; they are deleted the
moment the cell's fold lands its full record.

Writes go through a temp file + ``os.replace`` so a killed run never
leaves a half-written record for ``--resume`` to trip over.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.errors import ReproError
from repro.experiments.base import Cell, RunProfile
from repro.obs.journal import note

__all__ = [
    "RunStore",
    "StoredCell",
    "DEFAULT_STORE_ROOT",
    "read_record_payload",
    "read_subtask_payload",
]

DEFAULT_STORE_ROOT = "runs"

_UNSAFE = re.compile(r"[^A-Za-z0-9._=+-]")


def _safe_key(key: str) -> str:
    """A filesystem-safe rendering of a cell key (uniqueness comes from
    the config hash appended next to it, not from this mapping)."""
    return _UNSAFE.sub("-", key) or "cell"


def _profile_tag(profile: RunProfile) -> str:
    return profile.preset


@dataclass(frozen=True)
class StoredCell:
    """One cell record loaded back from disk."""

    record: dict
    seconds: float


def read_record_payload(path: "str | os.PathLike") -> dict:
    """Parse one record file into its full payload, or raise naming why.

    This is the store-to-store primitive (``ring-repro ingest`` walks
    *source* stores with it): unlike :meth:`RunStore.load`, there is no
    planned cell to validate against, so it checks the payload's own
    integrity — parseable JSON, the identity fields
    (``exp_id``/``key``/``preset``/``config_hash``) present as
    non-empty strings, a ``record``, and a numeric ``seconds``.  Raises
    :class:`ReproError` with the specific defect; callers decide
    whether that is fatal (a report) or a skip-with-warning (ingest).
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ReproError(f"unreadable record ({error})") from None
    if not isinstance(payload, dict):
        raise ReproError("record payload is not a JSON object")
    for field_name in ("exp_id", "key", "preset", "config_hash"):
        value = payload.get(field_name)
        if not isinstance(value, str) or not value:
            raise ReproError(f"record is missing its {field_name!r} field")
    if "record" not in payload:
        raise ReproError("record payload has no 'record' body")
    try:
        float(payload.get("seconds", 0.0))
    except (TypeError, ValueError):
        raise ReproError("record 'seconds' is not a number") from None
    return payload


def read_subtask_payload(path: "str | os.PathLike") -> dict:
    """Parse one ``.json.part`` file into its payload, or raise why.

    The partial-record sibling of :func:`read_record_payload` (ingest
    walks source stores' part files with it): same integrity checks,
    plus the ``part`` name that keys the fold.
    """
    payload = read_record_payload(path)
    part = payload.get("part")
    if not isinstance(part, str) or not part:
        raise ReproError("partial record is missing its 'part' field")
    return payload


class RunStore:
    """Filesystem-backed store of cell records under one root directory."""

    def __init__(self, root: str | os.PathLike = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)

    def path_for(self, cell: Cell, profile: RunProfile) -> Path:
        """Where this cell's record lives (for this profile's preset)."""
        return (
            self.root
            / cell.exp_id
            / _profile_tag(profile)
            / f"{_safe_key(cell.key)}__{cell.config_hash()}.json"
        )

    def load(self, cell: Cell, profile: RunProfile) -> StoredCell | None:
        """The stored record for this exact measurement, or None.

        A file whose embedded identity does not match the cell (stale
        schema, tampered params, hash collision across key sanitizing) is
        treated as a miss, never trusted.  A file that *exists* but does
        not parse — truncated by a full disk, corrupted in transit — is
        also a miss (the cell is simply re-measured), but it warns: the
        operator should know a record they paid for is unreadable.
        """
        return self._load_at(cell, self.path_for(cell, profile))

    def _load_at(self, cell: Cell, path: Path) -> StoredCell | None:
        """:meth:`load` for a caller that already holds the cell's path."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            warnings.warn(
                f"run store record {path} is corrupt ({error}); treating "
                "the cell as unmeasured",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if not isinstance(payload, dict):
            return None
        if (
            payload.get("exp_id") != cell.exp_id
            or payload.get("key") != cell.key
            or payload.get("config_hash") != cell.config_hash()
            or "record" not in payload
        ):
            return None
        try:
            seconds = float(payload.get("seconds", 0.0))
        except (TypeError, ValueError):
            return None
        return StoredCell(record=payload["record"], seconds=seconds)

    def save(
        self, cell: Cell, profile: RunProfile, record: dict, seconds: float
    ) -> Path:
        """Persist one cell record (atomic rename; safe to kill mid-run)."""
        path = self.path_for(cell, profile)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "exp_id": cell.exp_id,
            "key": cell.key,
            "preset": profile.preset,
            "mode": cell.mode,
            "params": dict(cell.params),
            "seed": cell.seed,
            "config_hash": cell.config_hash(),
            "seconds": round(seconds, 6),
            "record": record,
        }
        # PID-unique temp name: two runs sharing a store may race on the
        # same cell; each must rename its *own* complete file.
        tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
        )
        os.replace(tmp, path)
        note("store_save", exp=cell.exp_id, key=cell.key, kind="record")
        return path

    def subtask_path_for(
        self, cell: Cell, profile: RunProfile, part: str
    ) -> Path:
        """Where one part of a divisible cell's record lives."""
        return (
            self.root
            / cell.exp_id
            / _profile_tag(profile)
            / (
                f"{_safe_key(cell.key)}__{cell.config_hash()}"
                f".{_safe_key(part)}.json.part"
            )
        )

    def _subtask_paths(self, cell: Cell, profile: RunProfile) -> "list[Path]":
        directory = self.root / cell.exp_id / _profile_tag(profile)
        if not directory.is_dir():
            return []
        pattern = f"{_safe_key(cell.key)}__{cell.config_hash()}.*.json.part"
        return sorted(directory.glob(pattern))

    def save_subtask(
        self,
        cell: Cell,
        profile: RunProfile,
        part: str,
        record: dict,
        seconds: float,
    ) -> Path:
        """Persist one landed subtask record under its cell's key.

        Partial records carry the owning cell's full identity (same
        ``config_hash``), so a resumed campaign — or an ingest merging
        weight-sharded fleet legs whose parts landed on different
        machines — can only ever fold parts the current code would have
        measured identically.
        """
        path = self.subtask_path_for(cell, profile, part)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "exp_id": cell.exp_id,
            "key": cell.key,
            "part": part,
            "preset": profile.preset,
            "mode": cell.mode,
            "config_hash": cell.config_hash(),
            "seconds": round(seconds, 6),
            "record": record,
        }
        # Manual temp name: with_suffix would only strip ".part".
        tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
        )
        os.replace(tmp, path)
        note(
            "store_save", exp=cell.exp_id, key=cell.key, part=part, kind="part"
        )
        return path

    def load_subtasks(
        self, cell: Cell, profile: RunProfile
    ) -> "dict[str, StoredCell]":
        """Every landed part of this cell, as ``{part: StoredCell}``.

        Validation mirrors :meth:`load`: a part whose embedded identity
        does not match the cell is ignored, a part that fails to parse
        warns and is re-measured.
        """
        parts: "dict[str, StoredCell]" = {}
        for path in self._subtask_paths(cell, profile):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                warnings.warn(
                    f"partial record {path} is corrupt ({error}); the "
                    "subtask will be re-measured",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if not isinstance(payload, dict):
                continue
            if (
                payload.get("exp_id") != cell.exp_id
                or payload.get("key") != cell.key
                or payload.get("config_hash") != cell.config_hash()
                or not isinstance(payload.get("part"), str)
                or "record" not in payload
            ):
                continue
            try:
                seconds = float(payload.get("seconds", 0.0))
            except (TypeError, ValueError):
                continue
            parts[payload["part"]] = StoredCell(
                record=payload["record"], seconds=seconds
            )
        return parts

    def clear_subtasks(self, cell: Cell, profile: RunProfile) -> "list[Path]":
        """Delete this cell's part files (the fold landed; they are spent).

        Files that vanish mid-clear (a concurrent fold) are skipped.
        """
        cleared = []
        for path in self._subtask_paths(cell, profile):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            cleared.append(path)
        return cleared

    def existing_part_files(self) -> "set[Path]":
        """Every partial subtask record under the root — one walk.

        The part-file sibling of :meth:`existing_files` (which is blind
        to ``.json.part`` by construction); ingest uses it to carry
        killed or cross-shard partial work between stores.
        """
        found: set[Path] = set()
        if not self.root.is_dir():
            return found
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json.part"):
                    found.add(Path(dirpath) / name)
        return found

    def payload_path(self, payload: Mapping) -> Path:
        """Where a full record payload lives under this root.

        The payload addresses itself: ``exp_id``/``preset`` pick the
        directory and ``key``/``config_hash`` the filename — the same
        layout :meth:`path_for` derives from a planned cell, so a
        payload copied between stores lands exactly where the
        destination's own ``save`` would have put it.
        """
        return (
            self.root
            / str(payload["exp_id"])
            / str(payload["preset"])
            / f"{_safe_key(str(payload['key']))}__{payload['config_hash']}.json"
        )

    def write_payload(self, payload: Mapping) -> Path:
        """Persist a full record payload verbatim (atomic, canonical).

        The ingest primitive: re-serializes through the same canonical
        ``json.dumps`` as :meth:`save`, so a record that crossed
        machines byte-shifted (different indent, key order) is
        normalized back to the exact bytes a local run would have
        written.
        """
        path = self.payload_path(payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(dict(payload), sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        note(
            "store_save",
            exp=str(payload["exp_id"]),
            key=str(payload["key"]),
            kind="ingest-record",
        )
        return path

    def subtask_payload_path(self, payload: Mapping) -> Path:
        """Where a partial subtask payload lives under this root."""
        return (
            self.root
            / str(payload["exp_id"])
            / str(payload["preset"])
            / (
                f"{_safe_key(str(payload['key']))}__{payload['config_hash']}"
                f".{_safe_key(str(payload['part']))}.json.part"
            )
        )

    def write_subtask_payload(self, payload: Mapping) -> Path:
        """Persist a partial subtask payload verbatim (atomic, canonical)."""
        path = self.subtask_payload_path(payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
        tmp.write_text(
            json.dumps(dict(payload), sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        note(
            "store_save",
            exp=str(payload["exp_id"]),
            key=str(payload["key"]),
            part=str(payload["part"]),
            kind="ingest-part",
        )
        return path

    def existing_files(self) -> "set[Path]":
        """Every record file currently under the root — one directory walk.

        This is the store's iteration primitive: batch consumers (the
        campaign's ``--resume`` skip-set, the dashboard) call it once and
        then open only the files their plans can actually load, instead
        of probing the filesystem once per cell for records that are
        mostly absent or mostly present.
        """
        found: set[Path] = set()
        if not self.root.is_dir():
            return found
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json"):
                    found.add(Path(dirpath) / name)
        return found

    def load_campaign(
        self, plans: "Mapping[str, list[Cell]]", profile: RunProfile
    ) -> "dict[str, dict[str, StoredCell]]":
        """The whole campaign's skip-set from one store walk.

        ``plans`` maps experiment id to its planned cells.  One
        :meth:`existing_files` walk decides which record files are even
        present; only those are opened and hash-validated, so resuming a
        mostly-unmeasured campaign costs one directory traversal instead
        of a filesystem probe per cell.  Returns ``{exp_id: {key:
        StoredCell}}`` with only the hits present.
        """
        present = self.existing_files()
        skip: dict[str, dict[str, StoredCell]] = {}
        for exp_id, cells in plans.items():
            hits: dict[str, StoredCell] = {}
            for cell in cells:
                path = self.path_for(cell, profile)
                if path not in present:
                    continue
                stored = self._load_at(cell, path)
                if stored is not None:
                    hits[cell.key] = stored
            skip[exp_id] = hits
        return skip

    def stale_paths(
        self, cells: "list[Cell]", profile: RunProfile
    ) -> "list[Path]":
        """Superseded files for this plan's cells, sorted by name.

        A file is *stale* when it carries the same (sanitized) cell key
        as a cell of the current plan but a different config hash: the
        measurement code, seed derivation, or schema changed, so no
        invocation of the current code can ever load it again.  Files
        whose keys match no current cell are left alone — they may
        belong to a different ``--sizes`` override of the same preset
        and are still perfectly loadable by it.  Stale files are
        harmless to correctness — loads are hash-validated — but they
        accumulate, and ``ring-repro report`` surfaces them
        (``--prune-stale`` deletes them after listing).
        """
        if not cells:
            return []
        # Guard against distinct keys sanitizing to the same filename:
        # every path the plan can load is excluded, not just the
        # matching cell's own.
        expected = {self.path_for(cell, profile) for cell in cells}
        directory = self.root / cells[0].exp_id / _profile_tag(profile)
        if not directory.is_dir():
            return []
        # One directory scan, matched on the "<safe_key>__<hash>" split:
        # the hash suffix the store writes is hex, so the *last* "__"
        # always separates key from hash even for keys containing "__".
        keys = {_safe_key(cell.key) for cell in cells}
        stale = {
            path
            for path in directory.glob("*.json")
            if path not in expected
            and "__" in path.name
            and path.name[: path.name.rfind("__")] in keys
        }
        return sorted(stale)

    def prune_stale(
        self, cells: "list[Cell]", profile: RunProfile
    ) -> "list[Path]":
        """Delete this plan's stale files; returns what was removed.

        Files that vanish mid-prune (a concurrent prune) are skipped,
        not errors.
        """
        pruned = []
        for path in self.stale_paths(cells, profile):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            pruned.append(path)
        return pruned

    def require_all(
        self, cells: "list[Cell]", profile: RunProfile
    ) -> dict[str, StoredCell]:
        """Load every cell of a plan or fail, naming what is missing.

        This is the ``ring-repro report`` contract: rendering from the
        store must never silently fall back to simulation.
        """
        loaded: dict[str, StoredCell] = {}
        missing: list[str] = []
        for cell in cells:
            hit = self.load(cell, profile)
            if hit is None:
                missing.append(cell.key)
            else:
                loaded[cell.key] = hit
        if missing:
            exp_id = cells[0].exp_id if cells else "?"
            raise ReproError(
                f"run store {self.root} is missing {len(missing)} of "
                f"{len(cells)} {exp_id} cells (preset "
                f"{profile.preset}): {', '.join(missing[:8])}"
                + ("..." if len(missing) > 8 else "")
                + " — run the experiment (without --resume it re-measures "
                "everything) before asking for a report"
            )
        return loaded
