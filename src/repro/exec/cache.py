"""Content-addressed cache of experiment-point results.

Every sweep point is identified by the SHA-256 of

* a schema version (bumped if the entry layout changes),
* the **code version** — a digest over every ``repro`` source file, so
  any change to the simulator, devices, or experiment drivers silently
  invalidates the whole cache (stale results can never be served),
* the experiment id and the point's parameter dict,
* the scalar :class:`~repro.core.experiments.common.ExperimentConfig`
  fields (seed, durations, sweep sizes), and
* whether metrics and a trace were collected (such a run needs the
  per-point registry snapshot or trace segment in the entry).

Entries are small JSON files under ``<dir>/<key[:2]>/<key>.json``,
written atomically (temp file + rename), so a cache directory doubles
as a crash-safe checkpoint: re-running an interrupted sweep replays the
finished points from disk and only simulates the rest.

Because the code version participates in the key, every source change
orphans the previous generation of entries on disk;
:meth:`ResultCache.prune` (``repro cache prune``) deletes them. Each
entry records the code version it was built under so pruning never has
to guess.

Next to the entries lives a **duration sidecar** (``durations.json``)
keyed *without* the code version: it remembers how long each point took
to simulate on this machine. The execution engine sorts cache misses
longest-first from these hints, which minimizes parallel makespan (the
classic LPT heuristic) — and because the hints survive code changes,
the very first run after an edit is already well-scheduled.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

__all__ = ["ResultCache", "code_version", "CACHE_SCHEMA"]

#: Bump when the cache-entry layout changes.
CACHE_SCHEMA = 1


def code_version() -> str:
    """Digest of every ``repro`` source file (paths + contents)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """Point-result store keyed by content hash.

    Entries hold ``{"experiment_id", "label", "payload", "metrics",
    "trace", "telemetry", "elapsed_s", "events"}`` where ``payload`` is
    the point's JSON payload and the next three are the point's
    registry snapshot, trace segment and telemetry segments (or
    ``None``).
    """

    def __init__(self, directory: str | os.PathLike,
                 version: Optional[str] = None):
        self.directory = Path(directory)
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0
        self._durations: Optional[dict[str, float]] = None

    # -- keying ----------------------------------------------------------
    def key(self, experiment_id: str, params: dict, config_fields: dict,
            with_metrics: bool, with_trace: bool = False) -> str:
        blob = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "code": self.version,
                "experiment": experiment_id,
                "params": params,
                "config": config_fields,
                "metrics": with_metrics,
                "trace": with_trace,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    # -- storage ---------------------------------------------------------
    def load(self, key: str) -> Optional[dict[str, Any]]:
        """The stored entry, or ``None`` (counts a hit/miss either way).

        A file that exists but does not parse — or parses to something
        that is not a complete entry (a torn write from a crash or a
        full disk predating the atomic-rename path, manual editing, bit
        rot) — is treated as a miss: logged, deleted, and recomputed,
        rather than poisoning the engine with a ``KeyError`` later.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._discard_corrupt(path, "unreadable or truncated")
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            self._discard_corrupt(path, "not a cache entry")
            return None
        self.hits += 1
        return entry

    def _discard_corrupt(self, path: Path, why: str) -> None:
        logging.getLogger("repro.exec.cache").warning(
            "discarding corrupt cache entry %s (%s); the point will be "
            "recomputed", path, why,
        )
        try:
            path.unlink()
        except OSError:
            pass
        self.misses += 1

    def store(self, key: str, entry: dict[str, Any]) -> None:
        """Atomically persist one entry (temp file + rename).

        The entry is stamped with the code version it was built under,
        so :meth:`prune` can later identify orphans without re-deriving
        their keys.
        """
        entry = dict(entry)
        entry.setdefault("code", self.version)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, entry)

    @staticmethod
    def _atomic_write(path: Path, payload: Any) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- pruning ---------------------------------------------------------
    def prune(self, dry_run: bool = False) -> tuple[list[Path], int]:
        """Delete entries from older code versions (or corrupt files).

        Returns ``(stale, kept)`` where ``stale`` lists the entry paths
        that were deleted (or, with ``dry_run``, *would* be) and
        ``kept`` counts the entries from the current code version. The
        duration sidecar is never pruned — its whole point is surviving
        code changes.
        """
        stale: list[Path] = []
        kept = 0
        if not self.directory.is_dir():
            return stale, kept
        for path in sorted(self.directory.glob("??/*.json")):
            try:
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
                current = entry.get("code") == self.version
            except (json.JSONDecodeError, OSError):
                current = False
            if current:
                kept += 1
                continue
            stale.append(path)
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    pass
        if not dry_run:
            # Drop now-empty shard directories so the tree stays tidy.
            for shard in self.directory.glob("??"):
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return stale, kept

    # -- duration hints --------------------------------------------------
    def hint_key(self, experiment_id: str, params: dict,
                 config_fields: dict) -> str:
        """Sidecar key: like :meth:`key` but code-version-independent."""
        blob = json.dumps(
            {
                "experiment": experiment_id,
                "params": params,
                "config": config_fields,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _load_durations(self) -> dict[str, float]:
        if self._durations is None:
            try:
                with open(self.directory / "durations.json",
                          encoding="utf-8") as fh:
                    raw = json.load(fh)
                self._durations = {
                    k: float(v) for k, v in raw.items()
                    if isinstance(v, (int, float))
                }
            except (FileNotFoundError, json.JSONDecodeError, OSError,
                    AttributeError):
                self._durations = {}
        return self._durations

    def duration_hint(self, hint_key: str) -> Optional[float]:
        """Last known wall-clock seconds for this point, if any."""
        return self._load_durations().get(hint_key)

    def record_duration(self, hint_key: str, elapsed_s: float) -> None:
        """Remember how long a point took (in-memory until :meth:`flush_durations`)."""
        self._load_durations()[hint_key] = round(float(elapsed_s), 6)

    def flush_durations(self) -> None:
        """Atomically persist the duration sidecar."""
        if self._durations is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        self._atomic_write(self.directory / "durations.json",
                           self._durations)
