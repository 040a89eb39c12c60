"""The persistent, content-addressed proof cache.

Batch checking and fuzz campaigns re-prove the same queries endlessly:
workers share no memory, and successive runs start cold.  This module
gives :class:`~repro.logic.prove.Logic` a cross-process, cross-run
verdict store:

* **Keys are content digests.**  A ``proves`` entry is addressed by
  SHA-256 digests of the environment's full contents and of the goal
  (:func:`repro.tr.intern.node_digest` — stable structure digests,
  unlike the process-local intern ids they complement), plus the
  engine configuration; a program entry by the digest of its source
  text.  Equal keys mean equal queries, so a hit returns exactly what
  the search would recompute.
* **An append-only segment log on disk.**  Every file under
  ``shards/`` is one flush's delta: a JSON object of entries, written
  to a uniquely named ``.tmp`` file and ``os.replace``\\ d to
  ``.json``, so a reader only ever sees whole segments.  A flush reads
  nothing and writes one file.  A handle lists ``shards/`` once (on
  first access, and again after :meth:`drop_memory`) and merges every
  readable segment into one in-memory view.  ``meta.json`` records the
  format version and the reset epoch; an older format starts empty.
* **Compaction.**  A handle holding more than
  :data:`COMPACT_SEGMENTS` segments flushes its whole merged view as
  one segment and only then unlinks exactly the segments it loaded.
  Segments other processes wrote after its listing are never touched,
  so concurrent flushers — daemon lanes, fuzz shards, batch parents —
  lose nothing.
* **Single-writer discipline per run.**  Pool workers never write the
  store: each accumulates its new entries as a *delta*
  (:meth:`delta`), ships it to the parent with its results, and the
  parent :meth:`absorb`\\ s and :meth:`flush`\\ es once.

Damage reads as absence.  A garbage segment, or valid JSON of the wrong
shape, is counted in ``shards_skipped``, served as empty and unlinked
by the handle's next flush; a malformed entry inside a good segment is
counted the same way and served as absent.

Environment digests are cached per :class:`~repro.logic.env.Env`
instance (computing one is O(Γ)), and are only computed at all when a
persistent cache is attached.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Set, Tuple

from ..logic.env import Env
from ..tr.intern import node_digest
from ..tr.props import Prop

__all__ = ["ProofCache", "env_digest"]

#: bump when the on-disk layout or key derivation changes
CACHE_FORMAT = 3

#: a flush from a handle holding more segments than this compacts them
COMPACT_SEGMENTS = 16

#: listings a read retries when segments vanish under a compaction
_RELIST_ATTEMPTS = 3

#: per-Env memo of content digests, keyed by the env's exact fingerprint
_env_digests: Dict[object, str] = {}
_ENV_DIGEST_LIMIT = 1 << 16


def env_digest(env: Env) -> str:
    """A stable digest of everything a judgment can read from Γ.

    Covers the typed records, negative records, theory atoms, stored
    compounds, alias classes and the inconsistency flag — the exact
    inputs of ``proves`` — assembled order-independently (records are
    digest-sorted) so structurally equal environments built in any
    order agree.
    """
    key = env.fingerprint()
    cached = _env_digests.get(key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(b"types")
    for entry in sorted(
        node_digest(obj) + node_digest(ty) for obj, ty in env.types.items()
    ):
        hasher.update(entry.encode())
    hasher.update(b"negs")
    for entry in sorted(
        node_digest(obj) + node_digest(ty)
        for obj, tys in env.negs.items()
        for ty in tys
    ):
        hasher.update(entry.encode())
    hasher.update(b"facts")
    for entry in sorted(node_digest(fact) for fact in env.theory_facts):
        hasher.update(entry.encode())
    hasher.update(b"compounds")
    for entry in sorted(node_digest(prop) for prop in env.compounds):
        hasher.update(entry.encode())
    hasher.update(b"aliases")
    alias_pairs = []
    for member in env.aliases.members():
        representative = env.aliases.find(member)
        if representative != member:
            alias_pairs.append(node_digest(member) + node_digest(representative))
    for entry in sorted(alias_pairs):
        hasher.update(entry.encode())
    if env.inconsistent:
        hasher.update(b"absurd")
    digest = hasher.hexdigest()
    if len(_env_digests) >= _ENV_DIGEST_LIMIT:
        _env_digests.clear()
    _env_digests[key] = digest
    return digest


def _valid_program(value: object) -> bool:
    """Whether a stored program entry has the ``[ok, error, types]`` shape."""
    if not (isinstance(value, list) and len(value) == 3):
        return False
    ok, error, types = value
    return (
        isinstance(ok, bool)
        and isinstance(error, str)
        and isinstance(types, dict)
        and all(
            isinstance(name, str) and isinstance(ty, str)
            for name, ty in types.items()
        )
    )


class ProofCache:
    """An append-only on-disk verdict store (proof queries + whole programs)."""

    #: torn ``.tmp`` files older than this are swept at open (seconds);
    #: young ones may belong to a live concurrent flush and are left alone
    STALE_TMP_SECONDS = 60.0

    def __init__(self, directory: str, config_key: str = "") -> None:
        self.directory = directory
        self.config_key = config_key
        #: merged view of the loaded segments (``None`` until first access)
        self._view: Optional[Dict[str, object]] = None
        #: names of the segments folded into ``_view``, this handle's own
        #: flushes included — exactly what a compaction may unlink
        self._loaded: List[str] = []
        #: names of segments found unreadable; the next flush unlinks them
        self._unreadable: Set[str] = set()
        #: entries added this run and not yet flushed
        self._dirty: Dict[str, object] = {}
        #: corrupt/unreadable segments and malformed entries survived
        #: (each one served as absent — checks recompute and the next
        #: flush repairs the store)
        self.shards_skipped = 0
        #: optional EngineStats.rule_hits-style dict for the counter
        self._stats: Optional[Dict[str, int]] = None
        #: highest reset epoch ever recorded against this directory
        #: (``meta.json``); the daemon resumes from it at startup so
        #: epochs stay monotone across restarts over one cache dir.
        #: Entries themselves are content-addressed and survive resets
        #: — the epoch coordinates *engines*, not cache validity.
        self.epoch = 0
        self._ensure_layout()

    def bind_stats(self, rule_hits: Optional[Dict[str, int]]) -> None:
        """Mirror corruption-recovery events into an ``EngineStats``
        ``rule_hits`` dict (key ``cache.shard-skipped``)."""
        self._stats = rule_hits

    def _skip_shard(self) -> None:
        self.shards_skipped += 1
        stats = self._stats
        if stats is not None:
            stats["cache.shard-skipped"] = stats.get("cache.shard-skipped", 0) + 1

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _shard_dir(self) -> str:
        return os.path.join(self.directory, "shards")

    def _meta_path(self) -> str:
        return os.path.join(self.directory, "meta.json")

    def _sweep_stale_tmp(self) -> None:
        """Remove torn temp files a crashed flush left behind.

        A flush writes ``<stamp>.<random>.tmp`` then ``os.replace``\\ s
        it to ``.json``; a process killed in between strands the tmp
        file.  Only files older than :data:`STALE_TMP_SECONDS` are
        removed — a young one may be a concurrent flush mid-write.
        """
        now = time.time()
        for directory in (self.directory, self._shard_dir()):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(directory, name)
                try:
                    if now - os.path.getmtime(path) > self.STALE_TMP_SECONDS:
                        os.unlink(path)
                except OSError:
                    pass  # lost a race with another sweeper: fine

    def _ensure_layout(self) -> None:
        os.makedirs(self._shard_dir(), exist_ok=True)
        self._sweep_stale_tmp()
        path = self._meta_path()
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                existing = None
                self._skip_shard()  # truncated/corrupt meta: recovered below
            if isinstance(existing, dict) and existing.get("format") == CACHE_FORMAT:
                recorded = existing.get("epoch", 0)
                if isinstance(recorded, int) and recorded > 0:
                    self.epoch = recorded
                return
            # Unreadable or older on-disk format: start over.  A mere
            # configuration difference does NOT wipe anything — every
            # key already embeds the config namespace, so engines with
            # different configurations share a directory safely.
            # Concurrent openers (forked workers) may race this wipe;
            # losing an unlink race is fine.
            for name in os.listdir(self._shard_dir()):
                try:
                    os.unlink(os.path.join(self._shard_dir(), name))
                except FileNotFoundError:
                    pass
        meta = {"format": CACHE_FORMAT, "epoch": self.epoch}
        # Atomic write: a process killed mid-write must not leave a
        # corrupt meta.json that arms the wipe path for the next opener.
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".meta.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(meta, handle)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _segment_names(self) -> List[str]:
        """The segments on disk now, oldest first (names sort by stamp)."""
        try:
            names = os.listdir(self._shard_dir())
        except FileNotFoundError:
            return []
        return sorted(name for name in names if name.endswith(".json"))

    def _scan(self) -> Tuple[Dict[str, object], List[str], List[str]]:
        """Merge every readable segment on disk into one view.

        Returns the view, the names merged and the names found
        unreadable.  A segment that vanishes between listing and
        opening was folded into a newer one by a concurrent compaction;
        the listing is retried a few times so that newer segment is
        picked up.
        """
        view: Dict[str, object] = {}
        loaded: List[str] = []
        unreadable: List[str] = []
        seen: Set[str] = set()
        for _attempt in range(_RELIST_ATTEMPTS):
            vanished = False
            for name in self._segment_names():
                if name in seen:
                    continue
                seen.add(name)
                try:
                    with open(os.path.join(self._shard_dir(), name), "rb") as handle:
                        segment = json.loads(handle.read())
                except FileNotFoundError:
                    vanished = True
                    continue
                except (OSError, ValueError):
                    segment = None  # garbage/truncated
                if isinstance(segment, dict):
                    view.update(segment)
                    loaded.append(name)
                else:
                    unreadable.append(name)  # or valid JSON, wrong shape
            if not vanished:
                break
        return view, loaded, unreadable

    def _load(self) -> Dict[str, object]:
        view, loaded, unreadable = self._scan()
        for name in unreadable:
            self._skip_shard()
            self._unreadable.add(name)
        self._view = view
        self._loaded = loaded
        return view

    def _malformed(self, key: str) -> None:
        """Drop an entry of the wrong shape: it is served as absent."""
        self._skip_shard()
        self._dirty.pop(key, None)
        if self._view is not None:
            self._view.pop(key, None)

    # ------------------------------------------------------------------
    # epoch coordination (multi-lane daemon, daemon restarts)
    # ------------------------------------------------------------------
    def read_disk_epoch(self) -> int:
        """The epoch currently recorded in ``meta.json`` (0 if none).

        Re-read from disk every call: another process (or another lane's
        handle) may have bumped it since this handle was opened.
        Corrupt or missing meta reads as 0 — epoch coordination is an
        optimisation for convergence, never a soundness dependency.
        """
        try:
            with open(self._meta_path()) as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return 0
        recorded = meta.get("epoch", 0) if isinstance(meta, dict) else 0
        return recorded if isinstance(recorded, int) and recorded > 0 else 0

    def bump_epoch(self, epoch: int) -> int:
        """Record ``epoch`` in ``meta.json`` if it advances the stored one.

        Written atomically (tmp + replace) like every other file in the
        store; concurrent bumpers race benignly — the max of the epochs
        involved survives because each writer re-reads before writing.
        Returns the epoch now on disk.
        """
        current = max(self.read_disk_epoch(), self.epoch)
        if epoch <= current:
            self.epoch = current
            return current
        self.epoch = epoch
        meta = {"format": CACHE_FORMAT, "epoch": epoch}
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".meta.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(meta, handle)
            os.replace(tmp_path, self._meta_path())
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return epoch

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def prove_key(self, env: Env, goal: Prop) -> str:
        """The content address of one top-level ``proves`` query."""
        body = "p:" + self.config_key + ":" + env_digest(env) + ":" + node_digest(goal)
        return hashlib.sha256(body.encode()).hexdigest()

    def program_key(self, source: str) -> str:
        """The content address of a whole-module check."""
        body = "m:" + self.config_key + ":" + source
        return hashlib.sha256(body.encode()).hexdigest()

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> object:
        value = self._dirty.get(key)
        if value is None:
            view = self._view
            if view is None:
                view = self._load()
            value = view.get(key)
        return value

    def get_prove(self, key: str) -> Optional[bool]:
        value = self._lookup(key)
        if value is None or isinstance(value, bool):
            return value
        self._malformed(key)
        return None

    def put_prove(self, key: str, verdict: bool) -> None:
        view = self._view
        if view is None:
            view = self._load()
        if view.get(key) != verdict:
            self._dirty[key] = verdict

    def get_program(self, key: str) -> Optional[Tuple[bool, str, Dict[str, str]]]:
        """A stored module verdict: (ok, error-or-empty, pretty types)."""
        value = self._lookup(key)
        if value is None:
            return None
        if _valid_program(value):
            ok, error, types = value
            return ok, error, dict(types)
        self._malformed(key)
        return None

    def put_program(
        self, key: str, ok: bool, error: str, types: Dict[str, str]
    ) -> None:
        self._dirty[key] = [ok, error, types]

    # ------------------------------------------------------------------
    # worker → parent delta protocol
    # ------------------------------------------------------------------
    def delta(self) -> Dict[str, object]:
        """The entries added since open/flush (picklable, parent-bound)."""
        return dict(self._dirty)

    def absorb(self, delta: Dict[str, object]) -> None:
        """Fold a worker's delta into this (parent) cache."""
        self._dirty.update(delta)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _write_segment(self, entries: Dict[str, object]) -> str:
        """Write ``entries`` as one new segment; returns its name."""
        fd, tmp_path = tempfile.mkstemp(
            dir=self._shard_dir(), prefix="%016x." % time.time_ns(), suffix=".tmp"
        )
        path = tmp_path[: -len(".tmp")] + ".json"
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(json.dumps(entries, separators=(",", ":")).encode())
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return os.path.basename(path)

    def flush(self) -> int:
        """Append the dirty entries to the store as one new segment.

        Returns the number of entries written.  When this handle holds
        more than :data:`COMPACT_SEGMENTS` segments, the merged view is
        written instead and the segments it was built from are unlinked
        once it is in place.  Segments found unreadable are unlinked
        either way.
        """
        written = len(self._dirty)
        if written:
            view = self._view
            if view is None and len(self._segment_names()) > COMPACT_SEGMENTS:
                view = self._load()
            if view is not None and len(self._loaded) > COMPACT_SEGMENTS:
                view.update(self._dirty)
                name = self._write_segment(view)
                for stale in self._loaded:
                    try:
                        os.unlink(os.path.join(self._shard_dir(), stale))
                    except FileNotFoundError:
                        pass  # a concurrent compaction folded it first
                self._loaded = [name]
            else:
                name = self._write_segment(self._dirty)
                if view is not None:
                    view.update(self._dirty)
                    self._loaded.append(name)
            self._dirty = {}
        for name in self._unreadable:
            try:
                os.unlink(os.path.join(self._shard_dir(), name))
            except FileNotFoundError:
                pass
        self._unreadable = set()
        return written

    def drop_memory(self) -> None:
        """Forget the loaded segments (not the dirty entries)."""
        self._view = None
        self._loaded = []

    def __len__(self) -> int:
        """Distinct keys on disk plus unflushed ones."""
        view = self._scan()[0]
        view.update(self._dirty)
        return len(view)
