"""Per-connection sessions: isolated state over one lane's shared engine.

Everything a connection accumulates lives here, and *only* here:

* a **module store** for ``check_text`` — source digests mapped to
  verdicts, so re-submitting an unchanged module answers instantly and
  an edited module re-checks incrementally on the warm engine (the
  session-scoped incremental re-checking the daemon exists for);
* a **REPL scope** for ``eval`` — definitions accumulate exactly like
  an interactive :class:`repro.repl.Session`, so a connection can build
  up context across requests.

The shared engine itself needs no per-session partitioning: its caches
are content-addressed (exact environment fingerprints + goals), so two
sessions checking different programs can never observe each other's
facts through it.  Everything else a connection accumulates lives in
this object and dies with the connection.

Epoch guard: every session remembers the engine epoch it last checked
under.  A ``reset`` (from *any* connection) bumps the epoch; stale
sessions then drop their cached module verdicts before serving again,
so a reset really does produce a cold re-check rather than a replay
from session-level state.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from ..checker.check import Checker
from ..checker.errors import CheckError
from ..interp.values import RacketError, UnsafeMemoryError
from ..logic.prove import Logic
from ..repl import Session as ReplSession
from ..sexp.reader import ReaderError
from ..syntax.parser import ParseError, parse_program
from ..tr.pretty import pretty_type

__all__ = ["ServerSession"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _ModuleState:
    """One checked module's last-known verdict inside a session."""

    __slots__ = ("digest", "ok", "error", "types")

    def __init__(self, digest: str, ok: bool, error: str, types: Dict[str, str]):
        self.digest = digest
        self.ok = ok
        self.error = error
        self.types = types


class ServerSession:
    """One connection's isolated view of the shared warm engine."""

    def __init__(self, session_id: str, logic: Logic, lane_index: int = 0) -> None:
        self.id = session_id
        self._logic = logic
        #: the engine lane this session is pinned to (sticky routing)
        self.lane_index = lane_index
        self._epoch = logic.epoch
        self._modules: Dict[str, _ModuleState] = {}
        self._scope = ReplSession()
        #: counters surfaced by the ``stats`` op
        self.requests = 0
        self.cached_rechecks = 0

    # ------------------------------------------------------------------
    # epoch guard
    # ------------------------------------------------------------------
    def guard_epoch(self) -> bool:
        """Drop session caches if the engine was reset; True if stale."""
        if self._epoch == self._logic.epoch:
            return False
        self._epoch = self._logic.epoch
        self._modules.clear()
        return True

    # ------------------------------------------------------------------
    # requests (engine-thread only; sessions are not thread-safe)
    # ------------------------------------------------------------------
    def check_text(self, name: str, text: str) -> Dict[str, Any]:
        """Check a named module, incrementally per session.

        An unchanged module (same content digest, same engine epoch)
        answers from the session's module store without touching the
        engine at all; an edited module re-checks on the warm engine
        and the store is updated.
        """
        self.requests += 1
        self.guard_epoch()
        digest = _digest(text)
        state = self._modules.get(name)
        if state is not None and state.digest == digest:
            self.cached_rechecks += 1
            return self._module_response(name, state, cached=True)
        ok, error, types = self._check_source(text)
        state = _ModuleState(digest, ok, error, dict(types))
        self._modules[name] = state
        return self._module_response(name, state, cached=False)

    def eval(self, expr: str) -> Dict[str, Any]:
        """Check + evaluate one input in the session's REPL scope."""
        self.requests += 1
        self.guard_epoch()
        try:
            values = self._scope.submit(expr)
        except (ReaderError, ParseError) as exc:
            return {"ok": False, "code": "parse-error", "error": str(exc)}
        except CheckError as exc:
            return {"ok": False, "code": "check-error", "error": str(exc)}
        except (RacketError, UnsafeMemoryError) as exc:
            return {"ok": False, "code": "runtime-error", "error": str(exc)}
        return {"ok": True, "values": values, "names": self._scope.names()}

    def describe(self) -> Dict[str, Any]:
        """Session facts for the ``stats`` response."""
        return {
            "id": self.id,
            "lane": self.lane_index,
            "requests": self.requests,
            "modules": len(self._modules),
            "cached_rechecks": self.cached_rechecks,
            "scope_names": self._scope.names(),
        }

    # ------------------------------------------------------------------
    def _check_source(self, text: str):
        try:
            program = parse_program(text)
            types = Checker(logic=self._logic).check_program(program)
        except (ReaderError, ParseError, CheckError) as exc:
            return False, str(exc), {}
        return True, "", {n: pretty_type(t) for n, t in types.items()}

    def _module_response(
        self, name: str, state: _ModuleState, cached: bool
    ) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "ok": state.ok,
            "name": name,
            "cached": cached,
        }
        if state.ok:
            response["types"] = dict(state.types)
        else:
            response["code"] = "check-error"
            response["error"] = state.error
        return response
