"""Content-addressed solve cache for the formal engines.

CEGAR iterations repeatedly pose closely related model-checking
questions: the portfolio runs BMC and k-induction over the *same*
lowered netlist (the induction base case re-solves BMC's frames), and
refinement-by-testing reruns and scheme pruning re-verify designs that
did not change.  The cache memoizes verdicts keyed on a stable content
hash of (lowered netlist, property, engine question, bound/k), so a
question that has already been decided for an identical gate cone is
answered without touching the SAT solver.

Keys are *content* addressed: the fingerprint is computed from the
canonical JSON serialization of the gate-level netlist
(:func:`repro.hdl.serialize.circuit_to_dict`), so a circuit that
round-trips through ``serialize`` hashes identically, while any change
to the instrumented taint logic — a refined mux, an opened blackbox —
changes the key and invalidates prior answers for that cone.

The cache stores plain-data verdict records (strings, ints, dicts), so
entries persist between runs as :mod:`repro.codec` JSON
(:mod:`repro.store`) and in checkpoint journals.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit
from repro.formal.counterexample import Counterexample
from repro.formal.properties import SafetyProperty


def circuit_fingerprint(circuit: Union[Circuit, LoweredCircuit]) -> str:
    """Stable content hash of a (lowered) netlist.

    Uses the canonical serialized document, which sorts signals by name
    and preserves cell order, so structurally identical circuits — in
    particular ``serialize`` round-trips — produce identical digests.
    A flat lowering hashes its netlist into the same document, so its
    digest is the one its ``circuit`` would have, and the circuit is
    not built.  The digest is memoized on the circuit or lowering
    object; every mutation of a circuit (``add_signal``, ``add_cell``,
    ``add_register``) drops the memo, so a circuit grown after hashing
    (a product that gains a difference monitor) hashes afresh.  A
    lowering is never mutated after construction.
    """
    target = circuit
    if isinstance(circuit, LoweredCircuit):
        if circuit.netlist is None:
            return circuit_fingerprint(circuit.circuit)
        target = circuit.netlist
    cached = circuit._content_fingerprint
    if cached is not None:
        return cached
    from repro.hdl.serialize import circuit_to_dict

    doc = circuit_to_dict(target)
    doc.pop("version", None)  # format revisions must not shift keys
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    circuit._content_fingerprint = digest
    return digest


def property_fingerprint(prop: SafetyProperty) -> str:
    """Stable hash of the property portion of a solve key."""
    doc = {
        "bad": prop.bad,
        "assumptions": sorted(prop.assumptions),
        "init_assumptions": sorted(prop.init_assumptions),
        "symbolic_registers": sorted(prop.symbolic_registers),
        "symbolic_all": prop.symbolic_all_registers,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def solve_key(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    question: str,
    bound: Any = None,
) -> str:
    """The cache key for one engine question.

    Args:
        circuit: design under verification (hashed by content).
        prop: the safety property.
        question: which question is being asked — e.g. ``"bmc-frame"``
            (is *bad* reachable at exactly this depth?), ``"bmc"``,
            ``"portfolio"``.
        bound: depth / k / engine parameters distinguishing questions
            of the same kind; any JSON-serializable value.
    """
    return "%s:%s:%s:%s" % (
        question,
        circuit_fingerprint(circuit),
        property_fingerprint(prop),
        json.dumps(bound, sort_keys=True, default=str),
    )


@dataclass
class CacheStats:
    """Counters for observability reports (Table-3-style extensions)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Malformed entries dropped by a validating merge (wrong types,
    #: corrupted payloads from a damaged checkpoint).
    rejected: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def row(self) -> str:
        rejected = f", {self.rejected} rejected" if self.rejected else ""
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100:.0f}% hit rate), "
            f"{self.stores} stores, {self.evictions} evictions{rejected}"
        )


def valid_entry(key: Any, verdict: Any) -> bool:
    """Is ``(key, verdict)`` a well-formed cache entry?

    The shape contract of :class:`CachedVerdict`, checked explicitly
    because entries arrive from checkpoint files and store segments
    where corruption and truncation are real possibilities.
    """
    if not isinstance(key, str) or not key:
        return False
    if not isinstance(verdict, CachedVerdict):
        return False
    if not isinstance(verdict.status, str) or not verdict.status:
        return False
    if not isinstance(verdict.bound, int) or isinstance(verdict.bound, bool):
        return False
    if verdict.counterexample is not None and not isinstance(
            verdict.counterexample, Counterexample):
        return False
    if not isinstance(verdict.detail, dict):
        return False
    return True


@dataclass
class CachedVerdict:
    """A memoized engine answer (plain data: pickles across processes).

    ``status`` is the engine's own status string ("unsat", "sat",
    "proved", "bound_reached", ...); ``bound`` carries the depth the
    verdict holds for; ``counterexample`` is the word-level stimulus
    when the answer is a violation.
    """

    status: str
    bound: int = -1
    counterexample: Optional[Counterexample] = None
    detail: Dict[str, Any] = field(default_factory=dict)


class SolveCache:
    """LRU verdict cache shared across engines and CEGAR iterations."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CachedVerdict]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[CachedVerdict]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: str) -> Optional[CachedVerdict]:
        """Lookup without touching the hit/miss counters or LRU order."""
        return self._entries.get(key)

    def put(self, key: str, verdict: CachedVerdict) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = verdict
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def merge_entries(self, entries: Dict[str, CachedVerdict]) -> None:
        """Adopt entries computed elsewhere (e.g. an earlier run).

        Entries cross a disk boundary (restored from a checkpoint
        journal), so they are *validated* before adoption: anything
        malformed —
        wrong container type, a payload that is not a
        :class:`CachedVerdict`, fields of the wrong type — is counted
        in ``stats.rejected`` and dropped rather than stored where it
        could later poison a verdict.  Store-backs count as stores (and
        may evict) but not as lookups.
        """
        if not isinstance(entries, dict):
            self.stats.rejected += 1
            return
        for key, verdict in entries.items():
            if not valid_entry(key, verdict):
                self.stats.rejected += 1
                continue
            if key not in self._entries:
                self.put(key, verdict)

    def preload_entries(self, entries: Dict[str, CachedVerdict]) -> int:
        """Adopt pre-existing entries without touching the counters.

        Used when a persistent store (:mod:`repro.store`) seeds a fresh
        cache at open: unlike :meth:`merge_entries`, preloaded entries
        do not count as ``stores`` — they were paid for by an earlier
        run — but they are still *validated*, and anything malformed is
        counted in ``stats.rejected`` and dropped.  Returns how many
        entries were adopted.
        """
        loaded = 0
        for key, verdict in entries.items():
            if not valid_entry(key, verdict):
                self.stats.rejected += 1
                continue
            self._entries[key] = verdict
            loaded += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return loaded

    def clear(self) -> None:
        self._entries.clear()

    def snapshot_entries(self) -> Dict[str, CachedVerdict]:
        """A shallow copy of the entries (for a checkpoint)."""
        return dict(self._entries)


class ThreadSafeSolveCache(SolveCache):
    """A :class:`SolveCache` safe to share across threads.

    The base class is deliberately lock-free — the CLI is
    single-threaded — but a caller that hands one cache to several
    threads would break the ``OrderedDict`` LRU bookkeeping
    (``move_to_end``, eviction) under concurrent mutation.  Every
    public operation here runs under a reentrant mutex; subclasses
    composing multi-step operations (see
    :class:`repro.store.store.StoreBackedCache`) take the same
    ``self._mutex`` around them.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__(max_entries)
        self._mutex = threading.RLock()

    def get(self, key: str) -> Optional[CachedVerdict]:
        with self._mutex:
            return super().get(key)

    def peek(self, key: str) -> Optional[CachedVerdict]:
        with self._mutex:
            return super().peek(key)

    def put(self, key: str, verdict: CachedVerdict) -> None:
        with self._mutex:
            super().put(key, verdict)

    def merge_entries(self, entries: Dict[str, CachedVerdict]) -> None:
        with self._mutex:
            super().merge_entries(entries)

    def preload_entries(self, entries: Dict[str, CachedVerdict]) -> int:
        with self._mutex:
            return super().preload_entries(entries)

    def clear(self) -> None:
        with self._mutex:
            super().clear()

    def snapshot_entries(self) -> Dict[str, CachedVerdict]:
        with self._mutex:
            return super().snapshot_entries()
