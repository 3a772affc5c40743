"""One strict JSON codec for every disk and socket boundary.

Solve-store records, checkpoint journal entries and the job daemon's
result documents all go through ``to_doc(value)`` and
``from_doc(type, doc)``.  Decoding is strict: a missing field, an
unknown one or a value of the wrong type raises :class:`CodecError`,
and nothing read back can run code the way an unpickled payload can.
Dataclasses are coded field by field from their annotations; a few
types keep their own document shape (registered at the bottom).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing
from typing import Any, Callable, Dict, Tuple

from repro.formal.cache import CachedVerdict
from repro.formal.counterexample import Counterexample
from repro.taint.scheme_io import scheme_from_dict, scheme_to_dict
from repro.taint.space import TaintScheme

Decoder = Callable[[Any], Any]


class CodecError(ValueError):
    """A document does not match the schema of the type asked for."""


def dumps(doc: Any, canonical: bool = False) -> bytes:
    """``doc`` as compact JSON bytes; ``canonical`` also sorts keys."""
    try:
        text = json.dumps(doc, sort_keys=canonical, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"not encodable as JSON: {exc}") from exc
    return text.encode("utf-8")


def loads(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"not a JSON document: {exc}") from exc


# ---------------------------------------------------------------------------
# Generic encode/decode
# ---------------------------------------------------------------------------

_SCALARS = (str, int, float, bool, type(None))


def to_doc(value: Any) -> Any:
    """Encode ``value`` as a JSON-ready document."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    encode = _ENCODERS.get(type(value))
    if encode is not None:
        return encode(value)
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {name: to_doc(getattr(value, name)) for name in _hints(type(value))}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SCALARS else to_doc(item)
                for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_doc(item) for item in value)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise CodecError("mapping keys must be strings")
        return {key: item if type(item) in _SCALARS else to_doc(item)
                for key, item in value.items()}
    raise CodecError(f"cannot encode a {type(value).__name__}")


def from_doc(tp: Any, doc: Any) -> Any:
    """Decode ``doc`` into ``tp``; raises :class:`CodecError`."""
    return _decoder(tp)(doc)


_DECODER_CACHE: Dict[Any, Decoder] = {}


def _decoder(tp: Any) -> Decoder:
    """The decode function for ``tp``, built once per type."""
    decode = _DECODER_CACHE.get(tp)
    if decode is None:
        decode = _DECODER_CACHE[tp] = _build_decoder(tp)
    return decode


def _build_decoder(tp: Any) -> Decoder:
    special = _DECODERS.get(tp)
    if special is not None:
        return special
    if tp is Any:
        return lambda doc: doc
    if tp is int:
        return lambda doc: doc if type(doc) is int else _fail("an integer", doc)
    if tp is float:
        return lambda doc: (float(doc) if type(doc) in (int, float)
                            else _fail("a number", doc))
    if tp is str or tp is bool:
        return lambda doc: doc if type(doc) is tp else _fail(tp.__name__, doc)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return lambda doc: _construct(tp, doc)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        (inner,) = [_decoder(arg) for arg in args if arg is not type(None)]
        return lambda doc: None if doc is None else inner(doc)
    if origin is tuple and args[-1] is not Ellipsis:
        items = [_decoder(arg) for arg in args]
        return lambda doc: tuple(
            decode(item) for decode, item in zip(items, _list(doc, len(items))))
    if origin is list:
        item = _decoder(args[0])
        return lambda doc: [item(entry) for entry in _list(doc)]
    if origin in (tuple, set, frozenset):
        item = _decoder(args[0])
        return lambda doc: origin(item(entry) for entry in _list(doc))
    if origin is dict and args[1] is int:  # signal maps: the hot case
        return lambda doc: (doc if all(type(v) is int for v in _object(doc).values())
                            else _fail("integer values", doc))
    if origin is dict:
        value = _decoder(args[1])
        return lambda doc: {key: value(entry)
                            for key, entry in _object(doc).items()}
    if dataclasses.is_dataclass(tp):
        schema = {name: _decoder(hint) for name, hint in _hints(tp).items()}
        return lambda doc: _construct(tp, **_fields(doc, schema))
    raise CodecError(f"no codec for {tp!r}")


def _fail(what: str, doc: Any):
    raise CodecError(f"expected {what}, got {type(doc).__name__}")


def _list(doc: Any, length: int = -1) -> list:
    if not isinstance(doc, list) or length not in (-1, len(doc)):
        _fail("a list" if length < 0 else f"a list of {length}", doc)
    return doc


def _object(doc: Any) -> dict:
    return doc if isinstance(doc, dict) else _fail("an object", doc)


def _construct(cls: Any, *args, **kwargs):
    """``cls(...)``, with the class's own checks reported as codec errors."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"{cls.__name__}: {exc}") from exc


def _fields(doc: Any, schema: Dict[str, Decoder]) -> Dict[str, Any]:
    """Decode an object whose keys are exactly ``schema``'s."""
    if _object(doc).keys() != schema.keys():
        raise CodecError(f"missing fields {sorted(schema.keys() - doc.keys())}"
                         f", unknown fields {sorted(doc.keys() - schema.keys())}")
    fields = {}
    for name, decode in schema.items():
        try:
            fields[name] = decode(doc[name])
        except CodecError as exc:
            raise CodecError(f"{name}: {exc}") from None
    return fields


_HINTS: Dict[type, Dict[str, Any]] = {}


def _hints(cls: type) -> Dict[str, Any]:
    """Field name -> type of a dataclass's document; fields marked
    ``metadata={"codec": False}`` stay out of it (and keep their
    default on decode)."""
    hints = _HINTS.get(cls)
    if hints is None:
        from repro.store.store import StoreStats

        resolved = typing.get_type_hints(cls, localns={"StoreStats": StoreStats})
        hints = _HINTS[cls] = {f.name: resolved[f.name]
                               for f in dataclasses.fields(cls)
                               if f.metadata.get("codec", True)}
    return hints


# ---------------------------------------------------------------------------
# Types with their own document shape
# ---------------------------------------------------------------------------

def _cex_to_doc(cex: Counterexample) -> Dict[str, Any]:
    # Signal maps are str -> int already: no need to walk them.
    return {"length": cex.length, "inputs": cex.inputs,
            "initial_state": cex.initial_state, "bad_signal": cex.bad_signal}


def _verdict_to_doc(verdict: CachedVerdict) -> Dict[str, Any]:
    doc = {"status": verdict.status, "bound": verdict.bound,
           "detail": verdict.detail}
    if verdict.counterexample is not None:
        doc["cex"] = _cex_to_doc(verdict.counterexample)
    return doc


def _verdict_from_doc(doc: Any) -> CachedVerdict:
    schema = {"status": _decoder(str), "bound": _decoder(int),
              "detail": _decoder(Dict[str, Any])}
    if "cex" in _object(doc):
        schema["cex"] = _decoder(Counterexample)
    fields = _fields(doc, schema)
    if not fields["status"]:
        _fail("a status", "")
    return CachedVerdict(fields["status"], bound=fields["bound"],
                         counterexample=fields.get("cex"),
                         detail=fields["detail"])


def entry_to_doc(key: str, verdict: CachedVerdict) -> Dict[str, Any]:
    """One solve-store record: the verdict plus its cache key."""
    return {"key": key, **_verdict_to_doc(verdict)}


def entry_from_doc(doc: Any) -> Tuple[str, CachedVerdict]:
    rest = dict(_object(doc))
    key = rest.pop("key", None)
    if not isinstance(key, str) or not key:
        _fail("a non-empty string key", key)
    return key, _verdict_from_doc(rest)


def _scheme_from_doc(doc: Any) -> TaintScheme:
    try:
        return scheme_from_dict(doc)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise CodecError(f"scheme: {exc}") from exc


_ENCODERS: Dict[type, Callable[[Any], Any]] = {
    Counterexample: _cex_to_doc,
    CachedVerdict: _verdict_to_doc,
    TaintScheme: scheme_to_dict,
}
_DECODERS: Dict[Any, Decoder] = {
    CachedVerdict: _verdict_from_doc,
    TaintScheme: _scheme_from_doc,
}
