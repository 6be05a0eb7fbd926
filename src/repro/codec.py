"""Row codecs derived from the dataclasses.

Every row kind that lands on disk as a journal row and crosses the wire
as a pack row (commits, specs, recipes, checkpoint records, lineage
records) is a frozen dataclass, and that dataclass is its one schema:
:func:`encode` writes an object's JSON row, :func:`decode` reads it
back, both from a plan computed once per class. Where a row differs
from the fields, a field's ``metadata`` says so: ``"wire"`` is its key
in the row, ``"encode"``/``"decode"`` convert its value, an
``"optional"`` field a row omits takes its default, and a ``"keyed"``
field is the key the row is stored under, not part of it. A class's
``WIRE_CONSTANTS`` are keys every row carries with a fixed value and a
reader ignores.

:func:`build` checks every value against its field's annotation before
constructing, so a row whose field has the wrong JSON type fails to
decode with a ``TypeError`` naming the field. Without the check such a
row decodes fine and fails later, half-applied: a list-typed lineage
field breaks the ledger's dedup set, a list-typed pipeline name the
branch index. The annotations are the types; nothing here lists a field.

This is a leaf module: it imports only the standard library.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache


def _kinds(hint) -> tuple | None:
    """The types a value of a plain annotation (or a union of plain
    ones) may have; None for a tuple annotation. JSON writes a whole
    float as an int, so a float field takes both."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        members = [_kinds(arg) for arg in typing.get_args(hint)]
        return None if None in members else sum(members, ())
    if typing.get_origin(hint) is not None:
        return None
    return (int, float) if hint is float else (hint,)


@cache
def _conformer(hint):
    """A function returning a value as a field annotated ``hint`` holds
    it — a JSON list becomes a tuple, a dict is copied — and raising
    ``TypeError`` for a value of another type. A bool is not a number."""
    kinds = _kinds(hint)
    if kinds is not None:
        exact = frozenset(kinds)
        copy = dict in kinds

        def conform(value):
            if type(value) not in exact and (
                not isinstance(value, kinds) or isinstance(value, bool)
            ):
                raise TypeError
            return dict(value) if copy and isinstance(value, dict) else value

        return conform
    args = typing.get_args(hint)  # a tuple annotation
    if args[-1] is Ellipsis:
        item = _conformer(args[0])
        # Items of exactly these types need no per-item call (a long
        # recipe holds thousands of digests); ints go the slow way, which
        # tells a bool from an int.
        exact = set(_kinds(args[0]) or ()) - {int, dict}

        def conform(value):
            if not isinstance(value, (list, tuple)):
                raise TypeError
            if set(map(type, value)) <= exact:
                return tuple(value)
            return tuple(map(item, value))

        return conform
    items = tuple(map(_conformer, args))

    def conform(value):
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise TypeError
        return tuple(check(part) for check, part in zip(items, value))

    return conform


@cache
def _jsonifier(hint):
    """A function returning a value of a field annotated ``hint`` as
    JSON reads it back — a tuple as a list, a dict copied — or None when
    the value already is."""
    if hint is dict or typing.get_origin(hint) is dict:
        return dict
    if typing.get_origin(hint) is not tuple:
        return None
    item = _jsonifier(typing.get_args(hint)[0])  # a row's tuples hold one kind
    if item is None:
        return list
    return lambda value: [item(part) for part in value]


@cache
def _fields(cls) -> dict:
    return {
        name: (hint, _conformer(hint))
        for name, hint in typing.get_type_hints(cls).items()
    }


@cache
def _plan(cls) -> tuple[tuple, dict, tuple]:
    """``(writes, constants, reads)`` of a row class: ``(field, key,
    encode)`` per written field, the keys written with a fixed value,
    and ``(field, key, decode, optional)`` per field read from a row."""
    writes: list = []
    reads: list = []
    for spec in dataclasses.fields(cls):
        wire = spec.metadata
        if wire.get("keyed"):
            continue
        key = wire.get("wire", spec.name)
        encode = wire.get("encode") or _jsonifier(_fields(cls)[spec.name][0])
        writes.append((spec.name, key, encode))
        reads.append((spec.name, key, wire.get("decode"), wire.get("optional")))
    return tuple(writes), dict(getattr(cls, "WIRE_CONSTANTS", {})), tuple(reads)


def _name(hint) -> str:
    if typing.get_origin(hint) is None and hasattr(hint, "__name__"):
        return hint.__name__
    return str(hint)


def build(cls, **values):
    """``cls(**values)`` once every value conforms to its field's
    annotation; ``TypeError`` naming the first field that does not."""
    fields = _fields(cls)
    for name, value in values.items():
        hint, conform = fields[name]
        try:
            values[name] = conform(value)
        except TypeError:
            raise TypeError(
                f"{cls.__name__}.{name} must be {_name(hint)}, "
                f"got {type(value).__name__}"
            ) from None
    return cls(**values)


def encode(obj) -> dict:
    """The row of a row-class object: what :func:`decode` reads back."""
    writes, constants, _ = _plan(type(obj))
    row = dict(constants)
    for name, key, convert in writes:
        value = getattr(obj, name)
        row[key] = value if convert is None else convert(value)
    return row


def decode(cls, row: dict, **keyed):
    """The ``cls`` object a row holds, through :func:`build`. ``keyed``
    supplies the fields the row is stored under. A row lacking a key a
    field does not declare optional raises ``KeyError``; a value of the
    wrong type ``TypeError``; keys no field reads are ignored."""
    for name, key, convert, optional in _plan(cls)[2]:
        if optional and key not in row:
            continue
        value = row[key]
        keyed[name] = value if convert is None else convert(value)
    return build(cls, **keyed)
