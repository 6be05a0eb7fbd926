"""Typed row construction for the dict codecs.

The dict codecs (``commit_from_dict`` & friends in
:mod:`repro.core.persistence`, ``lineage_record_from_dict`` in
:mod:`repro.provenance.ledger`) turn JSON rows from disk and from the
wire into frozen dataclasses. :func:`build` checks every value against
its field's annotation before constructing, so a row whose field has the
wrong JSON type fails to decode with a ``TypeError`` naming the field.
Without the check such a row decodes fine and fails later, half-applied:
a list-typed lineage field breaks the ledger's dedup set, a list-typed
pipeline name the branch index. The annotations are the schema; nothing
here lists a field.

This is a leaf module: it imports only the standard library.
"""

from __future__ import annotations

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
def _fields(cls) -> dict:
    return {
        name: (hint, _conformer(hint))
        for name, hint in typing.get_type_hints(cls).items()
    }


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
