"""The one rule every corpus loader reads its JSON by (imports nothing of
ours: ``switchsim`` and ``runtime`` load their own objects by it)."""

from __future__ import annotations

import dataclasses
from typing import Any, Union, get_args, get_origin, get_type_hints


class CorpusFormatError(ValueError):
    """A reproducer entry, fault plan, packet stream or deployment spec
    whose JSON is not the object its ``from_dict`` reads: a missing or
    unknown key, a value of the wrong type, an unknown fault kind.  The
    message names the key and, from ``load_corpus``, the file; malformed
    input gets nothing else out of those loaders."""


def _fits(value: Any, hint) -> bool:
    """Whether JSON ``value`` can fill a field annotated ``hint``."""
    origin, args = get_origin(hint) or hint, get_args(hint)
    if origin is Union:
        return any(_fits(value, option) for option in args)
    if origin in (list, tuple):
        return isinstance(value, list) and (
            not args or all(_fits(item, args[0]) for item in value)
        )
    if isinstance(value, bool):
        return origin is bool
    if origin is float:
        return isinstance(value, (int, float))
    if dataclasses.is_dataclass(origin):  # loaded from an object of its own
        return isinstance(value, dict)
    return isinstance(value, origin)


def fields_from(data: Any, cls, what: str, **hints) -> dict:
    """``data`` as the keyword arguments of dataclass ``cls``: an object
    with a key per field — of the annotated type (``hints`` overrides one
    where the JSON form is wider; an integer in a ``float`` field arrives
    as a float), required unless defaulted — and no other key.  Anything
    else is a :class:`CorpusFormatError` naming ``what`` and the key."""
    if not isinstance(data, dict):
        raise CorpusFormatError(
            f"{what}: expected type object, got {type(data).__name__}"
        )
    hints = {**get_type_hints(cls), **hints}
    fields = {spec.name: spec for spec in dataclasses.fields(cls)}
    errors = [
        f"{what}: unknown key {key!r}" for key in data if key not in fields
    ] + [
        f"{what}: missing required key {name!r}"
        for name, spec in fields.items()
        if name not in data and spec.default is dataclasses.MISSING
        and spec.default_factory is dataclasses.MISSING
    ] + [
        f"{what}.{key}: expected {hints[key]}, got {type(value).__name__}"
        for key, value in data.items()
        if key in fields and not _fits(value, hints[key])
    ]
    if errors:
        raise CorpusFormatError("; ".join(errors[:5]))
    return {
        key: float(value) if hints[key] is float else value
        for key, value in data.items()
    }
