"""Readers of the JSON documents the package takes: run configs, medium
descriptors and bank sidecars.

A reader is a callable ``read(value, path)`` that returns ``value`` or
raises :class:`JsonError` at the first fault, naming its JSON path
(``$.atoms[0].position``) and saying what is wrong in jsonschema's words
(``[1, 2] is too short``).  Four kinds of reader cover every document:

- :func:`value`, a JSON value of one of some kinds, with optional bounds;
- :func:`enum`, one of some values;
- :func:`array`, an array of items of one reader, with count limits;
- :func:`obj`, an object whose every key pairs a reader with a default.

The object reader fills in the default of each absent key in place, so a
document that must stay as it is is read as a deep copy.  This module
imports nothing numerical: the command line reads its config before it
sets the BLAS thread variables that numpy reads when it loads.
"""

from __future__ import annotations

import copy
import math
import sys

# an object key's default: the key must be present, or its absence stays
REQUIRED = object()
OPTIONAL = object()


class JsonError(ValueError):
    """A fault in a JSON document: its path and jsonschema's message."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


_KINDS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    # a JSON integer literal: 4.0 is not one, since the tasks index and
    # size arrays with these values
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # finite as a float: json.loads admits NaN and Infinity, which are not
    # JSON numbers, and integer literals past the float range
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max),
}


def _show(v) -> str:
    """``repr(v)``; an int past Python's str-conversion limit, alone or in a
    list or dict, is shown by its digit count."""
    if isinstance(v, list):
        return "[" + ", ".join(map(_show, v)) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_show(k)}: {_show(x)}" for k, x in v.items()) + "}"
    try:
        return repr(v)
    except ValueError:
        if not isinstance(v, int):
            raise
        # 2**(b-1) <= |v| < 2**b leaves two digit counts, told apart by one power of ten
        n = abs(v)
        digits = int((n.bit_length() - 1) * math.log10(2)) + 1
        return f"<integer of {digits + (n >= 10**digits)} digits>"


def value(*kinds: str, minimum=None, exclusive_minimum=None):
    """A JSON value of one of ``kinds``, at least ``minimum`` or above
    ``exclusive_minimum``; bounds go with the kinds "number" and "integer"."""

    def read(v, path):
        if not any(_KINDS[kind](v) for kind in kinds):
            raise JsonError(path, f"{_show(v)} is not of type {', '.join(map(repr, kinds))}")
        if minimum is not None and v < minimum:
            raise JsonError(path, f"{_show(v)} is less than the minimum of {minimum!r}")
        if exclusive_minimum is not None and v <= exclusive_minimum:
            raise JsonError(
                path, f"{_show(v)} is less than or equal to the minimum of {exclusive_minimum!r}")
        return v

    return read


def enum(*values):
    """One of ``values``, of the same JSON type: ``1.0`` and ``true`` are not ``1``."""

    def read(v, path):
        if not any(type(v) is type(x) and v == x for x in values):
            raise JsonError(path, f"{_show(v)} is not one of {list(values)!r}")
        return v

    return read


def array(items, min_items: int = 0, max_items: int | None = None):
    """An array of ``min_items`` to ``max_items`` values, each read by ``items``."""
    is_array = value("array")

    def read(v, path):
        is_array(v, path)
        if len(v) < min_items:
            short = "should be non-empty" if min_items == 1 else "is too short"
            raise JsonError(path, f"{_show(v)} {short}")
        if max_items is not None and len(v) > max_items:
            raise JsonError(path, f"{_show(v)} is too long")
        for i, item in enumerate(v):
            items(item, f"{path}[{i}]")
        return v

    return read


def obj(keys: dict):
    """An object of no keys but those of ``keys``, each read by its reader.

    ``keys`` maps each key to ``(reader, default)``.  An absent key is
    refused if its default is ``REQUIRED`` and stays absent if it is
    ``OPTIONAL``; a default of None is set as it is, and any other default
    is set as a copy read by the key's reader, so that the defaults of an
    absent section's own keys are filled in too.
    """
    is_object = value("object")

    def read(v, path):
        is_object(v, path)
        for key, (_, default) in keys.items():
            if default is REQUIRED and key not in v:
                raise JsonError(path, f"{key!r} is a required property")
        extras = sorted((key for key in v if key not in keys), key=str)
        if extras:
            names = ", ".join(map(_show, extras))
            verb = "was" if len(extras) == 1 else "were"
            raise JsonError(path,
                            f"Additional properties are not allowed ({names} {verb} unexpected)")
        for key, (reader, default) in keys.items():
            if key in v:
                reader(v[key], f"{path}.{key}")
            elif default is None:
                v[key] = None
            elif default is not OPTIONAL:
                v[key] = reader(copy.deepcopy(default), f"{path}.{key}")
        return v

    return read
