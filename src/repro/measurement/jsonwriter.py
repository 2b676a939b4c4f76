"""The repository's one JSON text writer for ``indent=1`` artifacts.

Datasets, checkpoint shards, query payloads and cascade trajectories are
byte-pinned to ``json.dumps(obj, indent=1)`` (datasets, whose keys are
sorted beforehand except inside ``notes``) or ``json.dumps(obj, indent=1,
sort_keys=True)`` (shards, payloads, trajectories).
With an indent, the standard library runs its pure-Python generator
encoder, which yields one small piece per token. :func:`write_json`
produces the same text from one recursive pass: each container joins
its members' texts once, strings go through the C
``encode_basestring_ascii`` the standard encoder uses, and exact scalar
types skip the ``isinstance`` chain.

The contract is exact: for every input ``json.dumps`` accepts (str, int,
float, bool and None scalars, lists, tuples and dicts with str, int,
float, bool or None keys, subclasses of all of these, nested within the
interpreter's recursion limit), the text is identical, ``NaN``/``Infinity`` included; for every input it refuses,
the same exception type and message are raised (``TypeError`` for an
unsupported value or key type, ``ValueError`` for a cycle). The tests
compare both forms against ``json.dumps`` on generated trees and on
real artifacts.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any

_INFINITY = float("inf")


def write_json(obj: Any, *, sort_keys: bool = False) -> str:
    """The text of ``json.dumps(obj, indent=1, sort_keys=sort_keys)``."""
    return _value_text(obj, "\n", sort_keys, set())


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key: Any) -> str:
    """A dict key as the string ``json.dumps`` writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _value_text(obj: Any, newline: str, sort_keys: bool, active: set[int]) -> str:
    """The text of ``obj`` whose first line sits at indent ``newline``.

    ``active`` holds the ids of the containers being written, so a cycle
    raises instead of recursing without end. Exact dicts and lists skip
    the scalar tests; members of exact scalar types are written inline,
    and everything else recurses into the tests the standard encoder
    makes, in its order.
    """
    kind = type(obj)
    if kind is dict or kind is list:
        pass
    elif isinstance(obj, str):
        return encode_basestring_ascii(obj)
    elif obj is None:
        return "null"
    elif obj is True:
        return "true"
    elif obj is False:
        return "false"
    elif isinstance(obj, int):
        return int.__repr__(obj)
    elif isinstance(obj, float):
        return _float_text(obj)
    elif not isinstance(obj, (list, tuple, dict)):
        raise TypeError(
            f"Object of type {obj.__class__.__name__} is not JSON serializable"
        )
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    marker = id(obj)
    if marker in active:
        raise ValueError("Circular reference detected")
    active.add(marker)
    inner = newline + " "
    pieces: list[str] = []
    append = pieces.append
    if isinstance(obj, dict):
        opener, closer = "{", "}"
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            if type(key) is not str:
                key = _key_text(key)
            kind = type(value)
            if kind is str:
                text = encode_basestring_ascii(value)
            elif kind is int:
                text = int.__repr__(value)
            elif value is None:
                text = "null"
            elif value is True:
                text = "true"
            elif value is False:
                text = "false"
            elif kind is float:
                text = _float_text(value)
            else:
                text = _value_text(value, inner, sort_keys, active)
            append(encode_basestring_ascii(key) + ": " + text)
    else:
        opener, closer = "[", "]"
        for value in obj:
            kind = type(value)
            if kind is str:
                append(encode_basestring_ascii(value))
            elif kind is int:
                append(int.__repr__(value))
            elif value is None:
                append("null")
            elif value is True:
                append("true")
            elif value is False:
                append("false")
            elif kind is float:
                append(_float_text(value))
            else:
                append(_value_text(value, inner, sort_keys, active))
    active.discard(marker)
    return opener + inner + ("," + inner).join(pieces) + newline + closer
