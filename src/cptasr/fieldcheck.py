"""The one rule set for dataclass fields: :func:`check_field` reads them in, :func:`as_record` writes them out."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields, is_dataclass

_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
          "str": (str, "a string"), "dict": (dict, "an object")}


def check_field(name: str, value, kind: str):
    """``value`` if it is of ``kind``, else a TypeError (or ValueError) naming the field ``name``.

    ``kind`` is a field annotation as written, so a dataclass can pass each
    ``fields(self)`` type (a string, since the package's modules use
    ``from __future__ import annotations``). "int" is a non-bool
    ``numbers.Integral``, "float" a finite non-bool ``numbers.Real`` (JSON
    reads NaN and Infinity as floats), "str" and "dict" the types, and
    "tuple[int, int]" a list or tuple of two integers, returned as a tuple.
    "<kind> | None" also admits None. A field named ``seed`` must be >= 0.
    """
    optional = kind.endswith(" | None")
    kind = kind.removesuffix(" | None")
    if value is None and optional:
        return None
    if kind == "tuple[int, int]":
        if isinstance(value, (tuple, list)) and len(value) == 2:
            try:
                return tuple(check_field(name, v, "int") for v in value)
            except TypeError:
                pass
        raise TypeError(f"{name} must be a pair of integers, got {value!r}")
    cls, what = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, cls):
        raise TypeError(f"{name} must be {what}{' or None' if optional else ''}, got {value!r}")
    if kind == "float" and not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if name == "seed" and value < 0:
        raise ValueError(f"seed must be >= 0, got {value!r}")
    return value


def as_record(obj, with_timing: bool = True):
    """``obj`` as a dict of its dataclass fields in declaration order, recursing into dataclasses, lists and tuples.

    A field declared ``repr=False`` is skipped without being walked, and one
    whose metadata marks it ``"timing"`` (wall clock) is skipped unless
    ``with_timing``, so identical runs write identical records. Tuples become
    lists; other values are returned as they are.
    """
    if is_dataclass(obj):
        return {f.name: as_record(getattr(obj, f.name), with_timing) for f in fields(obj)
                if f.repr and (with_timing or not f.metadata.get("timing"))}
    if isinstance(obj, (list, tuple)):
        return [as_record(v, with_timing) for v in obj]
    return obj
