"""Dataclass <-> dict conversion with strict unknown-key rejection, and the
number checks that configs and file loaders share."""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing

from .errors import ConfigError


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool, such as JSON's ``true``, is not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def is_finite(value) -> bool:
    """Whether ``value`` is a real number, not a bool, NaN or infinite."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def require_integers(cfg, **least: int | None) -> None:
    """``ConfigError`` for the first named field of ``cfg`` that is not an
    integer at least its bound (None: any integer)."""
    for name, bound in least.items():
        value = getattr(cfg, name)
        if not is_integer(value) or (bound is not None and value < bound):
            at_least = "" if bound is None else f" >= {bound}"
            raise ConfigError(f"{name} must be an integer{at_least}, got {value!r}")


def require_finite(cfg, *names: str) -> None:
    """``ConfigError`` for the first named field of ``cfg`` that is not a
    finite number."""
    for name in names:
        value = getattr(cfg, name)
        if not is_finite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def dataclass_to_jsonable(obj):
    """Recursively convert dataclasses/tuples to JSON-friendly values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: dataclass_to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [dataclass_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: dataclass_to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "ndim", None) == 0:
        return obj.item()
    return obj


def dataclass_from_dict(cls, data, path: str = ""):
    """Build ``cls`` from a mapping, rejecting keys that are not fields.

    Nested dataclass fields recurse; tuple fields accept lists.
    """
    label = path or cls.__name__
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{label}: unknown config key(s) {unknown}")
    kwargs = {}
    for name in fields:
        if name not in data:
            continue
        hint = hints.get(name)
        value = data[name]
        sub_path = f"{label}.{name}"
        kwargs[name] = _convert(hint, value, sub_path)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _convert(hint, value, path: str):
    origin = typing.get_origin(hint)
    if origin is typing.Union or (origin is not None and str(origin) == "types.UnionType"):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        if len(args) == 1:
            return _convert(args[0], value, path)
        return value
    if dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        return dataclass_from_dict(hint, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        return tuple(value)
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value
