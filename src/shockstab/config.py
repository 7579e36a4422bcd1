"""Declared config fields: each config object states each field once.

A config dataclass derives from `Config` and declares every field with
`setting`: its default, its JSON key, its kind and its bound. `Config`
checks every field when an object is built, whether by keywords or through
`from_dict`, so a bad value stops a run before any data is read; and it
derives `from_dict` and `to_dict` from the same declarations. `check` is
that one check, and the library's numeric arguments and file records go
through it too. A check never converts a value, except that a numpy scalar
is taken as its Python equal, so `to_dict` writes plain JSON, and a list of
strings is stored as a tuple.
"""

from __future__ import annotations

import dataclasses
import sys
from datetime import datetime

import numpy as np

from .errors import ConfigError

# What each kind of value accepts, keyed by the phrase messages use for it.
# A bool or text is never a number, though float() reads True and "0.3"; a
# numpy scalar is checked as its Python equal. A number must be a finite
# float or an int within float range, and an integer is such an int:
# reports hold no infinity or NaN (they are written with allow_nan=False),
# and the metrics compute in floats. A string is not a list of levels: "10"
# would read as the levels "1" and "0".
_KINDS = {
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and abs(v) <= sys.float_info.max,
    "an integer": lambda v: isinstance(v, int) and _KINDS["a number"](v),
    "a string": lambda v: isinstance(v, str),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "a list of strings": lambda v: isinstance(v, (list, tuple))
    and all(isinstance(s, str) for s in v),
    "a date": lambda v: isinstance(v, (str, datetime)),
    "a list of outlier levels": lambda v: isinstance(v, (list, tuple)),
}


def setting(default=dataclasses.MISSING, kind=None, bound=None, *,
            key=None, null=False, kw_only=False):
    """A config field.

    `kind` is a key of _KINDS or a nested Config class; `bound` is written
    "> 0", ">= 1" or as an interval "in (0, 1]", or is a tuple of the values
    allowed; `key` is the JSON key when it differs from the attribute name;
    `null` lets the value be None.
    """
    metadata = {"kind": kind, "bound": bound, "key": key, "null": null}
    return dataclasses.field(default=default, kw_only=kw_only, metadata=metadata)


def _key(f: dataclasses.Field) -> str:
    return f.metadata["key"] or f.name


def _within(value, bound) -> bool:
    if isinstance(bound, tuple):
        return value in bound
    if bound.startswith("in "):
        low, high = (float(x) for x in bound[4:-1].split(","))
        return (low < value if bound[3] == "(" else low <= value) and (
            value < high if bound[-1] == ")" else value <= high
        )
    op, limit = bound.split()
    return value > float(limit) if op == ">" else value >= float(limit)


def _phrase(bound) -> str:
    """`bound` as messages write it."""
    if isinstance(bound, tuple):
        return "in {" + ", ".join(map(repr, bound)) + "}"
    return bound


def _plain(value):
    """`value` as to_dict writes it."""
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, datetime):
        return value.isoformat()
    return value


def check(value, kind, bound=None, *, what, null=False, error=ConfigError):
    """`value`, if it is `kind` within `bound`; else `error`, naming it `what`.

    `kind`, `bound` and `null` are written as for `setting`. A numpy scalar
    is returned as its Python equal, and a list of strings as a tuple.
    """
    if value is None and null:
        return None
    plain = value.item() if isinstance(value, np.generic) else value
    nested = isinstance(kind, type)
    ok = isinstance(plain, kind) if nested else _KINDS[kind](plain)
    if not ok or (bound and not _within(plain, bound)):
        noun = f"a {kind.__name__}" if nested else kind
        raise error(
            f"{what} must be {noun}{' ' + _phrase(bound) if bound else ''}"
            f"{' or null' if null else ''}, got {value!r}"
        )
    return tuple(plain) if kind == "a list of strings" else plain


class Config:
    """Base of the config dataclasses whose fields are declared by `setting`."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            kind, bound, null = f.metadata["kind"], f.metadata["bound"], f.metadata["null"]
            value = check(getattr(self, f.name), kind, bound, what=_key(f), null=null)
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_dict(cls, payload):
        """Build from a JSON object keyed as `to_dict` writes it.

        A field's attribute name is accepted in place of its JSON key, but
        a field given under both raises ConfigError. A nested object is
        built by its own class, and its errors are prefixed with
        "bad <key> config".
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"a config must be an object, got {payload!r}")
        fields = dataclasses.fields(cls)
        by_key = {f.name: f for f in fields} | {_key(f): f for f in fields}
        kwargs = {}
        for key, value in payload.items():
            if key not in by_key:
                raise ConfigError(f"unknown config field {key!r}")
            f = by_key[key]
            if f.name in kwargs:
                raise ConfigError(
                    f"config field {_key(f)!r} given twice, as {f.name!r} and {_key(f)!r}"
                )
            if isinstance(f.metadata["kind"], type):
                try:
                    value = f.metadata["kind"].from_dict(value)
                except ConfigError as exc:
                    raise ConfigError(f"bad {key} config: {exc}") from None
            kwargs[f.name] = value
        for f in fields:
            if f.name not in kwargs and f.default is dataclasses.MISSING:
                raise ConfigError(f"missing config field {_key(f)!r}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {_key(f): _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}
