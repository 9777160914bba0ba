"""Declaration of the algorithm settings, and what is derived from it.

Every tuning setting is one field of the options tree ``MultipathOptions ->
PathfinderOptions -> LbfgsOptions``, declared by ``setting`` with its
default, kind and help text.  The constructor checks, the command-line
flags, the config-file keys and the echoed config all walk those fields.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, NamedTuple

POSITIVE_INT = "positive integer"
POSITIVE = "positive finite number"
UNIT = "number in (0, 1)"


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


_KIND_OK = {
    POSITIVE_INT: lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
    POSITIVE: lambda v: _number(v) and v > 0,
    UNIT: lambda v: _number(v) and 0 < v < 1,
}


class Setting(NamedTuple):
    key: str       # name in config files and the echoed config
    flag: str      # command-line spelling
    kind: str
    default: object
    help: str
    owner: type    # the options class that declares it, as field ``field``
    field: str


def setting(default, kind: str, help: str, *, key: str | None = None, flag: str | None = None):
    """A dataclass field declaring one setting.

    ``key`` defaults to the field name, ``flag`` to ``--`` and the key with
    dashes for underscores.
    """
    return dataclasses.field(
        default=default, metadata={"kind": kind, "help": help, "key": key, "flag": flag})


def kind_problem(name: str, kind: str, value) -> str | None:
    """A message naming ``name`` when ``value`` is not of ``kind``, else None."""
    return None if _KIND_OK[kind](value) else f"{name}: must be a {kind}, got {value!r}"


def check_settings(options) -> None:
    """Raise ValueError naming the first setting of ``options`` not of its kind."""
    for f in dataclasses.fields(options):
        problem = "kind" in f.metadata and kind_problem(
            f.name, f.metadata["kind"], getattr(options, f.name))
        if problem:
            raise ValueError(problem)


def _key(f) -> str:
    return f.metadata["key"] or f.name


def _subtree(f) -> bool:
    return dataclasses.is_dataclass(f.default_factory)


def settings(cls) -> Iterator[Setting]:
    """Every setting declared in the options tree rooted at ``cls``, depth first."""
    for f in dataclasses.fields(cls):
        if "kind" in f.metadata:
            flag = f.metadata["flag"] or "--" + _key(f).replace("_", "-")
            yield Setting(_key(f), flag, f.metadata["kind"], f.default, f.metadata["help"],
                          cls, f.name)
        elif _subtree(f):
            yield from settings(f.default_factory)


def from_flat(cls, values: dict):
    """Build the tree rooted at ``cls`` from {key: value}; absent keys take defaults."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if "kind" in f.metadata and _key(f) in values:
            kwargs[f.name] = values[_key(f)]
        elif _subtree(f):
            kwargs[f.name] = from_flat(f.default_factory, values)
    return cls(**kwargs)


def to_flat(options) -> dict:
    """{key: value} of every setting in the tree ``options``."""
    flat = {}
    for f in dataclasses.fields(options):
        if "kind" in f.metadata:
            flat[_key(f)] = getattr(options, f.name)
        elif _subtree(f):
            flat.update(to_flat(getattr(options, f.name)))
    return flat
