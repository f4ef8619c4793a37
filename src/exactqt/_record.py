"""The frozen record base of exactqt's value classes.

A record's fields are the annotations of its class body, in declaration
order, after the fields it inherits.  A record is built positionally or by
keyword and then runs __post_init__; it equals only a record of its own
class with equal fields, hashes as the tuple of its fields (the hash a
frozen dataclass computes), prints as Name(field=value, ...), and refuses
assignment and deletion.  That is the part of frozen dataclasses exactqt
uses, without the import of dataclasses (and inspect) or the per-class
code generation that a one-shot CLI call would pay for.
"""

from __future__ import annotations


class _Record:
    _fields = ()  # set on each subclass

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """__init__'s slow path: keyword arguments, or a wrong count."""
        fields = cls._fields
        values = {**dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or len(values) < len(args) + len(kwargs) \
                or values.keys() != set(fields):
            raise TypeError(f"{cls.__qualname__}() takes each of {', '.join(fields)} once; "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        """Validation hook, run once the fields are set."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json(self) -> dict:
        """Field names, in declaration order, to values: tuples as lists,
        nested records as their to_json."""
        return {name: _plain(value) for name, value in zip(self._fields, self._values())}


def _plain(value):
    if isinstance(value, _Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value
