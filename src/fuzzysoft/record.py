"""Immutable value records built from one shared set of methods.

A frozen dataclass writes the source of six methods for each class and
compiles each with its own ``exec`` when the class is created, about 1 ms
per class on Python 3.11: for the package's few dozen value types, most
of the time it took to import ``fuzzysoft.cli``.  ``Record`` gives the
same value semantics through methods compiled once, here.  The one
generated dataclass left is ``tags.ParamTag``: its slots keep the memory
of a set's tags low once they are read, and its ordering is what
``FuzzySoftSet.approximation`` bisects the tags by.

A subclass declares its fields as its own annotations, in order; a class
attribute of the same name is that field's default.  ``_uncompared``
names the fields left out of ``==`` and ``hash``, and records of
different classes never compare equal.  Assignment and deletion raise
``dataclasses.FrozenInstanceError``; a ``__post_init__`` that normalises
a field sets it with ``object.__setattr__``.  ``vars()`` of a record
holds exactly its fields, in order, except as ``sets.FuzzySoftSet`` says.
"""

from dataclasses import FrozenInstanceError
from operator import attrgetter


class Record:
    """Base of the package's immutable value types."""

    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        compared = [name for name in fields if name not in cls._uncompared]
        if compared:
            cls._key = attrgetter(*compared)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict):
        """Field values, in order, of a call with keywords or defaults."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        if repeated := kwargs.keys() & fields[:len(args)]:
            raise TypeError(f"{name}() got multiple values for argument {min(repeated)!r}")
        if unexpected := kwargs.keys() - fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {min(unexpected)!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):
            missing = ", ".join(repr(field) for field in fields if field not in values)
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return map(values.__getitem__, fields)

    def __post_init__(self):
        """Check or normalise the fields; ``__init__`` calls it last."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._uncompared:
            key = self._key
            return key(self) == key(other)
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
