"""Immutable slotted records, the package's value types.

A subclass names its fields in `__slots__`, in constructor order, and its
`__init__` validates the arguments and sets each field once through
`object.__setattr__`. `Record` supplies what a frozen dataclass would:
field-wise equality within one class, a hash over the fields, the
`Name(f=v, ...)` repr, assignment and deletion that raise
`AttributeError`, and pickling that rebuilds through the constructor.

The package does not use `dataclasses`: importing it pulls in `inspect`,
`ast`, `dis` and `tokenize`, and each frozen dataclass `exec`s generated
code when its module loads, which every `python -m ceq` command would
pay before doing any work.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())
