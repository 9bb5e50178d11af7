"""The base of the package's immutable value types, and the one place that
sets their fields.

A value type names its fields in ``__slots__``, in order; ``_fields`` is
that list without ``__dict__``.  ``Value.__init__`` sets each field once,
from positional or keyword arguments, and a type that validates, derives
or defaults a field ends its own ``__init__`` in one ``Value.__init__``
call.  Later assignment or deletion raises ``AttributeError``.  A
writeable array is stored as a read-only view, so the caller's array
stays writeable.  Pickling and copying restore fields the same way,
without re-running ``__init__`` (a ``Pmf`` is not renormalised), so a
copy's arrays are read-only too.  Plain classes keep imports cheap:
generating each type's methods at import costs about 1 ms per class.
"""

import numpy as np

_set = object.__setattr__


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array, owned by no caller, read-only."""
    a.flags.writeable = False
    return a


def _set_fields(obj, names, values) -> None:
    """Set each field once, a writeable array as a read-only view of it."""
    for name, value in zip(names, values):
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value = _frozen(value.view())
        _set(obj, name, value)


class Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args = [*args, *(kwargs.pop(name) for name in fields[len(args):]
                             if name in kwargs)]
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields "
                            f"{fields}, got {len(args)} and unknown or repeated "
                            f"keywords {list(kwargs)}")
        _set_fields(self, fields, args)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # ``state`` is ``(__dict__ or None, slots)`` for slotted classes
        for fields in state:
            if fields:
                _set_fields(self, fields.keys(), fields.values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"
