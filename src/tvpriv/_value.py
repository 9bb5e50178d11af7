"""The base of the package's immutable value types.

A value type names its fields in ``__slots__``, in declaration order, and
its ``__init__`` sets each one once with ``object.__setattr__``; any later
assignment or deletion raises ``AttributeError``.  Pickling and copying
set the saved fields the same way, without re-running ``__init__``, so
no field is recomputed (a ``Pmf`` is not renormalised).  Plain classes
keep imports cheap: generating each value type's methods when its module
is imported costs about 1 ms per class.
"""


class Value:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # ``state`` is ``(__dict__ or None, slots)`` for slotted classes
        for fields in state:
            for name, value in (fields or {}).items():
                object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"
