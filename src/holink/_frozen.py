"""The base of holink's value types that validate their input: the curve
and map types, ``Divisor``, ``TauParameter`` and the Hodge types; the
records, which validate nothing, are namedtuples.  A plain class, so
importing holink loads no ``dataclasses`` (nor its ``inspect``, ``ast``,
``dis`` and ``tokenize``) and runs no ``exec``."""


class Frozen:
    """Immutable fields, equality and hash over ``_key()``, and the repr
    ``Name(field=value, ...)`` over ``_fields``.

    Each subclass lists ``_fields`` and writes its own ``__init__``, which
    stores them with ``object.__setattr__``.  ``_key()`` is the fields'
    values.  Instances keep a ``__dict__``: pickle and ``copy`` restore it
    without ``__setattr__``, and a ``functools.cached_property`` can store
    its value there.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
