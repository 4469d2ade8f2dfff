"""Exception types, the frozen record decorator, and the shared violation
record."""

from __future__ import annotations

from operator import attrgetter


class TreeRepError(Exception):
    """Base class for all library errors."""


class InputError(TreeRepError):
    """Invalid argument or violated precondition (CLI exit code 2)."""


class SchemaError(InputError):
    """Malformed interchange JSON, with a path to the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DeskScaleError(InputError):
    """Out of desk-scale range for an exhaustive or factorial procedure."""


def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_fields__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    cls = self.__class__
    if other.__class__ is cls:
        return cls.__record_values__(self) == cls.__record_values__(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__.__record_values__(self))


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, after those of
    a record it extends.

    The class gets an ``__init__`` taking the fields positionally or by
    keyword, which calls ``__post_init__`` when the class has one; a field's
    class attribute is its default, one object shared by every record.
    Records are equal when they are of the same class and their fields are
    equal, and hash as the tuple of their fields; the repr reads
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``, but each record keeps a ``__dict__``, so a method
    may memoise into it.  Only ``__init__`` is compiled, once per class;
    equality and hashing read the fields with one ``operator.attrgetter``.
    """
    names = list(getattr(cls, "__record_fields__", ()))
    names += [n for n in cls.__annotations__ if n not in names]
    env = {"_set": object.__setattr__}
    env.update((f"_d_{n}", getattr(cls, n)) for n in names if hasattr(cls, n))
    params = [f"{n}=_d_{n}" if f"_d_{n}" in env else n for n in names]
    body = [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec("\n".join([f"def __init__(self, {', '.join(params)}):", *body]), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    cls.__record_fields__ = tuple(names)
    # attrgetter gives a tuple for two or more names only
    cls.__record_values__ = (
        attrgetter(*names) if len(names) > 1
        else lambda r: tuple(getattr(r, n) for n in names)
    )
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


@record
class Violation:
    """One failed check: a stable code plus a human-readable detail."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"
