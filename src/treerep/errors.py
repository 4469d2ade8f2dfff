"""Exception types, the frozen record decorator, and the shared violation
record."""

from __future__ import annotations


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


class factory:
    """A record field's default, made afresh by ``make()`` for each record."""

    def __init__(self, make):
        self.make = make


def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_fields__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_NO_DEFAULT = object()


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, after those of
    a record it extends.

    The class gets an ``__init__`` taking the fields positionally or by
    keyword, which calls ``__post_init__`` when the class has one; a field's
    class attribute is its default, and a :class:`factory` default is made
    afresh for each record.  Records are equal, and hash alike, when they
    are of the same class and their fields are equal; the repr reads
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``, but each record keeps a ``__dict__``, so a method
    may memoise into it.  The three field-wise methods are compiled once
    per class, so building a record costs no more than building the
    equivalent frozen dataclass.
    """
    names = list(getattr(cls, "__record_fields__", ()))
    names += [n for n in cls.__annotations__ if n not in names]
    env = {"_set": object.__setattr__}
    params, body = [], []
    for name in names:
        default = getattr(cls, name, _NO_DEFAULT)
        value = name
        if default is _NO_DEFAULT:
            params.append(name)
        else:
            env[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
            if isinstance(default, factory):
                value = f"_d_{name}.make() if {name} is _d_{name} else {name}"
        body.append(f"    _set(self, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    exec(
        "\n".join([
            f"def __init__(self, {', '.join(params)}):",
            *body,
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({mine}))",
        ]),
        env,
    )
    cls.__record_fields__ = tuple(names)
    for method in ("__init__", "__eq__", "__hash__"):
        env[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, env[method])
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
