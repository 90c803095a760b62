"""Frozen value records, the part of dataclasses(frozen=True) the package uses.

record turns a class with annotated fields into an immutable value
type: a generated __init__ (keyword or positional, with defaults, then
the class's own __post_init__ when it has one), value equality and a
matching hash over the compared fields, a Type(field=value, ...) repr,
and attributes that cannot be assigned or deleted.  The fields are the
names in the class's own annotations, in order; a decorated class with
none is refused.  A field whose class-level value is field() has no
default and is left out of the repr, equality and hashing.  replace
copies a record with some fields changed, running __post_init__ again.

__init__ is compiled from source once per class, as dataclasses does,
so constructing a record costs one plain function call, and it stores
each field straight into the instance dict, past the frozen
__setattr__.  The other methods are closures over one attrgetter of
the shown fields, which spares a compile per class.  The module
imports only operator: dataclasses itself pulls in inspect, ast, dis
and tokenize, which made up about a fifth of the command line's
start-up.  Inheritance between records is not supported.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["field", "record", "replace"]

_MISSING = object()
_HIDDEN = object()


def field() -> object:
    """Marks a record field without a default that repr, equality and hashing skip."""
    return _HIDDEN


def record(cls: type) -> type:
    """Class decorator: makes cls a frozen value record of its annotated fields."""
    # cls.__annotations__ is the class's own on 3.10+, never a base's
    names = tuple(cls.__annotations__)
    if not names:
        raise TypeError(f"record {cls.__qualname__} has no annotated fields")
    defaults = {}
    shown = []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is _HIDDEN:
            delattr(cls, name)  # a field without a default leaves no class attribute
        else:
            shown.append(name)
            if default is not _MISSING:
                defaults[name] = default

    params = ", ".join(f"{name}=_dflt_{name}" if name in defaults else name for name in names)
    body = ["    _record_dict = self.__dict__"]
    body += [f"    _record_dict[{name!r}] = {name}" for name in names]
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")
    namespace = {f"_dflt_{name}": default for name, default in defaults.items()}
    source = "\n".join([f"def __init__(self, {params}):", *body])
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    methods = _value_methods(tuple(shown))
    methods["__init__"] = namespace["__init__"]
    for method, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__record_fields__ = names
    return cls


def _value_methods(shown: tuple[str, ...]) -> dict:
    """Equality, hash and repr over the shown fields, and the frozen guards."""
    if len(shown) > 1:
        values = attrgetter(*shown)
    else:  # attrgetter gives a bare value for one name and refuses none
        def values(obj):
            return tuple([getattr(obj, name) for name in shown])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(shown, values(self))])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    return {fn.__name__: fn for fn in (__eq__, __hash__, __repr__, __setattr__, __delattr__)}


def replace(obj: object, /, **changes: object) -> object:
    """A copy of record obj with the given fields changed."""
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
