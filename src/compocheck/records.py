"""Record classes: slotted classes whose ``__init__``, ``==`` and ``repr`` are
generated from their annotated fields.

:func:`record` reads a class body's annotated names as its fields, in order,
with their defaults, and returns a slotted class of the same name. As
:func:`collections.namedtuple` does, it writes the source of the constructor
alone and compiles it in one ``exec``; ``==``, ``repr`` and a frozen record's
``hash`` are closures over the compared fields. They behave as those of a
``dataclasses.dataclass(slots=True)`` with the same fields: positional or
keyword construction, ``==`` between instances of the same class over the
compared fields, ``repr`` as ``Name(field=value, ...)``, and ``__match_args__``.
Importing :mod:`dataclasses` alone costs a CLI call several milliseconds (it
imports :mod:`inspect`), and each dataclass about a millisecond more.

A default of ``[]`` gives every instance a fresh empty list. A default wrapped
in :class:`uncompared` leaves its field out of ``==`` and ``repr``.
"""

from __future__ import annotations

from operator import attrgetter

_REQUIRED = object()  # the default of a field that has none
_FRESH = object()  # stands for an omitted list argument in a generated __init__


class uncompared:
    """The default of a field that takes no part in ``==`` or ``repr``."""

    __slots__ = ("default",)

    def __init__(self, default):
        self.default = default


def record(cls=None, /, *, frozen: bool = False):
    """Make ``cls`` a record class. A ``frozen`` one refuses assignment and is
    hashable over its compared fields; any other is unhashable."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in names and key not in ("__dict__", "__weakref__")}
    glob = {"__name__": cls.__module__, "_FRESH": _FRESH, "_set": object.__setattr__}
    params, body, compared = [], [], []
    for name in names:
        default = cls.__dict__.get(name, _REQUIRED)
        if type(default) is uncompared:
            default = default.default
        else:
            compared.append(name)
        value = name
        if default is _REQUIRED:
            params.append(name)
        elif type(default) is list:
            assert not default, f"{cls.__name__}.{name}: a list default must be []"
            params.append(f"{name}=_FRESH")
            value = f"[] if {name} is _FRESH else {name}"
        else:
            glob[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"    _set(self, {name!r}, {value})" if frozen else f"    self.{name} = {value}")
    key = attrgetter(*compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in compared)
        return f"{type(self).__qualname__}({shown})"

    methods = {"__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        def __hash__(self):
            return hash(key(self))

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign {name!r} of a frozen record")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete {name!r} of a frozen record")

        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    source = "\n".join([f"def __init__(self, {', '.join(params)}):", *body])
    exec(compile(source, f"<record {cls.__name__}>", "exec"), glob, methods)
    for method in methods.values():
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    namespace.update(methods, __slots__=names, __match_args__=names)
    # A class that defines __eq__ and not __hash__ is unhashable.
    return type(cls)(cls.__name__, cls.__bases__, namespace)


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the fields named in ``changes``
    replaced; the other fields are shared with ``obj``."""
    return type(obj)(*[changes.pop(name) if name in changes else getattr(obj, name)
                       for name in obj.__match_args__], **changes)
