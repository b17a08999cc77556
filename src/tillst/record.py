"""Immutable records: the one class decorator behind every AST node,
proposition, runtime leaf and report.

``@record`` reads a class's fields from its annotations, after those of
any record base, and gives the class an ``__init__``, ``__eq__`` and
``__hash__``, unless the class defines its own.  Equality and hashing
compare the tuple of the fields that are not ``hidden``, and records of
different classes are never equal; ``repr`` shows the same fields, and a
default stays a class attribute.  Assigning or deleting an attribute
raises ``FrozenRecordError``.  ``__init__`` sets each field with
``object.__setattr__``, never writing the instance dict itself, and then
runs the class's ``__post_init__``, if it has one.  ``replace`` builds a
copy through ``__init__``.

The three methods are compiled once per field layout, not once per class.
A layout is what the methods' code depends on besides the field names:
whether each field has a default or a default factory, whether it is
hidden, and whether the class has ``__post_init__``.  Its source names
field ``i`` ``_record_i``, and each class gets functions over the
layout's code objects with those names renamed to its own, so its methods
are the code that source spelled with its field names would compile to.
"""

from types import CodeType, FunctionType

_MISSING = object()
_LAYOUTS = {}  # layout -> the code objects of its three methods


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


class field:
    """A field's options, as the class attribute its annotation names: a
    ``default`` or a ``default_factory``, and ``hidden`` to leave the field
    out of ``==``, ``hash`` and ``repr``."""

    __slots__ = ("name", "default", "default_factory", "hidden")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, hidden=False):
        self.name, self.default, self.default_factory = None, default, default_factory
        self.hidden = hidden


def _frozen(self, name, value=None):  # both __setattr__ and __delattr__
    raise FrozenRecordError(f"cannot assign to or delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in self.__record_fields__ if not f.hidden)
    return f"{self.__class__.__qualname__}({shown})"


def _slot(i: int) -> str:
    return f"_record_{i}"


def _source(layout: tuple) -> str:
    """The three methods' source for ``layout``: one ``(kind, hidden)``
    pair per field, kind being ``factory``, ``default`` or ``""``, then
    whether ``__post_init__`` runs."""
    kinds, post_init = layout
    names = [_slot(i) for i in range(len(kinds))]
    params, body = ["self"], []
    for name, (kind, _) in zip(names, kinds):
        value = name
        if kind == "factory":
            params.append(f"{name}=_record_missing")
            value = f"_record_factory_{name}() if {name} is _record_missing else {name}"
        elif kind == "default":
            params.append(f"{name}=_record_default_{name}")
        else:
            params.append(name)
        body.append(f"  _record_set(self, {name!r}, {value})\n")
    if post_init:
        body.append("  self.__post_init__()\n")
    key = [name for name, (_, hidden) in zip(names, kinds) if not hidden]
    mine, theirs = ("".join(f"{who}.{name}, " for name in key) for who in ("self", "other"))
    return (f"def __init__({', '.join(params)}):\n{''.join(body) or '  pass'}\n"
            f"def __eq__(self, other):\n"
            f"  if other.__class__ is self.__class__:\n"
            f"    return ({mine}) == ({theirs})\n"
            f"  return NotImplemented\n"
            f"def __hash__(self):\n  return hash(({mine}))\n")


def _layout_code(layout: tuple) -> tuple:
    code = _LAYOUTS.get(layout)
    if code is None:
        module = compile(_source(layout), "<string>", "exec")
        code = _LAYOUTS[layout] = tuple(c for c in module.co_consts if isinstance(c, CodeType))
    return code


def _renamed(items: tuple, rename: dict) -> tuple:
    return tuple(map(rename.get, items, items))


def record(cls):
    fields = {f.name: f for base in reversed(cls.__mro__[1:])
              for f in base.__dict__.get("__record_fields__", ())}
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, _MISSING)
        if not isinstance(f, field):
            f = field(default=f)
        elif f.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, f.default)  # the default stays a class attribute
        f.name = name
        fields[name] = f
    cls.__record_fields__ = tuple(fields.values())
    ns = {"__builtins__": __builtins__, "_record_set": object.__setattr__,
          "_record_missing": _MISSING}
    kinds, defaults, rename = [], [], {}
    for i, f in enumerate(cls.__record_fields__):
        rename[_slot(i)] = f.name
        if f.default_factory is not _MISSING:
            ns[f"_record_factory_{f.name}"] = f.default_factory
            rename[f"_record_factory_{_slot(i)}"] = f"_record_factory_{f.name}"
            kinds.append(("factory", f.hidden))
            defaults.append(_MISSING)
        elif f.default is not _MISSING:
            kinds.append(("default", f.hidden))
            defaults.append(f.default)
        else:
            kinds.append(("", f.hidden))
    code = _layout_code((tuple(kinds), hasattr(cls, "__post_init__")))
    defaults = tuple(defaults) or None
    for name, c in zip(("__init__", "__eq__", "__hash__"), code):
        if cls.__dict__.get(name) is None:
            c = c.replace(co_varnames=_renamed(c.co_varnames, rename),
                          co_names=_renamed(c.co_names, rename),
                          co_consts=_renamed(c.co_consts, rename))
            method = FunctionType(c, ns, name, defaults if name == "__init__" else None)
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    """A copy of record ``obj`` with the named fields changed, built by its
    ``__init__`` (so its ``__post_init__`` runs again)."""
    for f in obj.__record_fields__:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)
