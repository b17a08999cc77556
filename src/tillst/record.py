"""Immutable records: the one class decorator behind every AST node,
proposition, runtime leaf and report.

``@record`` reads a class's fields from its annotations, after those of
any record base, and gives the class an ``__init__``, ``__eq__`` and
``__hash__`` compiled from one source string per class, unless the class
defines its own.  Equality and hashing compare the tuple of the fields
that are not ``hidden``, and records of different classes are never
equal; ``repr`` shows the same fields, and a default stays a class
attribute.  Assigning or deleting an attribute raises
``FrozenRecordError``.  ``__init__`` sets each field with
``object.__setattr__``, never writing the instance dict itself, and then
runs the class's ``__post_init__``, if it has one.  ``replace`` builds a
copy through ``__init__``.
"""

_MISSING = object()


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
    ns = {"_record_set": object.__setattr__, "_record_missing": _MISSING}
    params, body = ["self"], []
    for f in cls.__record_fields__:
        value = f.name
        if f.default_factory is not _MISSING:
            ns[f"_record_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_record_missing")
            value = f"_record_factory_{f.name}() if {f.name} is _record_missing else {f.name}"
        elif f.default is not _MISSING:
            ns[f"_record_default_{f.name}"] = f.default
            params.append(f"{f.name}=_record_default_{f.name}")
        else:
            params.append(f.name)
        body.append(f"  _record_set(self, {f.name!r}, {value})\n")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()\n")
    key = [f.name for f in cls.__record_fields__ if not f.hidden]
    mine, theirs = ("".join(f"{who}.{name}, " for name in key) for who in ("self", "other"))
    exec(f"def __init__({', '.join(params)}):\n{''.join(body) or '  pass'}\n"
         f"def __eq__(self, other):\n"
         f"  if other.__class__ is self.__class__:\n"
         f"    return ({mine}) == ({theirs})\n"
         f"  return NotImplemented\n"
         f"def __hash__(self):\n  return hash(({mine}))\n", ns)
    for name in ("__init__", "__eq__", "__hash__"):
        if cls.__dict__.get(name) is None:
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])
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
