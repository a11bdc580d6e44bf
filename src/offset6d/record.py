"""Frozen record classes without generated code.

``@record`` turns a class into an immutable value type, in the manner of
``@dataclass(frozen=True)``: the fields are the class's own annotated names,
in order, with their defaults, and the class gets ``__init__``,
``__repr__``, ``__eq__``, ``__hash__`` and a ``__setattr__``/``__delattr__``
that refuse every change.  The methods are shared closures over the field
names rather than source text compiled per class, so decorating a class
costs microseconds instead of six ``exec`` calls.

A record is a value: ``__eq__`` holds between two records of the same class
whose fields pair up under :func:`same_value`, so two arrays are equal when
they have the same dtype, shape and bits.  A record that holds an array,
itself or in a field's record, is unhashable: its ``__hash__`` raises
``TypeError`` naming the class.

A record holds each array it keeps through :func:`read_only`: a read-only
array that owns its memory is taken as it is, and anything else is copied
and frozen, so a caller's writable array is never frozen or aliased.
``SceneObservation``, ``RigidPose`` and ``ObjectModel`` do.  The channel
records ``GeoEncoding`` and ``GeoTargets`` keep their arrays as given: their
channels are views (the columns of a table read from a file, the rows
``np.nonzero`` selects from an observation), which the rule would copy, and
their memory per pixel is bounded.

``__init__`` binds positional and keyword arguments to the fields (a
missing, unknown or repeated argument raises ``TypeError``), stores them,
and then calls ``self.__post_init__()`` if the class has one.  The hook is
looked up at call time, so a later patch of the class's ``__post_init__``
takes effect.  ``__post_init__`` normalises or derives values with
``object.__setattr__``.

:func:`replace` rebuilds a record through ``__init__``, so validation runs
again; :func:`fields` and :func:`astuple` give the field names and values.
"""

import numpy as np


class FrozenInstanceError(AttributeError):
    """Raised on an attempt to assign or delete an attribute of a record."""


def same_value(a, b) -> bool:
    """Whether two field values are equal.  Two ndarrays are when they have
    the same dtype, shape and bits, compared without a copy as unsigned
    integers of the dtype's size: -0.0 is not 0.0 and a NaN equals itself.
    An ndarray equals nothing else; any other pair compares with ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and (a.dtype, a.shape) == (b.dtype, b.shape)
            and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
        )
    return bool(a == b)


def read_only(values, dtype=np.float64) -> np.ndarray:
    """``values`` itself when it is a read-only ``dtype`` array that owns its
    memory, which no one else can write to; a read-only copy of anything
    else, so a caller's writable array is never frozen or aliased."""
    if type(values) is np.ndarray and values.dtype == dtype and values.base is None and not values.flags.writeable:
        return values
    copy = np.array(values, dtype=dtype)
    copy.flags.writeable = False
    return copy


def record(cls):
    """Make ``cls`` a frozen record over its own annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(map(repr, missing))}")
        state = self.__dict__
        for name in names:
            state[name] = values[name] if name in values else defaults[name]
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(same_value(getattr(self, name), getattr(other, name)) for name in names)

    def __hash__(self):
        try:
            return hash(astuple(self))
        except TypeError as exc:  # a field holds an array, or a record that does
            raise TypeError(f"unhashable record {type(self).__name__!r}: {exc}") from None

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = names
    return cls


def fields(obj) -> tuple[str, ...]:
    """The field names of a record class or instance, in declaration order."""
    return obj.__record_fields__


def astuple(obj) -> tuple:
    """The field values of a record, in declaration order (not recursive)."""
    return tuple(getattr(obj, name) for name in obj.__record_fields__)


def replace(obj, **changes):
    """A new record like ``obj`` with ``changes`` applied, built (and so
    validated) by the class's ``__init__``."""
    values = {name: getattr(obj, name) for name in obj.__record_fields__}
    values.update(changes)
    return type(obj)(**values)
