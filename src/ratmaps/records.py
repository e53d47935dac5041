"""Value classes declared by their annotations, without ``dataclasses``.

A subclass lists its fields as class annotations, in order, base classes
first.  A class attribute of the same name is the field's default; a list
default is copied for each instance.  Importing ``dataclasses`` pulls in
``inspect`` (with ``ast``, ``dis`` and ``tokenize``) and compiles methods
for every class: about 0.6 MB of resident memory for one import of this
package, 2 MB for five (bench/run.py's set-up).

plain is the one rule by which a result becomes output, for to_dict and
the command line alike: a record that holds library values (a GNWitness,
a Mobius) gives their text, and a record inside it its dict.
"""

from __future__ import annotations


class Record:
    """Positional-or-keyword __init__ (then __post_init__, when defined),
    field-wise == and the dataclass repr; unhashable, as a mutable
    dataclass is.  to_dict maps each field to plain of its value."""

    _fields = ()
    _post_init = False
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = [n for k in reversed(cls.__mro__) for n in vars(k).get("__annotations__", {})]
        cls._fields = tuple(dict.fromkeys(names))
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        if self._post_init:
            self.__post_init__()

    def _complete(self, args, kwargs) -> list:
        """Every field's value, from arguments and defaults."""
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes at most {len(fields)} fields")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__}: missing field {name!r}")
                default = getattr(cls, name)
                values[name] = list(default) if isinstance(default, list) else default
        return [values[name] for name in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def to_dict(self) -> dict:
        return {n: plain(getattr(self, n)) for n in self._fields}

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"


class FrozenRecord(Record):
    """A Record that refuses assignment and hashes by its fields, as a
    frozen dataclass does."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


def plain(value):
    """value as JSON data: a Record as its to_dict, a list or tuple as a
    list and a dict by its keys, each entry plain; None, bools, numbers and
    strings unchanged, and anything else (Poly, RatFunc, Fraction, Fp) as
    its str."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return str(value)
