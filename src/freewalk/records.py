"""Record classes: what freewalk's records use of stdlib `dataclasses`, whose
import loads `inspect` and `ast` and which `exec`s each class's methods."""

_REQUIRED = object()  # the default of a field without one


class field:
    """A field's default or default factory, and whether repr and == read it."""

    def __init__(self, default=_REQUIRED, default_factory=None, repr=True, compare=True):
        self.default, self.factory, self.repr, self.compare = \
            default, default_factory, repr, compare


class Record:
    """Base of a record class: its annotated names are its fields, the value
    under each (or its `field`) that field's default; `frozen` and `order` are
    dataclass's flags.  A class built in a hot loop writes its own `__init__`."""

    def __init_subclass__(cls, frozen=False, order=False):
        cls._fields = {name: spec if isinstance(spec := cls.__dict__.get(name, _REQUIRED), field)
                       else field(spec) for name in cls.__annotations__}
        if frozen:  # every field is compared, and the instance dict holds them in order
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls._key = lambda self: tuple(self.__dict__.values())
            cls.__eq__ = lambda self, other: self.__dict__ == other.__dict__ \
                if other.__class__ is self.__class__ else NotImplemented
            cls.__hash__ = lambda self: hash(tuple(self.__dict__.values()))
        for name in ("__lt__", "__le__", "__gt__", "__ge__") if order else ():
            setattr(cls, name, lambda self, other, op=getattr(tuple, name): op(
                self._key(), other._key()) if other.__class__ is self.__class__ else NotImplemented)

    def __init__(self, *args, **kwargs):
        specs = self._fields
        if len(args) > len(specs) or not kwargs.keys() <= specs.keys() - list(specs)[:len(args)]:
            raise TypeError(f"{type(self).__name__}() takes the fields {list(specs)}")
        kwargs.update(zip(specs, args))
        for name, spec in specs.items():
            value = kwargs[name] if name in kwargs else spec.factory() if spec.factory \
                else spec.default
            if value is _REQUIRED:
                raise TypeError(f"{type(self).__name__}() misses the field {name!r}")
            self.__dict__[name] = value
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name, spec in self._fields.items()
            if spec.repr) + ")"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name, spec in self._fields.items() if spec.compare)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ \
            else NotImplemented


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def replace(record, **changes):
    """A copy of `record` with `changes`, made by its `__init__` (so its
    `__post_init__` runs again), as `dataclasses.replace`."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields},
                           **changes})
