"""Frozen records from closures: ``record`` adds what ``dataclass(frozen=True)`` adds,
by its rules (fields in ``_uncompared`` stay out of eq and hash), without the
``exec`` of each method's source that cost a third of ``import stabkit``."""

import operator


def record(cls):
    absent, names = object(), tuple(cls.__dict__.get("__annotations__", {}))
    n, lo = len(names), sum(k not in cls.__dict__ for k in names)
    tail = tuple(cls.__dict__[k] for k in names[lo:])  # KeyError: a default before a non-default
    fill = (absent,) * lo + tail  # what each field holds when the call leaves it out
    compared = [k for k in names if k not in cls.__dict__.get("_uncompared", ())]
    get, post = operator.attrgetter(*compared), getattr(cls, "__post_init__", None)
    key = get if len(compared) > 1 else lambda self: (get(self),)
    own = {k for k in cls.__dict__ if k != "__hash__" or "__eq__" not in cls.__dict__ or cls.__hash__}
    where, setter = f"{cls.__qualname__}.__init__()", object.__setattr__

    def bind(args, kwargs):  # the values of any other call, or Python's own TypeError
        complete = all(map(kwargs.__contains__, names[len(args):lo]))
        values = args + tuple(map(kwargs.pop, names[len(args):], fill[len(args):]))
        for k in kwargs:  # left over: unknown, or a field given positionally too
            why = "multiple values for argument" if k in names else "an unexpected keyword argument"
            raise TypeError(f"{where} got {why} {k!r}")
        if len(args) > n:
            takes = f"from {lo + 1} to {n + 1}" if tail else n + 1
            raise TypeError(f"{where} takes {takes} positional arguments but {len(args) + 1} were given")
        if not complete:  # worded as Python words it: 'a', 'a' and 'b', or 'a', 'b', and 'c'
            *head, last = missing = [repr(k) for k, v in zip(names, values) if v is absent]
            listed = ", ".join(head) + "," * (len(head) > 1) + " and " * bool(head) + last
            raise TypeError(f"{where} missing {len(missing)} required positional argument"
                            f"{'s' * bool(head)}: {listed}")
        return values
    def __init__(self, *args, **kwargs):
        fast = not kwargs and lo <= len(args) <= n  # positional: no binding to do
        for k, v in zip(names, args + tail[len(args) - lo:] if fast else bind(args, kwargs)):
            setter(self, k, v)
        if post is not None:
            self.__post_init__()
    def refuse(self, name, *value):  # __setattr__ gets a value, __delattr__ none
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    for name, fn in (("__init__", __init__), ("__setattr__", refuse), ("__delattr__", refuse),
                     ("__repr__", lambda self: f"{self.__class__.__qualname__}("
                      + ", ".join(f"{k}={getattr(self, k)!r}" for k in names) + ")"),
                     ("__eq__", lambda self, other: key(self) == key(other)
                      if other.__class__ is self.__class__ else NotImplemented),
                     ("__hash__", lambda self: hash(key(self)))):
        if name not in own:
            setattr(cls, name, fn)
    return cls
