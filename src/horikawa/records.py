"""Records: immutable named tuples that test their fields against their annotations.

``checked`` is the one record mechanism.  It gives a record class's named
tuple a ``__new__`` generated on first use from the field annotations, as
source with one test per field, as ``namedtuple`` generates its methods:
construction, ``_make`` and ``_replace`` refuse a value off its annotation
with ValueError, a ``bool`` in an ``int`` field included.  The entries of a
tuple, a frozenset or a dict are tested by exact type.  It also makes the
class refuse every assignment and deletion with AttributeError.  The codec
reads the same ``hints``.
"""

from __future__ import annotations

import functools
import math
import types
import typing

hints = functools.cache(typing.get_type_hints)  # a record class's evaluated annotations
_UNIONS = (typing.Union, types.UnionType)


def _immutable(self, name: str, *_value) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


@classmethod
def _make(cls, values):
    return cls(*values)


def _refuse(name: str, value, text: str):
    raise ValueError(f"{name} must be {text}, got {value!r:.80}")


def _text(hint) -> str:
    """``hint`` as it is written, such as ``tuple[str, ...] | None``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        return " | ".join(map(_text, args))
    if hint is Ellipsis or hint is type(None):
        return "..." if hint is Ellipsis else "None"
    return f"{origin.__name__}[{', '.join(map(_text, args))}]" if args else hint.__name__


def _test(hint, v: str, scope: dict) -> str:
    """The source of a test that the value ``v`` matches ``hint``; ``scope`` gets its names."""
    origin, args, name = typing.get_origin(hint), typing.get_args(hint), f"c{len(scope)}"
    if origin in _UNIONS:
        return f"({' or '.join(_test(member, v, scope) for member in args)})"
    if hint is type(None) or hint in (int, bool, str):
        return f"{v} is None" if hint is type(None) else f"type({v}) is {hint.__name__}"
    if origin is None:  # a record class, or a base class of records
        scope[name] = hint
        return f"isinstance({v}, {name})"
    test = f"(type({v}) is {origin.__name__}"
    if origin is tuple and args[-1] is not Ellipsis:  # a tuple of fixed length
        return test + f" and len({v}) == {len(args)}" + "".join(
            f" and {_test(arg, f'{v}[{k}]', scope)}" for k, arg in enumerate(args)) + ")"
    for items, entry in zip((v, f"{v}.values()"), args[:1 + (origin is dict)]):
        # the entries, and a dict's values
        if entry is object:
            continue
        members = typing.get_args(entry) if typing.get_origin(entry) in _UNIONS else (entry,)
        name = f"c{len(scope)}"
        if all(type(member) is type for member in members):  # tested in one C call
            scope[name] = frozenset(members)
            test += f" and (not {items} or set(map(type, {items})) <= {name})"
        else:
            scope[name] = None  # an entry, in the comprehension's own scope
            test += f" and all([{_test(entry, name, scope)} for {name} in {items}])"
    return test + ")"


def checked(cls):
    """Make the record class ``cls`` immutable and give it the ``__new__`` that tests its
    fields, generated on first use.

    The fields are those of the named tuple in its bases: the class itself,
    ``class X(NamedTuple)``, or for a record with a constructor of its own,
    ``class X(NamedTuple("X", [...]))``, whose ``__new__`` checks values and
    derives state around ``cls._tested(cls, ...)``.  The test goes on that
    named tuple as ``__new__`` and as ``_tested``.  Derived state lives in the
    instance ``__dict__``, outside the tuple, so equality, hashing, ``repr`` and
    the codec see only the fields; it is written once with
    ``object.__setattr__``, and every other assignment is refused.
    """
    base = next(c for c in cls.__mro__ if "_fields" in vars(c))
    defaults, fields = base.__new__.__defaults__, base._fields

    def first_use(_cls, *args, **kwargs):
        scope = {"_new": tuple.__new__, "_refuse": _refuse}
        tests = "".join(f"\n    if not {_test(hints(cls)[name], name, scope)}: _refuse("
                        f"{name!r}, {name}, {_text(hints(cls)[name])!r})" for name in fields)
        values = "".join(f"{name}, " for name in fields)
        source = f"def new(_cls, {', '.join(fields)}):{tests}\n    return _new(_cls, ({values}))"
        exec(compile(source, f"<fields' test of {cls.__name__}>", "exec"), scope)
        scope["new"].__defaults__ = defaults
        base.__new__ = base._tested = staticmethod(scope["new"])
        return scope["new"](_cls, *args, **kwargs)

    base.__new__ = base._tested = staticmethod(first_use)
    base._make = _make
    cls.__setattr__ = cls.__delattr__ = _immutable
    return cls


class Affine:
    """The integers a + b*t for every integer t in [lo, hi], as one symbolic value.

    ``verify`` runs a check body once on such a value for a residue class of
    chi, or for an interval of epsilon, so it has only what those paths use:
    + and - with an int or an Affine on the same interval, int - Affine, *
    by an int, divmod, % and // by a positive int dividing b, and <, <=, >,
    >=, ==, != and a truth value that answer exactly when the answer is the
    same for every t.  Each comparison reads ``_bounds``: the least and the
    greatest value of the difference d = c0 + c1*t of its two sides, taken
    at the ends of the interval, and c0 mod c1.  == answers True where both
    bounds are 0, and False where they have one sign or c1 does not divide
    c0, as no integer t makes d 0.  Anything else raises TypeError: text,
    hashing, int(), and a branch the interval does not decide.

    Every value carries ``c``, the coefficient of a second parameter s, and
    ``cap``, the Affine that bounds s; an Affine has c = 0 and no cap.  A value
    with a cap is a ``Planar``, a subclass with only a constructor of its own, so
    ``int | Affine`` fields admit both and this arithmetic is the only one.
    """

    __slots__ = ("a", "b", "c", "lo", "hi", "cap")

    def __init__(self, a: int, b: int, lo: int, hi: int):
        self.a, self.b, self.c = a, b, 0
        self.lo, self.hi, self.cap = lo, hi, None

    def _of(self, other) -> tuple[int, int, int, Affine | None]:
        """The a, b and c of ``other``, a value on [lo, hi] (each caller has taken an int
        already), and the cap of a result: either's, equal where both have one."""
        if isinstance(other, Affine) and other.lo == self.lo and other.hi == self.hi:
            if other.cap is None:
                return other.a, other.b, 0, self.cap
            if self.cap is None or (other.cap.a, other.cap.b) == (self.cap.a, self.cap.b):
                return other.a, other.b, other.c, other.cap
        raise TypeError(f"{other!r:.80} is no int and no Affine on [{self.lo}, {self.hi}]")

    # Each result is made as DivisorClass._make makes a class, without __init__, its
    # slots stored three at a time, which builds no tuple.  +, - and * make an Affine
    # here and a Planar in _planar, so that CPython's attribute caches see one class each.

    def __add__(self, other):
        if type(other) is int:
            a, b, c = other, 0, 0
            cap = self.cap
        else:
            a, b, c, cap = self._of(other)
        if cap is not None:
            return _planar(self.a + a, self.b + b, self.c + c, cap)
        result = _new(Affine)
        result.a, result.b, result.c = self.a + a, self.b + b, 0
        result.lo, result.hi, result.cap = self.lo, self.hi, None
        return result

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            a, b, c = other, 0, 0
            cap = self.cap
        else:
            a, b, c, cap = self._of(other)
        if cap is not None:
            return _planar(self.a - a, self.b - b, self.c - c, cap)
        result = _new(Affine)
        result.a, result.b, result.c = self.a - a, self.b - b, 0
        result.lo, result.hi, result.cap = self.lo, self.hi, None
        return result

    def __rsub__(self, other=0):  # an Affine on the left has taken its own __sub__
        if type(other) is not int:
            return NotImplemented
        result = _new(type(self))
        result.a, result.b, result.c = other - self.a, -self.b, -self.c
        result.lo, result.hi, result.cap = self.lo, self.hi, self.cap
        return result

    __neg__ = __rsub__  # 0 - self

    def __mul__(self, other):
        if type(other) is not int:
            return NotImplemented
        if self.cap is not None:
            return _planar(self.a * other, self.b * other, self.c * other, self.cap)
        result = _new(Affine)
        result.a, result.b, result.c = self.a * other, self.b * other, 0
        result.lo, result.hi, result.cap = self.lo, self.hi, None
        return result

    __rmul__ = __mul__

    def __divmod__(self, other):
        # an Affine's c is 0, so ``and`` spares it two divisions
        if type(other) is not int or other < 1 or self.b % other or self.c and self.c % other:
            return NotImplemented
        quotient = _new(type(self))
        quotient.a, quotient.b, quotient.lo = self.a // other, self.b // other, self.lo
        quotient.c, quotient.hi, quotient.cap = self.c and self.c // other, self.hi, self.cap
        return quotient, self.a % other

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __bool__(self):
        return self != 0

    def __str__(self):
        raise TypeError("an Affine has no text")

    def _bounds(self, other) -> tuple[int, int, int]:
        """The least and the greatest value of d = self - other = c0 + c1*t + c2*s, and
        c0 mod gcd(c1, c2) (0 where both are 0): with no cap at the ends of the interval,
        else at the trapezoid's corners (lo, 1), (hi, 1), (lo, cap(lo)) and (hi, cap(hi)),
        as a linear form on it takes its extremes there (Schrijver 1986, section 8)."""
        if type(other) is int:
            cap = self.cap
            if cap is None:  # an Affine and an int, the most frequent case, read no c
                c0, c1 = self.a - other, self.b
                low, high = c0 + c1 * self.lo, c0 + c1 * self.hi
                return (high, low, c0 % c1) if c1 < 0 else (low, high, c0 % (c1 or 1))
            c0, c1, c2 = self.a - other, self.b, self.c
        else:
            a, b, c, cap = self._of(other)
            c0, c1, c2 = self.a - a, self.b - b, self.c - c
        low, high = c0 + c1 * self.lo, c0 + c1 * self.hi
        if cap is None:
            if c1 < 0:
                low, high = high, low
            return low, high, c0 % (c1 or 1)
        corners = (low + c2, high + c2, low + c2 * (cap.a + cap.b * self.lo),
                   high + c2 * (cap.a + cap.b * self.hi))
        return min(corners), max(corners), c0 % (math.gcd(c1, c2) or 1)

    # A sign that d has at both bounds it has at every point between them, and
    # a d that is 0 at both is 0 at every point; <= and >= are the negations of
    # > and <.

    def __lt__(self, other):
        low, high, _residue = self._bounds(other)
        if high < 0:
            return True
        if low >= 0:
            return False
        raise TypeError(_UNDECIDED)

    def __gt__(self, other):
        low, high, _residue = self._bounds(other)
        if low > 0:
            return True
        if high <= 0:
            return False
        raise TypeError(_UNDECIDED)

    def __le__(self, other):
        return not self > other

    def __ge__(self, other):
        return not self < other

    def __eq__(self, other):  # which makes __hash__ None; != is its negation
        # unequal also where d changes sign but a residue leaves no integer point at 0
        low, high, residue = self._bounds(other)
        if not (low or high):
            return True
        if low > 0 or high < 0 or residue:
            return False
        raise TypeError(_UNDECIDED)


class Planar(Affine):
    """The integers a + b*t + c*s at every integer point (t, s) of the trapezoid
    lo <= t <= hi, 1 <= s <= cap(t), as one symbolic value in two parameters.

    ``cap`` is an Affine on [lo, hi], at least 1 at both ends.  ``verify``
    runs the epsilon bound on it once per residue class of chi: chi = r +
    12t is an Affine, and epsilon = s runs below the top, cap = top - 1.
    An Affine on [lo, hi] mixes with it as the value with c = 0, and a
    result with it is a Planar; divmod needs m to divide b and c.  ==
    answers False also where gcd(c1, c2) does not divide c0, and raises
    wherever else the corners differ in sign, which is sound, as ``verify``
    then runs the class case by case.
    """

    __slots__ = ()

    def __init__(self, a: int, b: int, c: int, cap: Affine):
        if type(cap) is not Affine or min(cap.a + cap.b * cap.lo, cap.a + cap.b * cap.hi) < 1:
            raise ValueError("cap must be an Affine that is at least 1 at both ends")
        self.a, self.b, self.c = a, b, c
        self.lo, self.hi, self.cap = cap.lo, cap.hi, cap


def _planar(a: int, b: int, c: int, cap: Affine) -> Planar:
    result = _new(Planar)
    result.a, result.b, result.c = a, b, c
    result.lo, result.hi, result.cap = cap.lo, cap.hi, cap
    return result


_UNDECIDED = "the interval does not decide this comparison"
_new = object.__new__
