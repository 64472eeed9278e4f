"""Reduced rationals and p-adic valuations.

Values are plain `fractions.Fraction` instances: arbitrary precision,
always reduced, denominator positive, zero canonically 0/1.  The string
form is the canonical serialization ("num/den", or "num" for integers)
and `Fraction(text)` parses it back.  No floating point enters a value
or a valuation: zero has no valuation, and asking for one raises.
`Record` is the frozen value object the package's result types share.
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to Fraction.

    Floats are refused: 0.1 is the binary fraction nearest 1/10, and
    taking it exactly would put that rounding into a value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"not a rational: {value!r} is a float")
    try:
        return Fraction(value)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def int_valuation(m: int, p: int) -> int:
    """Exponent of p in the nonzero integer m; ValueError for m = 0.

    p is not checked: it must already be known to be prime, as the
    Bertrand and window primes of `primes` are.  The valuation of a
    rational is that of its numerator minus that of its denominator.
    """
    if m == 0:
        raise ValueError("0 has no p-adic valuation")
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


class Record:
    """A frozen value object over the fields named in `__match_args__`.

    ==, hash and repr read those fields as `@dataclass(frozen=True)`
    writes them, and assigning or deleting any attribute raises
    dataclasses.FrozenInstanceError.  A subclass's __init__ fills the
    instance __dict__ (no __slots__), so pickles written while the
    subclasses were dataclasses still load.  dataclasses, which imports
    inspect, is imported only to raise, which keeps it out of the
    package's import.
    """

    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values):
        vars(self).update(zip(self.__match_args__, values))

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
