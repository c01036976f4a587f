"""Exact ground rings: the integers, prime fields, and the rationals.

Scalars are plain Python objects (int for Z and F_p, Fraction for Q), so
all arithmetic is exact.  A GroundRing value bundles the normalization,
unit test and inversion logic that the linear algebra layer needs.  The
module also holds the base classes Record and Value and the two errors
that the command line sorts into exit codes, BudgetExceededError and
InvariantError, so that the CLI catches them without loading the engine.

One scalar policy holds everywhere: sums and products are plain int and
Fraction arithmetic (`out.get(k, 0) + c * x`), and a scalar is reduced
only where it is stored or tested for zero.  A vector {index: scalar} is
reduced once by `canonical`, which normalizes each entry and drops the
zeros; the constructors of base.HomogeneousMap, algebra.GradedAlgebra and
resolve.AModuleMap store their values through the same step; a loop that
tests each step's result for zero writes `normalize(a - f * c)` (the
rewriting system) or, over F_p, the same `(a - f * c) % p` inline
(linalg.Echelon); and the Smith form reduces its row operations by its
own `mod`.  Over Z and Q normalizing changes nothing
but the type; over F_p it takes the residue mod p.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


class BudgetExceededError(ValueError):
    """A budget, cap or window was exceeded before reaching a conclusion."""


class InvariantError(AssertionError):
    """An invariant the mathematics guarantees failed: a bug, not bad input."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Record:
    """A mutable record of the fields named in `_fields`, which `__init__` sets:
    equal to a record of its own class with an equal field tuple (another class
    gives NotImplemented), unhashable, and shown as `Class(field=value, ...)`."""

    _fields = ()

    def __init_subclass__(cls):
        if cls._fields:  # the field tuple, built in C by attrgetter
            get = attrgetter(*cls._fields)
            cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Value(Record):
    """A frozen Record, hashed as its field tuple; `__init__` sets the fields with `_init`."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete frozen field {name!r}")

    __delattr__ = __setattr__

    def _init(self, *values):  # setting through __dict__ would slow every later read
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


class GroundRing(Value):
    """One of Z, F_p (p prime) or Q."""

    _fields = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):  # kind is "Z", "Fp" or "Q"
        self._init(kind, p)
        if self.kind not in ("Z", "Fp", "Q"):
            raise ValueError(f"unknown ground ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"characteristic must be prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("characteristic only makes sense for Fp")

    # -- constructors ------------------------------------------------
    @staticmethod
    def integers() -> "GroundRing":
        return GroundRing("Z")

    @staticmethod
    def prime_field(p: int) -> "GroundRing":
        return GroundRing("Fp", p)

    @staticmethod
    def rationals() -> "GroundRing":
        return GroundRing("Q")

    # -- scalar arithmetic --------------------------------------------
    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def normalize(self, x):
        """Coerce an int/Fraction into canonical form for this ring."""
        if type(x) is int:  # the common case; skips the Fraction ABC check
            if self.kind == "Z":
                return x
            if self.kind == "Fp":
                return x % self.p
            return Fraction(x)
        if self.kind == "Q":
            # a Fraction is already canonical, so it is returned, not rebuilt
            return x if type(x) is Fraction else Fraction(x)
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                x = x.numerator
            return int(x)
        if isinstance(x, Fraction):
            return self.normalize(x.numerator) * self.inv(self.normalize(x.denominator)) % self.p
        return int(x) % self.p

    def canonical(self, vec: dict) -> dict:
        """vec {index: scalar} with every entry normalized and the zeros dropped."""
        norm = self.normalize
        return {k: y for k, x in vec.items() if (y := norm(x))}

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return self.normalize(a) != 0

    def inv(self, a):
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        if self.kind == "Fp":
            a = a % self.p
            if a == 0:
                raise ZeroDivisionError("division by zero in Fp")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(1) / a

    def __str__(self):
        if self.kind == "Fp":
            return f"F{self.p}"
        return self.kind


ZZ = GroundRing.integers()
QQ = GroundRing.rationals()
