"""Places of Q and Q(t), and exact local logarithms.

A non-archimedean local value log|x|_v is kept exact: a rational multiple
of log p at a prime place, or a bare rational at a function-field place
(where |g|_v = e^(-ord)).  Archimedean values are floats carrying a
rigorous absolute error bound.  Mixed-base aggregation converts to float
explicitly and only at the end, which keeps place-by-place ledgers free of
cancellation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import PRIME_PROOF_BOUND, RatFunc, is_prime
from .errors import FFPlaceOnRationalBase

ARCH = "arch"
PRIME = "prime"
FF_POINT = "ffpoint"
FF_INF = "ffinf"


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_valuation(x: Fraction, p: int) -> int:
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


@dataclass(frozen=True)
class Place:
    kind: str
    p: Optional[int] = None
    a: Optional[Fraction] = None

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def arch() -> "Place":
        return Place(ARCH)

    @staticmethod
    def prime(p: int) -> "Place":
        if p >= PRIME_PROOF_BOUND:
            raise ValueError(f"primality of {p} cannot be proven (limit {PRIME_PROOF_BOUND})")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return Place(PRIME, p=p)

    @staticmethod
    def ff_point(a) -> "Place":
        return Place(FF_POINT, a=Fraction(a))

    @staticmethod
    def ff_infinity() -> "Place":
        return Place(FF_INF)

    # -- queries ----------------------------------------------------------------

    def is_archimedean(self) -> bool:
        return self.kind == ARCH

    def is_function_field(self) -> bool:
        return self.kind in (FF_POINT, FF_INF)

    def __str__(self):
        if self.kind == ARCH:
            return "arch"
        if self.kind == PRIME:
            return f"p:{self.p}"
        if self.kind == FF_POINT:
            return f"t={self.a}"
        return "t=inf"

    # -- local arithmetic ---------------------------------------------------------

    def valuation(self, x) -> Union[int, Fraction]:
        """Additive valuation of a nonzero field element at this place."""
        if isinstance(x, int):
            x = Fraction(x)
        if self.kind == PRIME:
            if isinstance(x, RatFunc):
                if not x.is_constant():
                    raise FFPlaceOnRationalBase(
                        "p-adic place applied to a non-constant function-field element"
                    )
                x = x.as_fraction()
            return frac_valuation(x, self.p)
        if self.kind == ARCH:
            raise ValueError("no additive valuation at the archimedean place")
        # function-field places: rationals embed as constants, ord = 0
        if isinstance(x, Fraction):
            if x == 0:
                raise ValueError("valuation of zero")
            return 0
        if self.kind == FF_POINT:
            return x.ord_at(self.a)
        return x.ord_at_infinity()

    def uniformizer_power(self, k: int, one):
        """uniformizer^k coerced into the field of ``one``."""
        if self.kind == PRIME:
            val = Fraction(self.p) ** k
            return one * val
        if self.kind == FF_POINT:
            t = RatFunc.t()
            return one * (t - self.a) ** k
        if self.kind == FF_INF:
            t = RatFunc.t()
            return one * t ** (-k)
        raise ValueError("no uniformizer at the archimedean place")


# ---------------------------------------------------------------------------
# exact / float local logarithm values
# ---------------------------------------------------------------------------

EXACT = "exact"
FLOAT = "float"
NEG_INF = "neginf"


@dataclass(frozen=True)
class LocalLogValue:
    kind: str
    q: Fraction = Fraction(0)       # exact: value is q*log(base) or plain q
    base: Optional[int] = None      # prime base, None = unit log (FF places)
    x: float = 0.0                  # float payload
    err: float = 0.0                # rigorous absolute error bound

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def exact(q, base: Optional[int] = None) -> "LocalLogValue":
        return LocalLogValue(EXACT, q=Fraction(q), base=base)

    @staticmethod
    def from_float(x: float, err: float) -> "LocalLogValue":
        return LocalLogValue(FLOAT, x=x, err=err)

    @staticmethod
    def neg_infinity() -> "LocalLogValue":
        return LocalLogValue(NEG_INF)

    # -- queries ----------------------------------------------------------------

    def is_exact(self) -> bool:
        return self.kind == EXACT

    def is_neg_infinity(self) -> bool:
        return self.kind == NEG_INF

    def is_zero(self) -> bool:
        return self.kind == EXACT and self.q == 0

    def to_float(self) -> tuple[float, float]:
        if self.kind == NEG_INF:
            return float("-inf"), 0.0
        if self.kind == EXACT:
            if self.base is None:
                return float(self.q), abs(float(self.q)) * 1e-15
            val = float(self.q) * math.log(self.base)
            return val, abs(val) * 4e-16 + 1e-300
        return self.x, self.err

    def __float__(self):
        return self.to_float()[0]

    def __repr__(self):
        if self.kind == NEG_INF:
            return "LocalLogValue(-inf)"
        if self.kind == EXACT:
            unit = f"log{self.base}" if self.base else "unit"
            return f"LocalLogValue({self.q}*{unit})"
        return f"LocalLogValue({self.x}+-{self.err})"

    # -- algebra ------------------------------------------------------------------

    def _base_compatible(self, other: "LocalLogValue"):
        if self.q == 0:
            return other.base
        if other.q == 0:
            return self.base
        if self.base != other.base:
            raise ValueError(f"mixed log bases {self.base} and {other.base}")
        return self.base

    def __add__(self, other: "LocalLogValue"):
        if not isinstance(other, LocalLogValue):
            return NotImplemented
        if NEG_INF in (self.kind, other.kind):
            return LocalLogValue.neg_infinity()
        if self.kind == EXACT and other.kind == EXACT:
            return LocalLogValue.exact(self.q + other.q, self._base_compatible(other))
        xa, ea = self.to_float()
        xb, eb = other.to_float()
        return LocalLogValue.from_float(xa + xb, ea + eb)

    def __neg__(self):
        if self.kind == NEG_INF:
            raise ValueError("cannot negate -infinity log value")
        if self.kind == EXACT:
            return LocalLogValue.exact(-self.q, self.base)
        return LocalLogValue.from_float(-self.x, self.err)

    def __sub__(self, other):
        if not isinstance(other, LocalLogValue):
            return NotImplemented
        return self + (-other)

    def scaled(self, s) -> "LocalLogValue":
        s = Fraction(s)
        if self.kind == NEG_INF:
            if s <= 0:
                raise ValueError("nonpositive scaling of -infinity")
            return self
        if self.kind == EXACT:
            return LocalLogValue.exact(self.q * s, self.base if self.q * s else None)
        return LocalLogValue.from_float(self.x * float(s), self.err * abs(float(s)))

    def abs_value(self) -> "LocalLogValue":
        if self.kind == EXACT:
            return LocalLogValue.exact(abs(self.q), self.base)
        if self.kind == FLOAT:
            return LocalLogValue.from_float(abs(self.x), self.err)
        raise ValueError("abs of -infinity log value")

    def leq(self, other: "LocalLogValue") -> bool:
        """Exact comparison when both sides are exact in one base."""
        if self.kind == NEG_INF:
            return True
        if other.kind == NEG_INF:
            return False
        if self.kind == EXACT and other.kind == EXACT:
            self._base_compatible(other)
            return self.q <= other.q
        return self.to_float()[0] <= other.to_float()[0]


def log_max(values) -> LocalLogValue:
    """Pointwise maximum of same-base local log values."""
    best = None
    for v in values:
        if best is None or best.leq(v):
            best = v
    if best is None:
        raise ValueError("max of empty sequence")
    return best


def gauss_log_norm(coeffs, v: Place, log_r: LocalLogValue) -> LocalLogValue:
    """log max_j |c_j|_v r^j over the nonzero coefficients c_j of T^j, at a
    non-archimedean place: max_j (j q_r - v(c_j)) from integer valuations,
    for log r = q_r in the place's unit (log p at a prime, the bare unit at
    a function-field place).  By Gauss's lemma it is additive over products
    of polynomials."""
    if v.kind == ARCH:
        raise ValueError("the Gauss norm is taken at non-archimedean places")
    if not log_r.is_exact():
        raise ValueError("the Gauss norm needs an exact radius")
    unit = v.p
    if log_r.q and log_r.base != unit:
        raise ValueError(f"mixed log bases {unit} and {log_r.base}")
    num, den = log_r.q.numerator, log_r.q.denominator
    best = max((j * num - den * v.valuation(c) for j, c in enumerate(coeffs) if c),
               default=None)
    if best is None:
        raise ValueError("Gauss norm of the zero polynomial")
    return LocalLogValue.exact(Fraction(best, den), unit if best else None)


def local_abs(x, v: Place) -> LocalLogValue:
    """log|x|_v; exact at non-archimedean places, float at arch."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, RatFunc) and x.is_zero():
        return LocalLogValue.neg_infinity()
    if isinstance(x, Fraction) and x == 0:
        return LocalLogValue.neg_infinity()
    if v.kind == ARCH:
        if isinstance(x, RatFunc):
            if not x.is_constant():
                raise FFPlaceOnRationalBase(
                    "archimedean absolute value of a non-constant element of Q(t)"
                )
            x = x.as_fraction()
        val = math.log(abs(x.numerator)) - math.log(x.denominator)
        return LocalLogValue.from_float(val, abs(val) * 4e-16 + 1e-300)
    if v.kind == PRIME:
        return LocalLogValue.exact(-v.valuation(x), v.p)
    return LocalLogValue.exact(-v.valuation(x), None)
