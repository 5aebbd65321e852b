"""Exact arbitrary-precision rational and polynomial arithmetic.

Base fields are Q (``fractions.Fraction``, re-exported as ``BigRational``)
and Q(t) (:class:`RatFunc`).  Polynomials over either field are held by the
generic :class:`Poly`; coefficients only need field arithmetic, so the same
class serves Q[z], Q(t)[z] and Q[t].

Conventions:
  * coefficients are stored lowest degree first, no trailing zeros;
  * the zero polynomial is the empty coefficient tuple, degree -inf;
  * ``poly_resultant`` uses the Sylvester-determinant sign convention with
    ascending coefficient rows, i.e. Res(P,Q) = (-1)^(deg P * deg Q) times
    the classical resultant lc(P)^deg Q * prod Q(alpha_i).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, inf
from operator import add
from typing import Iterable, Union

from .errors import NonExactDivision, NotAPerfectPower

BigRational = Fraction

_KRONECKER_CUTOFF = 24  # schoolbook below this many terms


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (Sorenson and Webster, 2015)
PRIME_PROOF_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41.  A proof of primality for
    n < PRIME_PROOF_BOUND (about 3.3e24); above it a strong probable-prime
    test only."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(n: int, bound: int = 10**8) -> dict[int, int]:
    """Prime factorization by trial division; ResourceLimit past the bound."""
    from .errors import ResourceLimit

    if n == 0:
        raise ValueError("factor of zero")
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p > bound:
            raise ResourceLimit(f"factorization beyond trial-division bound {bound}")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    """Moebius function mu(n) for n >= 1."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def sigma2(n: int) -> int:
    """Sum of m^2 over the divisors m of n."""
    if n < 1:
        raise ValueError("sigma2 requires n >= 1")
    return sum(m * m for m in divisors(n))


def period_count(d: int, n: int) -> int:
    """d_n = sum_{m|n} mu(n/m) (d^m + 1), the mass of the formal n-periodic divisor."""
    if d < 2 or n < 1:
        raise ValueError("period_count requires d >= 2, n >= 1")
    return sum(mobius(n // m) * (d**m + 1) for m in divisors(n))


# ---------------------------------------------------------------------------
# fast integer-coefficient polynomial kernel (Kronecker substitution)
# ---------------------------------------------------------------------------

def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists (ascending order)."""
    if not a or not b:
        return []
    na, nb = len(a), len(b)
    if min(na, nb) < _KRONECKER_CUTOFF:
        out = [0] * (na + nb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return out
    bits_a = max(abs(c).bit_length() for c in a)
    bits_b = max(abs(c).bit_length() for c in b)
    width = (bits_a + bits_b + min(na, nb).bit_length() + 9) // 8
    return _unpack_signed(_pack(a, width) * _pack(b, width), na + nb - 1, width)


# Kronecker slots are whole bytes, so packing and unpacking go through
# int.to_bytes / int.from_bytes in linear time instead of one big shift per
# coefficient.

def _pack(coeffs: list[int], width: int) -> int:
    """sum c_i 2^(8 width i) for integers |c_i| < 2^(8 width - 1)."""
    try:
        return int.from_bytes(
            b"".join(map(int.to_bytes, coeffs, repeat(width), repeat("little"))), "little")
    except OverflowError:  # a negative coefficient: shift every digit by 2^(8 width - 1)
        half = repeat(1 << (8 * width - 1))
        shifted = b"".join(map(int.to_bytes, map(add, coeffs, half), repeat(width),
                               repeat("little")))
        return int.from_bytes(shifted, "little") - _half_offset(len(coeffs), width)


def _half_offset(n: int, width: int) -> int:
    """sum over i < n of 2^(8 width - 1) 2^(8 width i)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _unpack(packed: int, n: int, width: int) -> list[int]:
    """The n non-negative width-byte digits of packed."""
    try:
        buf = packed.to_bytes(n * width, "little")
    except OverflowError:
        raise AssertionError("Kronecker unpack overflow") from None
    return [int.from_bytes(buf[i : i + width], "little") for i in range(0, n * width, width)]


def _unpack_signed(packed: int, n: int, width: int) -> list[int]:
    """Inverse of _pack: adding 2^(8 width - 1) to every slot makes all
    digits non-negative without carries."""
    half = 1 << (8 * width - 1)
    return [c - half for c in _unpack(packed + _half_offset(n, width), n, width)]


def _int_content(coeffs: Iterable[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# generic dense polynomial
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Q or Q(t), immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def x(field_one=Fraction(1)) -> "Poly":
        return Poly((field_one * 0, field_one))

    @staticmethod
    def from_ints(coeffs: Iterable[int]) -> "Poly":
        return Poly([Fraction(c) for c in coeffs])

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else -inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0) if not self.coeffs else self.coeffs[0] * 0

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if _all_fractions(a) and _all_fractions(b):
            ia, da = _clear_fractions(a)
            ib, db = _clear_fractions(b)
            prod = _int_mul(ia, ib)
            den = da * db
            return Poly([Fraction(c, den) for c in prod])
        out = [a[0] * 0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, s):
        return Poly([c * s for c in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.coeffs[0] * 0 + 1) if self.coeffs else Poly((Fraction(1),))
        if n == 0:
            return result
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k."""
        if not self.coeffs:
            return self
        zero = self.coeffs[0] * 0
        return Poly([zero] * k + list(self.coeffs))

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ValueError("zero polynomial cannot be made monic")
        top = self.lc()
        return Poly([c / top for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def reversed_coeffs(self, degree: int) -> "Poly":
        """z^degree * P(1/z); degree must be >= deg P."""
        if degree < len(self.coeffs) - 1:
            raise ValueError("reversal degree too small")
        zero = self.coeffs[0] * 0 if self.coeffs else Fraction(0)
        padded = list(self.coeffs) + [zero] * (degree + 1 - len(self.coeffs))
        return Poly(padded[::-1])

    # -- euclidean structure ----------------------------------------------------

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero() or len(self.coeffs) < len(other.coeffs):
            return Poly(), self
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        inv_lc = 1 / other.lc()
        quot = [self.coeffs[0] * 0] * (dq + 1)
        ob = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + len(ob) - 1] * inv_lc
            quot[k] = c
            if c:
                for j, oc in enumerate(ob):
                    rem[k + j] = rem[k + j] - c * oc
        return Poly(quot), Poly(rem[: len(ob) - 1])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]


def _all_fractions(coeffs) -> bool:
    return all(type(c) is Fraction for c in coeffs)


def _clear_fractions(coeffs) -> tuple[list[int], int]:
    """Common-denominator form of a Fraction sequence: (integers, denominator)."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _trailing_zeros(p: Poly) -> int:
    k = 0
    for c in p.coeffs:
        if c:
            break
        k += 1
    return k


def _is_monomial(p: Poly) -> bool:
    return bool(p.coeffs) and not any(p.coeffs[:-1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the coefficient field (monic zero convention: gcd(0,0)=0)."""
    if a.is_zero():
        return b.monic() if not b.is_zero() else b
    if b.is_zero():
        return a.monic()
    # monomial fast path: common gcd is a power of the variable
    if _is_monomial(a) or _is_monomial(b):
        k = min(_trailing_zeros(a), _trailing_zeros(b))
        one = field_one(a.lc())
        return Poly([one * 0] * k + [one])
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()  # keeps coefficient growth in check
    return a.monic() if not a.is_zero() else a


def poly_exact_div(p: Poly, q: Poly) -> Poly:
    """p / q when the division is exact; NonExactDivision otherwise."""
    if q.is_zero():
        raise ZeroDivisionError("exact division by zero polynomial")
    quot, rem = p.divmod(q)
    if not rem.is_zero():
        raise NonExactDivision(
            f"remainder of degree {rem.degree} in supposedly exact division"
        )
    return quot


_SQUAREFREE_PRIME = (1 << 61) - 1


def squarefree_parts(p: Poly) -> list:
    """[(a_1, 1), (a_2, 2), ...] with p = lc(p) prod a_i^i, the a_i squarefree
    and pairwise coprime (Yun's algorithm, characteristic 0); factors equal
    to 1 are left out.  A squarefree p comes back as [(p, 1)] itself.

    Over Q, p is squarefree when p and p' are coprime modulo a prime that
    keeps deg p: a repeated factor would survive the reduction.  That test
    spares the rational Euclid in the common case.
    """
    dp = p.derivative()
    if p.degree > 0 and _all_fractions(p.coeffs):
        from . import fp  # fp imports this module

        ints, _ = _clear_fractions(p.coeffs)
        q = _SQUAREFREE_PRIME
        dints = [i * c % q for i, c in enumerate(ints)][1:]
        if ints[-1] % q and fp.inverse(dints, [c % q for c in ints], q) is not None:
            return [(p, 1)]
    g = poly_gcd(p, dp)
    if g.degree < 1:
        return [(p, 1)]
    b, c = poly_exact_div(p, g), poly_exact_div(dp, g)
    out = []
    i = 1
    while b.degree > 0:
        c = c - b.derivative()
        a = poly_gcd(b, c)
        if a.degree > 0:
            out.append((a, i))
        b, c = poly_exact_div(b, a), poly_exact_div(c, a)
        i += 1
    return out


def poly_nth_root(p: Poly, n: int) -> Poly:
    """Monic q with q**n == p, by top-down coefficient recursion.

    Requires p monic with n | deg p; raises NotAPerfectPower if no exact
    root exists.
    """
    if n < 1:
        raise ValueError("root order must be positive")
    if p.is_zero():
        raise NotAPerfectPower("zero polynomial")
    one = p.lc() / p.lc()
    if p.lc() != one:
        raise ValueError("poly_nth_root requires a monic polynomial")
    if n == 1:
        return p
    deg = len(p.coeffs) - 1
    if deg % n:
        raise NotAPerfectPower(f"degree {deg} not divisible by {n}")
    k = deg // n
    zero = one * 0
    # q = z^k + sum q_j z^j, solved downward from j = k-1; the z^(deg-i)
    # coefficient of q^n is n*q_{k-i} plus terms in already-known q's.
    q = [zero] * k + [one]
    for i in range(1, k + 1):
        partial = Poly(q) ** n
        target = p.coeffs[deg - i]
        current = partial.coeffs[deg - i] if deg - i < len(partial.coeffs) else zero
        q[k - i] = (target - current) / n
    root = Poly(q)
    if root**n != p:
        raise NotAPerfectPower(f"polynomial is not an exact {n}-th power")
    return root


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def poly_resultant(p: Poly, q: Poly):
    """Res(p, q) in the ascending-rows Sylvester sign convention.

    Equals (-1)^(deg p * deg q) times the classical resultant; zero iff the
    polynomials share a root over the algebraic closure.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = len(p.coeffs) - 1, len(q.coeffs) - 1
    sign = -1 if (m * n) % 2 else 1
    if _all_fractions(p.coeffs) and _all_fractions(q.coeffs):
        ip, dp = _clear_fractions(list(p.coeffs))
        iq, dq = _clear_fractions(list(q.coeffs))
        res = Fraction(_res_subresultant_int(ip, iq))
        return sign * res / (Fraction(dp) ** n * Fraction(dq) ** m)
    return sign * _res_field(p, q)


def _res_field(p: Poly, q: Poly):
    """Classical resultant by remainder recursion over an arbitrary field."""
    m, n = len(p.coeffs) - 1, len(q.coeffs) - 1
    if n == 0:
        return q.coeffs[0] ** m
    if m < n:
        flip = -1 if (m * n) % 2 else 1
        return flip * _res_field(q, p)
    r = p % q
    if r.is_zero():
        return q.coeffs[0] * 0
    s = len(r.coeffs) - 1
    sign = -1 if (m * n) % 2 else 1
    return sign * q.lc() ** (m - s) * _res_field(q, r)


def _res_subresultant_int(a: list[int], b: list[int]) -> int:
    """Classical resultant of integer polynomials by the fraction-free
    subresultant PRS (Collins; Cohen alg. 3.3.7)."""
    da, db = len(a) - 1, len(b) - 1
    s = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if (da * db) % 2:
            s = -s
    if db == 0:
        return s * b[0] ** da
    ca, cb = _int_content(a), _int_content(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    acc = ca**db * cb**da
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        a = b
        div = g * h**delta
        b = [c // div for c in r]
        g = a[-1]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = g
        else:
            h = g**delta // h ** (delta - 1)
        if len(b) - 1 == 0:
            break
    da = len(a) - 1
    if da == 0:
        value = h
    else:
        value = b[0] ** da // h ** (da - 1)
    return s * acc * value


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, all integral."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        top = r[db + k]
        r = [lb * c for c in r[: db + k]]
        if top:
            for j in range(db):
                r[k + j] -= top * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots with multiplicity, plus the rootless cofactor.

    Uses the rational-root theorem on the cleared integer polynomial;
    factoring the extreme coefficients may raise ResourceLimit for huge
    inputs.
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    k = 0
    while p.coeffs and not p.coeffs[0]:
        p = Poly(p.coeffs[1:])
        k += 1
    if k:
        roots.append((Fraction(0), k))
    if p.degree == 0:
        return roots, p
    ints, _ = _clear_fractions(list(p.coeffs))
    lead = abs(ints[-1])
    trail = abs(ints[0])
    cand = set()
    for num in _divisors_of(trail):
        for den in _divisors_of(lead):
            cand.add(Fraction(num, den))
            cand.add(Fraction(-num, den))
    for r in sorted(cand):
        mult = 0
        while not p.evaluate(r):
            p = poly_exact_div(p, Poly((-r, Fraction(1))))
            mult += 1
        if mult:
            roots.append((r, mult))
        if p.degree == 0:
            break
    return roots, p


def _divisors_of(n: int) -> list[int]:
    facs = factor_int(n)
    out = [1]
    for q, e in facs.items():
        out = [d * q**i for d in out for i in range(e + 1)]
    return out


def bareiss_det(rows):
    """Exact determinant by fraction-free Bareiss elimination.

    Entries may be Fraction or RatFunc; divisions performed are exact in
    the fraction field.  Only ``sylvester_resultant``, the test oracle for
    the subresultant resultants, uses it.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign = 1
    one = m[0][0] * 0 + 1 if not isinstance(m[0][0], Fraction) else Fraction(1)
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return one * 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num / prev if k else num
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(p: Poly, q: Poly):
    """Resultant via the ascending-coefficient Sylvester determinant.

    Slow reference path; used as an independent oracle for poly_resultant.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = len(p.coeffs) - 1, len(q.coeffs) - 1
    if m == 0 and n == 0:
        return Fraction(1) if _all_fractions(p.coeffs) else p.coeffs[0] / p.coeffs[0]
    size = m + n
    zero = p.coeffs[0] * 0
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(p.coeffs):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(q.coeffs):
            row[i + j] = c
        rows.append(row)
    return bareiss_det(rows)


# ---------------------------------------------------------------------------
# rational functions in t
# ---------------------------------------------------------------------------

class RatFunc:
    """Element of Q(t): numerator / monic denominator, coprime."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if isinstance(num, (int, Fraction)):
            num = Poly((Fraction(num),)) if num else Poly()
        if den is None:
            den = Poly((Fraction(1),))
        elif isinstance(den, (int, Fraction)):
            den = Poly((Fraction(den),))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _normalized:
            num, den = _ratfunc_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constants -------------------------------------------------------------

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc(Poly((Fraction(0), Fraction(1))))

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly((Fraction(c),)) if c else Poly())

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a constant")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    # -- field arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        if isinstance(other, RatFunc):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc.const(1) / self ** (-n)
        return RatFunc(self.num**n, self.den**n)

    # -- function-field data -------------------------------------------------------

    def ord_at(self, a: Fraction) -> int:
        """Order of vanishing at t = a (negative at poles)."""
        if self.is_zero():
            raise ValueError("ord of zero")
        return _ord_linear(self.num, a) - _ord_linear(self.den, a)

    def ord_at_infinity(self) -> int:
        """Order at t = infinity: deg(den) - deg(num)."""
        if self.is_zero():
            raise ValueError("ord of zero")
        return self.den.degree - self.num.degree

    def degree_as_map(self) -> int:
        """max(deg num, deg den): the degree of t -> value as a cover of P^1."""
        if self.is_zero():
            return 0
        return max(self.num.degree, self.den.degree)

    def evaluate(self, a: Fraction) -> Fraction:
        den = self.den.evaluate(a)
        if not den:
            raise ZeroDivisionError(f"pole at t={a}")
        return self.num.evaluate(a) / den


def _ratfunc_normalize(num: Poly, den: Poly):
    if num.is_zero():
        return Poly(), Poly((Fraction(1),))
    if _is_monomial(den):
        # Laurent fast path: cancel the common power of t by index shifts
        k = min(_trailing_zeros(num), len(den.coeffs) - 1)
        if k:
            num = Poly(num.coeffs[k:])
            den = Poly(den.coeffs[k:])
    else:
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
    top = den.lc()
    if top != 1:
        num = num.scale(1 / top)
        den = den.scale(1 / top)
    return num, den


def _ord_linear(p: Poly, a: Fraction) -> int:
    """Multiplicity of the root t=a of p (0 if p(a) != 0)."""
    if not a:
        return _trailing_zeros(p)
    k = 0
    while True:
        if p.evaluate(a):
            return k
        p = poly_exact_div(p, Poly((-a, Fraction(1))))
        k += 1


FieldElem = Union[Fraction, RatFunc]


def field_zero(sample: FieldElem) -> FieldElem:
    return sample * 0


def field_one(sample: FieldElem) -> FieldElem:
    return sample * 0 + 1
