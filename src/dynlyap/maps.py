"""Degree-d rational self-maps of P^1 as homogeneous lifts.

A lift F = (F0, F1) is stored by its coefficient rows a, b with
F0(p0, p1) = sum_j a[j] p0^(d-j) p1^j (a[0] multiplies p0^d), so the affine
chart is z = p0/p1 and f(z) = F0(z,1)/F1(z,1).  Iteration and conjugation
compose lifts exactly, on integer rows (``bivariate._compose_rows``, the
one composition of lifts); infinity bookkeeping therefore stays uniform
across the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import (
    FieldElem,
    Poly,
    RatFunc,
    field_one,
    field_zero,
    poly_gcd,
    poly_exact_div,
    poly_resultant,
)
from .budget import Budget, default_budget
from .errors import ArchimedeanPlace, DegenerateMap, NonExactDivision
from .places import Place, LocalLogValue

BASE_Q = "Q"
BASE_QT = "Q(t)"


def _coerce_field(values):
    """Promote a mixed Fraction/RatFunc/int row to a single field; any
    other coefficient, a float among them, is a ValueError."""
    for v in values:
        if not isinstance(v, (int, Fraction, RatFunc)):
            raise ValueError(f"coefficient {v!r} is not an int, a Fraction or a RatFunc")
    vals = [Fraction(v) if isinstance(v, int) else v for v in values]
    if any(isinstance(v, RatFunc) for v in vals):
        vals = [v if isinstance(v, RatFunc) else RatFunc.const(v) for v in vals]
        return vals, BASE_QT
    return vals, BASE_Q


@dataclass(frozen=True)
class HomLift:
    """Homogeneous lift of a degree-d map; immutable."""

    d: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("lift degree must be >= 1")
        if len(self.a) != self.d + 1 or len(self.b) != self.d + 1:
            raise ValueError("coefficient rows must have length d+1")
        if not any(self.a) and not any(self.b):
            raise ValueError("zero lift")

    # -- conversions -----------------------------------------------------------

    def poly0(self) -> Poly:
        """F0(z, 1) as a polynomial in z (ascending coefficients)."""
        return Poly(tuple(reversed(self.a)))

    def poly1(self) -> Poly:
        return Poly(tuple(reversed(self.b)))

    def one(self) -> FieldElem:
        for c in list(self.a) + list(self.b):
            if c:
                return field_one(c)
        raise ValueError("zero lift")

    def evaluate(self, x: FieldElem, y: FieldElem):
        """(F0(x,y), F1(x,y))."""
        xa = [x * 0 + 1]
        ya = [y * 0 + 1]
        for _ in range(self.d):
            xa.append(xa[-1] * x)
            ya.append(ya[-1] * y)
        v0 = x * 0
        v1 = x * 0
        for j in range(self.d + 1):
            m = xa[self.d - j] * ya[j]
            v0 = v0 + self.a[j] * m
            v1 = v1 + self.b[j] * m
        return v0, v1

    def scale(self, alpha: FieldElem) -> "HomLift":
        return HomLift(self.d, tuple(c * alpha for c in self.a), tuple(c * alpha for c in self.b))

    def coefficient_bits(self) -> int:
        """Bit size of the coefficients' numerators and denominators.  The
        budget counts row bits (``bivariate._next_iterate``); this is kept
        for the benchmark tracer's ``maps.lift_bits_max`` (``iterate_lift``)."""
        bits = 0
        for c in list(self.a) + list(self.b):
            if isinstance(c, Fraction):
                bits += c.numerator.bit_length() + c.denominator.bit_length()
            elif isinstance(c, RatFunc):
                for p in (c.num, c.den):
                    for q in p.coeffs:
                        bits += q.numerator.bit_length() + q.denominator.bit_length()
        return bits


def resultant_of_lift(lift: HomLift) -> FieldElem:
    """Res(F): the 2d x 2d determinant of the two shifted coefficient rows,
    from the subresultant resultant R of F0(z, 1) and F1(z, 1).

    With m = deg F0(z, 1) and n = deg F1(z, 1), Res(F) = (-1)^(mn) R when
    m = n = d.  A row of degree below d vanishes at infinity, the root the
    affine chart does not see: m < d adds (-1)^(d(d-m)) lc(F1)^(d-m), n < d
    adds lc(F0)^(d-n).  When both drop, or a row is zero, the rows share a
    root and Res(F) = 0.
    """
    d = lift.d
    f0, f1 = lift.poly0(), lift.poly1()
    m, n = f0.degree, f1.degree
    if min(m, n) < 0 or max(m, n) < d:
        return field_zero(lift.one())
    res = poly_resultant(f0, f1)
    if (m * n + (d * (d - m) if m < d else 0)) % 2:
        res = -res
    if m < d:
        return res * f1.lc() ** (d - m)
    if n < d:
        return res * f0.lc() ** (d - n)
    return res


@dataclass
class RationalMap:
    """A validated degree-d rational map with its chosen lift."""

    lift: HomLift
    base: str
    resultant: FieldElem
    budget: Budget = field(default_factory=default_budget)
    _iterates: dict = field(default_factory=dict, repr=False)

    @property
    def d(self) -> int:
        return self.lift.d

    def iterate_lift_cached(self, n: int) -> HomLift:
        """lam^E G^(n), E = 1 + d + ... + d^(n-1), for F = lam G: the lift
        of f^n on the spectrum's rows, formed once and kept under the key n."""
        if n not in self._iterates:
            from . import bivariate

            rows, d = bivariate.lift_rows(self, n), self.d
            lam = bivariate.primitive_rows(self)[2] ** sum(d**k for k in range(n))
            self._iterates[n] = bivariate._lift_from_rows(rows, d**n, lam, self.base)
        return self._iterates[n]


def per_map(kind: str):
    """Decorator that computes ``fn(fmap, *args)`` once per map: the value
    is kept in ``fmap._iterates`` under the key ``(kind, *args)``.  An
    exception is not kept, so a call that failed runs again."""
    def decorate(fn):
        @functools.wraps(fn)
        def cached(fmap, *args):
            key = (kind, *args)
            store = fmap._iterates
            if key not in store:
                store[key] = fn(fmap, *args)
            return store[key]
        return cached
    return decorate


def new_map(d: int, a_coeffs, b_coeffs, budget: Optional[Budget] = None) -> RationalMap:
    """Validate and build a RationalMap; DegenerateMap if Res(F) = 0."""
    if d < 2:
        raise ValueError("map degree must be >= 2")
    coeffs, base = _coerce_field(list(a_coeffs) + list(b_coeffs))
    lift = HomLift(d, tuple(coeffs[: d + 1]), tuple(coeffs[d + 1 :]))
    res = resultant_of_lift(lift)
    if not res:
        raise DegenerateMap(f"Res(F) = 0: the lift defines a map of degree < {d}")
    return RationalMap(lift, base, res, budget or default_budget())


def map_from_affine(num: Poly, den: Poly, budget: Optional[Budget] = None) -> RationalMap:
    """Map from affine f(z) = num/den; degree = max(deg num, deg den)."""
    d = max(len(num.coeffs), len(den.coeffs)) - 1
    one = (num.coeffs or den.coeffs)[0] * 0 + 1
    zero = one * 0
    a = list(num.coeffs) + [zero] * (d + 1 - len(num.coeffs))
    b = list(den.coeffs) + [zero] * (d + 1 - len(den.coeffs))
    return new_map(d, tuple(reversed(a)), tuple(reversed(b)), budget)


def iterate_lift(lift: HomLift, n: int, budget: Optional[Budget] = None) -> HomLift:
    """Exact homogeneous lift of f^n (degree d^n): lam^E G^(n) as in
    ``RationalMap.iterate_lift_cached``, for lift = lam G with G primitive
    (``bivariate._primitive``), budget checked as ``bivariate.lift_rows`` does."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    budget = budget or default_budget()
    budget.check_period(lift.d, n)
    from . import bivariate

    d, base = lift.d, _coerce_field(lift.a + lift.b)[1]
    g0, g1, lam = bivariate._primitive(lift, base)
    rows = (g0, g1)
    for _ in range(n - 1):
        rows = bivariate._next_iterate((g0, g1), rows, d, budget)
    return bivariate._lift_from_rows(rows, d**n, lam ** sum(d**k for k in range(n)), base)


def _compose(outer: HomLift, inner: HomLift) -> HomLift:
    """outer o inner, of degree outer.d * inner.d, on integer rows: for
    outer = lam G and inner = mu H with G, H primitive,
    outer o inner = lam mu^(outer.d) G o H."""
    from . import bivariate

    base = _coerce_field(outer.a + outer.b + inner.a + inner.b)[1]
    g0, g1, lam = bivariate._primitive(outer, base)
    h0, h1, mu = bivariate._primitive(inner, base)
    rows = bivariate._compose_rows((g0, g1), (h0, h1), outer.d)
    return bivariate._lift_from_rows(rows, outer.d * inner.d, lam * mu**outer.d, base)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedDivisor:
    n: int
    affine_poly: Poly  # P_n(z) = F0^(n)(z,1) - z F1^(n)(z,1)
    mult_infinity: int

    def total_degree(self) -> int:
        return (len(self.affine_poly.coeffs) - 1) + self.mult_infinity


def fixed_point_divisor(fmap: RationalMap, n: int) -> FixedDivisor:
    lift_n = fmap.iterate_lift_cached(n)
    p = lift_n.poly0() - lift_n.poly1().shift(1)
    if p.is_zero():
        raise DegenerateMap("f^n is the identity; not a degree >= 2 map")
    mult_inf = fmap.d**n + 1 - (len(p.coeffs) - 1)
    return FixedDivisor(n, p, mult_inf)


@dataclass(frozen=True)
class CriticalDivisor:
    affine_poly: Poly  # det DF(z, 1)
    mult_infinity: int
    leading_coeff: FieldElem  # C_F

    def total_degree(self) -> int:
        return (len(self.affine_poly.coeffs) - 1) + self.mult_infinity


def critical_divisor(lift: HomLift) -> CriticalDivisor:
    """Jacobian determinant of the lift, as a divisor of degree 2d-2."""
    d = lift.d
    # partials of sum c_j p0^(d-j) p1^j, kept as z-polynomials (ascending)
    def partials(row):
        d0 = [row[j] * (d - j) for j in range(d)]          # d F/d p0: deg d-1 form
        d1 = [row[j + 1] * (j + 1) for j in range(d)]      # d F/d p1
        return Poly(tuple(reversed(d0))), Poly(tuple(reversed(d1)))

    a0, a1 = partials(lift.a)
    b0, b1 = partials(lift.b)
    det = a0 * b1 - a1 * b0
    if det.is_zero():
        raise DegenerateMap("vanishing Jacobian: degenerate lift")
    mult_inf = (2 * d - 2) - (len(det.coeffs) - 1)
    return CriticalDivisor(det, mult_inf, det.lc())


def multiplier_rational_function(fmap: RationalMap, n: int) -> tuple[Poly, Poly]:
    """(f^n)'(z) = A/B in lowest terms, denominator monic.

    For f^n = num/den, (f^n)' = w/den^2 with w = num' den - num den'.  num
    and den are coprime, since Res F^(n) != 0, so at a root r of den of
    multiplicity m, num(r) != 0 and v_r(num den') = m - 1 < m <= v_r(num' den):
    v_r(w) = m - 1 in characteristic 0.  Hence gcd(w, den^2) = gcd(den, den'),
    and A = w/g, B = den^2/g for g = gcd(den, den'), with no gcd of w.
    """
    lift_n = fmap.iterate_lift_cached(n)
    num = lift_n.poly0()
    den = lift_n.poly1()
    w = num.derivative() * den - num * den.derivative()
    v = den * den
    if w.is_zero():
        return Poly(), Poly.const(v.lc() / v.lc())
    g = poly_gcd(den, den.derivative())
    if g.degree > 0:
        w = poly_exact_div(w, g)
        v = poly_exact_div(v, g)
    top = v.lc()
    return w.scale(1 / top), v.scale(1 / top)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mobius2:
    """Invertible 2x2 matrix acting on P^1 by fractional-linear maps."""

    m00: FieldElem
    m01: FieldElem
    m10: FieldElem
    m11: FieldElem

    def __post_init__(self):
        if not (self.m00 * self.m11 - self.m01 * self.m10):
            raise ValueError("Mobius matrix must be invertible")

    def adjugate(self) -> "Mobius2":
        return Mobius2(self.m11, -self.m01, -self.m10, self.m00)

    def lift(self) -> HomLift:
        """The matrix as a lift of degree 1."""
        return HomLift(1, (self.m00, self.m01), (self.m10, self.m11))

    def apply(self, x, y):
        return self.m00 * x + self.m01 * y, self.m10 * x + self.m11 * y


def conjugate(fmap: RationalMap, m: Mobius2) -> RationalMap:
    """Exact lift of M o f o M^{-1}: M o F o adj M (``_compose``), the
    adjugate standing in for the inverse."""
    g = _compose(m.lift(), _compose(fmap.lift, m.adjugate().lift()))
    return new_map(fmap.d, g.a, g.b, fmap.budget)


# ---------------------------------------------------------------------------
# minimal lifts and local resultants
# ---------------------------------------------------------------------------

def _least_valuation(lift: HomLift, v: Place) -> int:
    """m = min over the nonzero coefficients c of F of v(c); F_min = pi^(-m) F."""
    return min(v.valuation(c) for c in lift.a + lift.b if c)


def minimal_lift(lift: HomLift, v: Place) -> HomLift:
    """Scale the lift by a uniformizer power so max_v |coefficient| = 1."""
    if v.is_archimedean():
        raise ArchimedeanPlace("minimal lifts are defined at non-archimedean places")
    m = _least_valuation(lift, v)
    if m == 0:
        return lift
    return lift.scale(v.uniformizer_power(-m, lift.one()))


def minimal_resultant_valuation(lift: HomLift, resultant, v: Place) -> tuple[int, int]:
    """(m, v(Res F_min)) from ``resultant`` = Res(F), m as in ``_least_valuation``:
    Res is homogeneous of degree 2d in the coefficients, so
    v(Res F_min) = v(Res F) - 2 d m."""
    m = _least_valuation(lift, v)
    return m, v.valuation(resultant) - 2 * lift.d * m


@per_map("abs_resultant")
def abs_resultant(fmap: RationalMap, v: Place) -> LocalLogValue:
    """log|Res(f)|_v for a v-minimal lift; always <= 0.  Computed once per
    map and place."""
    if v.is_archimedean():
        raise ArchimedeanPlace("Res(f) is used here only at non-archimedean places")
    _, val = minimal_resultant_valuation(fmap.lift, fmap.resultant, v)
    return LocalLogValue.exact(-val, v.p)


@dataclass(frozen=True)
class PrimitiveLift:
    """s F with coprime integer coefficients, for a map over Q."""

    scale: Fraction  # s > 0
    lift: HomLift    # s F, Fraction coefficients with denominator 1
    res: int         # |Res(s F)|


@per_map("primitive_lift")
def primitive_lift(fmap: RationalMap) -> PrimitiveLift:
    """The primitive integer lift of a map over Q, computed once per map:
    s F = G for G and F = lam G from ``bivariate.primitive_rows``."""
    # loaded on first use: starting the CLI and parsing maps never compile it
    from .bivariate import primitive_rows

    s = 1 / primitive_rows(fmap)[2]
    res = abs(fmap.resultant) * s ** (2 * fmap.d)  # Res is homogeneous of degree 2d
    if res.denominator != 1:
        raise NonExactDivision("resultant of the primitive lift is not an integer")
    return PrimitiveLift(s, fmap.lift.scale(s), res.numerator)


# ---------------------------------------------------------------------------
# projective points over the base field
# ---------------------------------------------------------------------------

def normalize_point(x: FieldElem, y: FieldElem):
    """Canonical representative: (z, 1) for finite points, (1, 0) for infinity."""
    if y:
        return (x / y, field_one(y))
    if not x:
        raise ValueError("(0 : 0) is not a projective point")
    return (field_one(x), field_zero(x))


def apply_map(fmap: RationalMap, point) -> tuple:
    x, y = point
    v0, v1 = fmap.lift.evaluate(x, y)
    return normalize_point(v0, v1)


def orbit(fmap: RationalMap, point, length: int) -> list:
    pts = [normalize_point(*point)]
    for _ in range(length):
        pts.append(apply_map(fmap, pts[-1]))
    return pts


def cycle_multiplier(fmap: RationalMap, point, q: int) -> FieldElem:
    """Multiplier of f^q along the exact q-cycle through ``point``, by the
    homogeneous chain rule; exact in the base field, infinity included.

    With P_0 the normalized point and P_(i+1) = F(P_i) unnormalized,
    P_q = c P_0.  The lift F^q of degree d^q has P_0 as an eigenvector of
    D(F^q)(P_0) with eigenvalue d^q c (Euler's identity), and c lambda on
    the tangent line of P^1, so det D(F^q)(P_0) = d^q c^2 lambda, while the
    chain rule makes it prod_(i<q) det DF(P_i).  det DF is the form of
    degree 2d - 2 whose affine part is ``critical_divisor(lift)``.
    """
    jac = critical_divisor(fmap.lift).affine_poly.coeffs  # det DF(z, 1)
    top = 2 * fmap.d - 2
    start = normalize_point(*point)
    x, y = start
    det = field_one(fmap.resultant)
    for _ in range(q):
        det = det * sum(c * x**k * y ** (top - k) for k, c in enumerate(jac))
        x, y = fmap.lift.evaluate(x, y)
    if x * start[1] != y * start[0]:
        raise ValueError("point is not q-periodic")
    c = y if start[1] else x  # P_q = c P_0
    return det / (fmap.d**q * c * c)
