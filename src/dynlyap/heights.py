"""Naive, canonical and critical heights, and per-place dynamical Green
functions.

Non-archimedean Green values are computed with capped-precision local
arithmetic (residues mod p^M, or truncated power series at function-field
places).  Two exact short-circuits apply: good reduction gives 0
immediately, and once an orbit provably escapes into a superattracting
region at infinity the remaining tail is an exact geometric series.  When
neither fires the value is a float with a rigorous error bound from the
telescoping estimate sup|T_F| / (d^N (d-1)).  At a prime, an orbit whose
reduction mod p never meets a common zero of F_min mod p drops no digit,
and its value is read off that F_p orbit without the residues mod p^M.
At a function-field place a series coefficient past 2^14 bits is a
ResourceLimit: the rational coefficients can double in bits every step.

Naive heights and the search for preperiodic points run on coprime integer
rows (integers over Q, Z[t] rows over Q(t)), as the multiplier spectrum
does, without field arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly, RatFunc, _int_mul, factor_int, field_one, rational_roots
from .budget import Budget, default_budget
from .errors import IrrationalCriticalPoint, ResourceLimit
from .maps import (
    BASE_QT,
    HomLift,
    RationalMap,
    _coerce_field,
    critical_divisor,
    minimal_lift,
    minimal_resultant_valuation,
    normalize_point,
    per_map,
    primitive_lift,
    resultant_of_lift,
)
from .places import Place, LocalLogValue

_PREPERIOD_CAP = 64
# bits of a series coefficient's numerator or denominator: past it the
# rational coefficients of a series Green function swell without bound
_SERIES_BITS_CAP = 1 << 14


@dataclass(frozen=True)
class HeightValue:
    value: float
    err: float
    exact: Optional[Fraction] = None

    @staticmethod
    def from_exact(q) -> "HeightValue":
        q = Fraction(q)
        return HeightValue(float(q), 0.0, q)

    def plus(self, other: "HeightValue") -> "HeightValue":
        if self.exact is not None and other.exact is not None:
            return HeightValue.from_exact(self.exact + other.exact)
        return HeightValue(self.value + other.value, self.err + other.err)

    def scaled(self, s) -> "HeightValue":
        s = Fraction(s)
        if self.exact is not None:
            return HeightValue.from_exact(self.exact * s)
        return HeightValue(self.value * float(s), self.err * abs(float(s)))


_ZERO_HEIGHT = HeightValue(0.0, 0.0, Fraction(0))


# ---------------------------------------------------------------------------
# naive heights
# ---------------------------------------------------------------------------

def naive_height(coords) -> HeightValue:
    """Weil height of a projective point over Q or Q(t), read off its
    primitive integer rows (``bivariate._clear_rows``, then
    ``bivariate._primitive_point``)."""
    from .bivariate import _clear_rows, _primitive_point

    vals = list(coords)
    if not any(vals):
        raise ValueError("(0 : ... : 0) is not a projective point")
    vals, base = _coerce_field(vals)
    return _rows_height(_primitive_point(_clear_rows(vals)[0]), base)


def map_height(fmap: RationalMap) -> HeightValue:
    """Height of the coefficient point of the lift in P^(2d+1), read off the
    primitive lift G that ``bivariate.primitive_rows`` keeps per map."""
    from .bivariate import primitive_rows

    g0, g1, _ = primitive_rows(fmap)
    return _rows_height(g0 + g1, fmap.base)


def _rows_height(rows: list, base: str) -> HeightValue:
    """Height of the point whose coordinates are primitive integer rows:
    their t-degree over Q(t), the log of their largest absolute value over
    Q."""
    if base == BASE_QT:
        return HeightValue.from_exact(max(map(len, rows)) - 1)
    m = max(abs(r[0]) for r in rows if r)
    if m == 1:
        return _ZERO_HEIGHT
    val = math.log(m)
    return HeightValue(val, abs(val) * 4e-16)


# ---------------------------------------------------------------------------
# local Green functions
# ---------------------------------------------------------------------------

def local_green(lift: HomLift, point, v: Place, tol: float = 1e-9,
                budget: Optional[Budget] = None, resultant=None) -> LocalLogValue:
    """g_{F,v} at a base-field point of P^1; exact when provably so.

    ``resultant``, when given, is Res(F) and spares recomputing it.
    """
    check_tol(tol)
    budget = budget or default_budget()
    pt = normalize_point(*point) if isinstance(point, tuple) else normalize_point(point, field_one(lift.one()))
    if resultant is None:
        resultant = resultant_of_lift(lift)
    if v.is_archimedean():
        return _arch_green(lift, pt, tol, _arch_sup_t_bound(lift, resultant))
    return _nonarch_green(lift, pt, v, tol, budget, resultant)


def _nonarch_green(lift: HomLift, pt, v: Place, tol: float, budget: Budget,
                   resultant) -> LocalLogValue:
    """g_{F,v}(pt) at a non-archimedean place, from the ledger of the
    valuations m_j of F_min along the orbit.

    At a prime, the orbit mod p comes first (``_orbit_avoids_bad_locus``):
    when none of its N points is a common zero of F_min mod p every m_j is
    0, and the value is the one the precision ladder would return.  Other
    orbits climb the ladder.
    """
    d, one = lift.d, lift.one()
    mcoef, res_val = minimal_resultant_valuation(lift, resultant, v)
    fmin = minimal_lift(lift, v)
    # g_F = g_Fmin - mcoef * log(pi^-1) / (d-1)
    corr = Fraction(-mcoef, d - 1)
    base = v.p if v.kind == "prime" else None
    if res_val == 0:
        return LocalLogValue.exact(corr, base if corr else None)
    sup_t = float(res_val)  # sup |T_Fmin| <= |log|Res||_v in log-pi units
    unit_log = math.log(v.p) if v.kind == "prime" else 1.0
    n_steps = _green_steps(sup_t * unit_log, d, tol, 4000, "green")
    va = [v.valuation(c) if c else None for c in fmin.a]
    vb = [v.valuation(c) if c else None for c in fmin.b]
    x, y = pt
    shift = min(v.valuation(c) for c in (x, y) if c)
    if shift:
        scale = v.uniformizer_power(-shift, one)
        x, y = x * scale, y * scale
    tail_float = sup_t * unit_log / (d**n_steps * (d - 1))
    # the ladder's exact escape test can fire only where y = 0 mod p
    escape = not fmin.b[0] and va[0] is not None
    if base is not None and _orbit_avoids_bad_locus(fmin, (x, y), base, n_steps, escape):
        return _float_ledger(corr, base, tail_float)
    args = (fmin, (x, y), v, d, n_steps)
    full = (int(res_val) + 1) * (n_steps + 2) + 48
    # precision ladder: a rung below ``full`` returns only values that no
    # missing digit could change, hence the value at ``full``
    prec = 2 * (int(res_val) + 1) + 48
    while prec < full:
        out = _nonarch_iterate(*args, prec, va, vb, corr, base, tail_float, False)
        if out is not None:
            return out
        prec *= 2
    prec = full
    for _ in range(8):
        out = _nonarch_iterate(*args, prec, va, vb, corr, base, tail_float)
        if out is not None:
            return out
        prec *= 2
        budget.check_bits(prec * 64, "local green precision")
    raise ResourceLimit("local green precision did not stabilize")


def _nonarch_iterate(fmin, pt, v, d, n_steps, prec, va, vb, corr, base, tail_float,
                     final=True):
    """The ledger of valuations along the orbit, or None when ``prec`` digits
    do not settle it.  Every m_j is an exact valuation; with ``final`` off a
    failed escape test on a residue whose valuation is unknown also returns
    None, since the test only gets easier as that valuation grows."""
    ring = _LocalRing.make(v, prec, fmin)
    r0, r1 = ring.convert(pt[0]), ring.convert(pt[1])
    num = 0  # the ledger is corr + num / d^j
    poly_like = not fmin.b[0]
    for j in range(n_steps):
        # exact escape: orbit captured by a superattracting infinity
        if poly_like and va[0] is not None:
            v0, v1 = ring.val(r0), ring.val(r1)
            if v0 == 0 and (v1 is None or v1 >= 1):
                e = v1 if v1 is not None else ring.eff_prec
                ok1 = all(va[0] < va[i] + i * e for i in range(1, len(va)) if va[i] is not None)
                ok2 = all(vb[i] + i * e >= va[0] + e + 1 for i in range(1, len(vb)) if vb[i] is not None)
                if ok1 and ok2:
                    total = corr + Fraction(num * (d - 1) - va[0], d**j * (d - 1))
                    return LocalLogValue.exact(total, base if total else None)
                if v1 is None and not final:
                    return None
        s0, s1 = ring.eval_pair(r0, r1)
        if base is None and _series_bits(s0, s1) > _SERIES_BITS_CAP:
            raise ResourceLimit(f"series Green function at {v}: a coefficient passed "
                                f"{_SERIES_BITS_CAP} bits at step {j + 1}")
        m0, m1 = ring.val(s0), ring.val(s1)
        if m0 is None and m1 is None:
            return None  # precision exhausted
        m = min(x for x in (m0, m1) if x is not None)
        num = num * d - m
        r0, r1 = ring.shift_down(s0, m), ring.shift_down(s1, m)
        ring.consume(m)
        if ring.eff_prec < 24:
            return None
    return _float_ledger(corr + Fraction(num, d**n_steps), base, tail_float)


def _float_ledger(ledger: Fraction, base, tail_float: float) -> LocalLogValue:
    """The ledger of a finished orbit as a float, the series tail in its error."""
    x, err = LocalLogValue.exact(ledger, base if ledger else None).to_float()
    return LocalLogValue.from_float(x, err + tail_float)


def _orbit_avoids_bad_locus(fmin, pt, p, n_steps, escape) -> bool:
    """True when none of the first ``n_steps`` points of the orbit of pt mod
    p is a common zero of F_min mod p, nor, with ``escape``, has y = 0.

    pt has p-integral coordinates, not both divisible by p.  At a point P
    whose reduction is not a common zero of the reduced forms, one of the
    two values of F_min(P) is a unit, so m_j = 0 and F_min(P) reduces to
    F_min mod p at the reduced point: the F_p orbit follows the ladder's
    residues step by step (Silverman, The Arithmetic of Dynamical Systems,
    ch. 2).  ``escape`` is for a polynomial-like F_min, where the ladder's
    exact escape test may return an exact value at a point with y = 0.
    """
    ring = _PadicRing(p, 1, fmin)
    r0, r1 = ring.convert(pt[0]), ring.convert(pt[1])
    for _ in range(n_steps):
        if escape and not r1:
            return False
        r0, r1 = ring.eval_pair(r0, r1)
        if not (r0 or r1):
            return False
    return True


@per_map("arch_sup_t")
def _map_sup_t_bound(fmap: RationalMap) -> float:
    """_arch_sup_t_bound of the map's lift, computed once per map."""
    return _arch_sup_t_bound(fmap.lift, fmap.resultant)


def _arch_green(lift: HomLift, pt, tol: float, sup_t: float) -> LocalLogValue:
    """g_F at the archimedean place; sup_t bounds sup |T_F| (``_arch_sup_t_bound``)."""
    d = lift.d
    n_steps = _green_steps(sup_t, d, tol, 500, "archimedean green")
    a = [_to_complex(c) for c in lift.a]
    b = [_to_complex(c) for c in lift.b]
    x, y = _to_complex(pt[0]), _to_complex(pt[1])
    norm = math.hypot(abs(x), abs(y))
    x, y = x / norm, y / norm
    total = 0.0
    for j in range(n_steps):
        fx = _eval_form(a, x, y, d)
        fy = _eval_form(b, x, y, d)
        norm = math.hypot(abs(fx), abs(fy))
        total += math.log(norm) / d ** (j + 1)
        x, y = fx / norm, fy / norm
    err = sup_t / (d**n_steps * (d - 1)) + 5e-14 * (n_steps + 1)
    return LocalLogValue.from_float(total, err)


def check_tol(tol: float) -> None:
    """A tolerance that is not > 0 (nan included) is a ValueError naming it.
    Each public entry point that takes ``tol`` calls this first, before any
    short-circuit, so that the answer does not depend on the point or map."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")


def _tol_share(tol: float, parts: int) -> float:
    """tol / parts, the tolerance of one term of a sum; a share that
    underflows to 0 is unreachable, like one that needs too many steps."""
    share = tol / parts
    if not share > 0:
        raise ResourceLimit(f"tolerance {tol} unreachable in {parts} parts")
    return share


def _green_steps(sup_t: float, d: int, tol: float, cap: int, what: str) -> int:
    """The least N >= 1 with sup_t / (d^N (d - 1)) <= tol, the telescoping
    bound on the tail of a Green function's series.  Past ``cap`` steps, or
    once d^N leaves the float range (d = 2 near N = 1024), the tolerance is
    unreachable."""
    for n_steps in range(1, cap + 1):
        try:
            if not sup_t / (d**n_steps * (d - 1)) > tol:
                return n_steps
        except OverflowError:
            break
    raise ResourceLimit(f"{what} tolerance unreachable")


def _eval_form(coeffs, x, y, d):
    acc = 0j
    yp = 1.0 + 0j
    xs = [1.0 + 0j]
    for _ in range(d):
        xs.append(xs[-1] * x)
    for j, c in enumerate(coeffs):
        acc += c * xs[d - j] * yp
        yp *= y
    return acc


def _to_complex(c) -> complex:
    """c as a complex float; ResourceLimit when |c| is beyond the float range."""
    if isinstance(c, RatFunc):
        raise ValueError("archimedean evaluation needs rational input")
    try:
        return complex(c)
    except OverflowError:
        raise ResourceLimit("a number beyond the float range (about 1.8e308) "
                            "at the archimedean place") from None


def _arch_sup_t_bound(lift: HomLift, res) -> float:
    """Rigorous bound on sup over P^1 of |T_F| at the archimedean place;
    ``res`` is Res(F)."""
    d = lift.d
    sup_coeff = max(abs(_to_complex(c)) for c in list(lift.a) + list(lift.b))
    upper = math.log(math.sqrt(2.0) * (d + 1) * sup_coeff)
    g1, g2, h1, h2 = _bezout_cofactors(lift, res)
    row1 = sum(abs(_to_complex(c)) for c in g1 + g2)
    row2 = sum(abs(_to_complex(c)) for c in h1 + h2)
    lower = math.log(abs(_to_complex(res))) - (2 * d - 1) / 2 * math.log(2.0) - math.log(max(row1, row2))
    return max(abs(upper), abs(lower)) + 1e-9


def _bezout_cofactors(lift: HomLift, res):
    """G1, G2 and H1, H2 with F0 G1 + F1 G2 = res X^(2d-1), resp. res Y^(2d-1),
    for a lift F over Q; ``res`` is Res(F), or 1 for the unit solution.

    Coefficient rows are returned descending in X, like the lift itself.
    With the forms cleared to integers a = da F0 and b = db F1, one
    fraction-free Gauss-Jordan elimination (Bareiss-Montante) of their
    Sylvester system, right-hand sides e_0 and e_(2d-1) alongside, leaves its
    last pivot p (+-det) on the diagonal and p times the solutions for (a, b)
    on the right; entry k of a solution for F is (da if k < d else db) times
    that for (a, b).  A singular system and a lift over Q(t) are ValueErrors.
    """
    if any(isinstance(c, RatFunc) for c in lift.a + lift.b):
        raise ValueError("Bezout cofactors are solved over Q only")
    d, size = lift.d, 2 * lift.d
    da, db = (math.lcm(*(c.denominator for c in f)) for f in (lift.a, lift.b))
    a, b = ([c.numerator * (s // c.denominator) for c in f] for f, s in ((lift.a, da), (lift.b, db)))
    # unknowns: g1_0..g1_{d-1}, g2_0..g2_{d-1} (descending); equations:
    # coefficient of X^(2d-1-j) Y^j for j = 0..2d-1
    m = [[f[j - k] if 0 <= j - k <= d else 0 for f in (a, b) for k in range(d)]
         + [int(j == 0), int(j == size - 1)] for j in range(size)]
    prev = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if m[i][k]), None)
        if piv is None:
            raise ValueError("singular cofactor system")
        m[k], m[piv] = m[piv], m[k]
        row = m[k]
        for i, other in enumerate(m):
            if i != k:  # c = 0 too: each step rescales every row, and // prev is exact
                c = other[k]
                other[k + 1:] = [(row[k] * x - c * y) // prev for x, y in zip(other[k + 1:], row[k + 1:])]
        prev = row[k]
    scale = Fraction(res) / prev
    sol_g, sol_h = ([scale * (r[j] * (da if k < d else db)) for k, r in enumerate(m)] for j in (size, size + 1))
    return (sol_g[:d], sol_g[d:], sol_h[:d], sol_h[d:])


# ---------------------------------------------------------------------------
# capped local arithmetic
# ---------------------------------------------------------------------------

class _LocalRing:
    """Residue arithmetic at a non-archimedean place with precision cap.

    ``ca`` and ``cb`` hold the coefficients of F_min, converted once;
    ``eff_prec`` counts the digits still known.
    """

    def __init__(self, fmin: HomLift, prec: int):
        self.eff_prec = prec
        self.ca = [self.convert(c) for c in fmin.a]
        self.cb = [self.convert(c) for c in fmin.b]

    @staticmethod
    def make(v: Place, prec: int, fmin: HomLift) -> "_LocalRing":
        if v.kind == "prime":
            return _PadicRing(v.p, prec, fmin)
        return _SeriesRing(v, prec, fmin)

    def consume(self, m: int):
        self.eff_prec -= m


class _PadicRing(_LocalRing):
    def __init__(self, p: int, prec: int, fmin: HomLift):
        self.p = p
        self.modulus = p**prec
        super().__init__(fmin, prec)

    def convert(self, x):
        if isinstance(x, RatFunc):
            x = x.as_fraction()
        if x == 0:
            return 0
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    def val(self, r: int):
        if r == 0:
            return None
        v = 0
        while r % self.p == 0:
            r //= self.p
            v += 1
        return v if v < self.eff_prec else None

    def eval_pair(self, r0: int, r1: int):
        mod = self.modulus
        xs = [1]
        ys = [1]
        for _ in range(len(self.ca) - 1):
            xs.append(xs[-1] * r0 % mod)
            ys.append(ys[-1] * r1 % mod)
        s0 = s1 = 0
        for ca, cb, x, y in zip(self.ca, self.cb, reversed(xs), ys):
            m = x * y % mod
            s0 += ca * m
            s1 += cb * m
        return s0 % mod, s1 % mod

    def shift_down(self, r: int, m: int):
        return r // self.p**m if m else r


class _SeriesRing(_LocalRing):
    """Truncated power series in the local uniformizer at an FF place."""

    def __init__(self, v: Place, prec: int, fmin: HomLift):
        self.v = v
        super().__init__(fmin, prec)

    def convert(self, x):
        if isinstance(x, Fraction):
            x = RatFunc.const(x)
        if x.is_zero():
            return []
        if self.v.kind == "ffpoint":
            a = self.v.a
            num = x.num.compose(Poly((a, Fraction(1))))
            den = x.den.compose(Poly((a, Fraction(1))))
        else:
            dn, dd = x.num.degree, x.den.degree
            if dd < dn:
                raise ValueError("element not integral at t=inf")
            num = x.num.reversed_coeffs(dn).shift(dd - dn)
            den = x.den.reversed_coeffs(dd)
        return _series_div(list(num.coeffs), list(den.coeffs), self.eff_prec)

    def val(self, r: list):
        for i, c in enumerate(r):
            if c:
                return i
        return None

    def eval_pair(self, r0, r1):
        prec = self.eff_prec
        xs = [[Fraction(1)]]
        ys = [[Fraction(1)]]
        for _ in range(len(self.ca) - 1):
            xs.append(_series_mul(xs[-1], r0, prec))
            ys.append(_series_mul(ys[-1], r1, prec))
        s0: list = []
        s1: list = []
        for ca, cb, x, y in zip(self.ca, self.cb, reversed(xs), ys):
            m = _series_mul(x, y, prec)
            if ca:
                s0 = _series_add(s0, _series_mul(ca, m, prec))
            if cb:
                s1 = _series_add(s1, _series_mul(cb, m, prec))
        return s0, s1

    def shift_down(self, r: list, m: int):
        return r[m:] if m else r


def _series_bits(*series) -> int:
    """The most bits of a numerator or denominator among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for s in series for c in s), default=0)


def _series_mul(a: list, b: list, prec: int) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * min(len(a) + len(b) - 1, prec)
    for i, ai in enumerate(a):
        if ai and i < prec:
            for j, bj in enumerate(b):
                if i + j >= prec:
                    break
                if bj:
                    out[i + j] += ai * bj
    return out


def _series_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _series_div(num: list, den: list, prec: int) -> list:
    """num/den as a truncated series; den[0] must be a unit.  A constant
    den gives the finite series of num / den[0], whose later terms are 0."""
    if not den or not den[0]:
        raise ZeroDivisionError("series division by non-unit")
    inv0 = 1 / den[0]
    if len(den) == 1:
        return [c * inv0 for c in num[:prec]]
    out = []
    num = list(num) + [Fraction(0)] * max(0, prec - len(num))
    for k in range(prec):
        acc = num[k]
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return out


# ---------------------------------------------------------------------------
# canonical and critical heights
# ---------------------------------------------------------------------------

def point_of(x, one=Fraction(1)):
    """P^1 point from an affine field element, or "inf"."""
    if isinstance(x, str):
        if x == "inf":
            return (one, one * 0)
        raise ValueError(f"unknown point {x!r}")
    return normalize_point(one * 0 + (Fraction(x) if isinstance(x, int) else x), one)


def bad_places(fmap: RationalMap) -> list[Place]:
    """Places where the chosen lift is non-minimal or has bad reduction.

    At every other non-archimedean place the Green function of the lift
    vanishes identically, so canonical-height sums may be restricted to
    this set (plus the archimedean or t=inf place).

    For F = lam G with G the primitive integer lift, Res F = lam^(2d) Res G
    and Res G is integral, so every zero of lam is a zero of Res F: the
    places are the poles of lam (where a zero of Res G can cancel) and the
    zeros and poles of Res F.
    """
    from .bivariate import primitive_rows  # G in Z[t][z], over Q and Q(t)

    lam, res = primitive_rows(fmap)[2], fmap.resultant
    if fmap.base == "Q":
        primes: set[int] = set()
        for n in (lam.denominator, abs(res.numerator), res.denominator):
            if n > 1:
                primes |= set(factor_int(n))
        return [Place.prime(p) for p in sorted(primes)]
    # function field: the rational points among those places
    res = res if isinstance(res, RatFunc) else RatFunc.const(res)
    pts: set[Fraction] = set()
    for p in (lam.den, res.num, res.den):
        if p.degree > 0:
            pts |= _rational_zero_set(p)
    return [Place.ff_point(a) for a in sorted(pts)]


def _rational_zero_set(p: Poly) -> set[Fraction]:
    roots, cofactor = rational_roots(p)
    if cofactor.degree > 0:
        raise ResourceLimit("bad reduction at a non-rational point of the t-line is unsupported")
    return {r for r, _ in roots}


@per_map("northcott")
def _northcott_bound(fmap: RationalMap) -> float:
    """C >= |h^(P) - h_2(P)| on P^1(Q), h_2 the Weil height with the
    Euclidean norm at infinity; computed once per map.

    h^ - h_2 is the sum of the Green functions of any lift; for the primitive
    integer lift F' they are bounded by sup|T_F'|/(d-1) at infinity and by
    v_p(Res F') log p/(d-1) at p, which sum to log|Res F'|/(d-1) without
    factoring.  inf when floats could overflow: the coefficients, Res F'
    and the Bezout cofactors (minors) are below 2^(2d(bits + d)) (Hadamard).
    """
    d, prim = fmap.d, primitive_lift(fmap)
    bits = max(abs(c.numerator) for c in prim.lift.a + prim.lift.b).bit_length()
    if 2 * d * (bits + d) > 1000:
        return math.inf
    sup_t = _arch_sup_t_bound(prim.lift, prim.res)
    return (sup_t + math.log(prim.res)) / (d - 1) + 1e-6


@per_map("ff_northcott")
def _ff_northcott_bound(fmap: RationalMap) -> Fraction:
    """C with h(P) > C => h^(P) > 0 on P^1(Q(t)), h the t-degree height;
    computed once per map.

    Let G be the primitive lift in Z[t][z] (``bivariate.primitive_rows``)
    and e the largest t-degree of its coefficients.  For coprime
    P = (x0, x1) in Q[t], G(P) has degree <= d h(P) + e.  Bezout gives
    G0 A0 + G1 A1 = R X^(2d-1) and G0 B0 + G1 B1 = R Y^(2d-1) with
    R = Res G != 0 and cofactors whose coefficients are minors of the
    Sylvester matrix, of t-degree <= (2d - 1) e.  So the gcd of G0(P) and
    G1(P) divides R, and deg R + (2d - 1) h(P) <= max deg G_i(P)
    + (d - 1) h(P) + (2d - 1) e; together h(G(P)) >= d h(P) - (2d - 1) e.
    Telescoping, h^(P) >= h(P) - (2d - 1) e / (d - 1).
    """
    from .bivariate import primitive_rows

    g0, g1, _ = primitive_rows(fmap)
    e = max(len(r) - 1 for r in g0 + g1 if r)
    return Fraction((2 * fmap.d - 1) * e, fmap.d - 1)


def _preperiodic(fmap: RationalMap, pt, cap: int = _PREPERIOD_CAP) -> bool:
    """True when the orbit of pt repeats within ``cap`` steps.

    The orbit runs on coprime integer rows (``_orbit_rows``), one pair per
    point of P^1, so a repeated pair is a repeated point.  An orbit point
    whose height passes a Northcott bound has h^ > 0, which proves pt
    wandering.  Over Q the Weil height h = log max(|X|, |Y|) exceeds
    ``_northcott_bound`` C and h^ >= h - C > 0 (h <= h_2); over Q(t) the
    t-degree max(deg X, deg Y) of a finite point exceeds
    ``_ff_northcott_bound``.  Past 2^14 bits of the field point
    (``_point_bits``, read only once ``_rows_bits`` bounds it above 2^14)
    an orbit is taken as escaping: the stop for orbits that never pass the
    bound, such as the constant orbits of an isotrivial map, or with
    C = inf.
    """
    q_base = fmap.base == "Q"
    cutoff = _northcott_bound(fmap) if q_base else _ff_northcott_bound(fmap)
    orbit = _orbit_rows(fmap, pt)
    seen = {next(orbit)}
    for _, cur in zip(range(cap), orbit):
        if cur in seen:
            return True
        seen.add(cur)
        x, y = cur
        if q_base:
            if cutoff < math.inf and math.log(max(abs(x), y)) > cutoff:
                return False
        elif y and max(len(x), len(y)) - 1 > cutoff:
            return False
        if _rows_bits(x, y) > 1 << 14 and _point_bits(_rows_point(cur, fmap.base)) > 1 << 14:
            return False
    return False


def _orbit_rows(fmap: RationalMap, pt):
    """The orbit pt, f(pt), f^2(pt), ... as coprime integer pairs (X, Y):
    integers over Q, tuples of ascending t-coefficients over Q(t).

    Each step evaluates the primitive lift G (``bivariate.primitive_rows``)
    at (X, Y) by Horner in X with the powers of Y shared by both forms, and
    divides out the content of the pair (it divides Res G).  The last
    nonzero coordinate gets a positive leading coefficient, so each point
    of P^1 has one pair.
    """
    from .bivariate import _clear_rows, _primitive_point, primitive_rows

    g0, g1, _ = primitive_rows(fmap)
    rows, _ = _clear_rows(list(pt))
    if fmap.base == "Q":  # rows of t-degree 0: their integers
        lift = [[r[0] if r else 0 for r in g] for g in (g0, g1)]
        x, y = (r[0] if r else 0 for r in rows)
        one, mul, add = 1, operator.mul, operator.add

        def primitive(x, y):
            c = math.gcd(x, y)
            if y < 0 or not y and x < 0:
                c = -c
            return x // c, y // c
    else:
        lift, (x, y) = (g0, g1), rows
        one, mul, add = (1,), _int_mul, _add_rows

        def primitive(x, y):
            x, y = _primitive_point([x, y])
            return tuple(x), tuple(y)

    d = fmap.d
    x, y = primitive(x, y)
    while True:
        yield x, y
        ypow = [one, y]
        for _ in range(d - 1):
            ypow.append(mul(ypow[-1], y))
        x, y = primitive(*(_form_at(g, x, ypow, d, mul, add) for g in lift))


def _form_at(g: list, x, ypow: list, d: int, mul, add):
    """sum_i g[i] x^i y^(d-i) for the coefficients g of a form of degree d
    (z ascending, trailing zeros trimmed), by Horner in x; ypow[j] = y^j."""
    top = len(g) - 1
    acc = g[top]
    for i in range(top - 1, -1, -1):
        acc = mul(acc, x)
        if g[i]:
            acc = add(acc, mul(g[i], ypow[top - i]))
    return mul(acc, ypow[d - top]) if top < d else acc


def _add_rows(a, b) -> list:
    """a + b in Z[t], without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _rows_bits(x, y) -> int:
    """An upper bound on ``_point_bits`` of the point (x : y) of coprime
    rows from ``_orbit_rows``, normalized to (x / y : 1) or (1 : 0).

    Over Q it is exact: x / y in lowest terms, and the 2 bits of 1.  Over
    Q(t) each coefficient of x / y, as num / den with den monic, is a row
    entry over lc(y), and the coordinate 1 takes 4 bits.
    """
    if isinstance(x, int):
        return x.bit_length() + y.bit_length() + 2
    lead = (y[-1] if y else 1).bit_length()
    return sum(c.bit_length() for c in x + y) + (len(x) + len(y)) * lead + 4


def _rows_point(rows, base: str):
    """The normalized field point of a pair from ``_orbit_rows``."""
    from .bivariate import _from_rows

    if base == "Q":
        rows = [[c] for c in rows]
    return normalize_point(*_from_rows(rows, [1], base))


def _point_bits(pt) -> int:
    qs = [q for c in pt for q in ([c] if isinstance(c, Fraction) else [*c.num.coeffs, *c.den.coeffs])]
    return sum(q.numerator.bit_length() + q.denominator.bit_length() for q in qs)


def canonical_height(fmap: RationalMap, point, tol: float = 1e-9) -> HeightValue:
    """Call-Silverman canonical height of a base-field point of P^1.

    Exact 0 for points detected preperiodic; otherwise assembled from the
    per-place Green functions of the chosen lift, with certified error.
    Over Q(t) the value is exact whenever every local computation resolves
    exactly.
    """
    check_tol(tol)
    one = field_one(fmap.resultant)
    pt = point if isinstance(point, tuple) else point_of(point, one)
    pt = normalize_point(*pt)
    if _preperiodic(fmap, pt):
        return _ZERO_HEIGHT
    if fmap.base == "Q":
        # the coprime integer point: (num x : den x), or (1 : 0)
        xpt = (Fraction(pt[0].numerator), Fraction(pt[0].denominator)) if pt[1] else pt
        x0, x1 = xpt
        places = bad_places(fmap)
        per_tol = _tol_share(tol, len(places) + 2)
        value = err = 0.0
        for v in places:
            g = local_green(fmap.lift, xpt, v, per_tol, fmap.budget, fmap.resultant)
            gv, ge = g.to_float()
            value += gv
            err += ge
        g_arch = _arch_green(fmap.lift, xpt, per_tol, _map_sup_t_bound(fmap))
        gv, ge = g_arch.to_float()
        try:
            sq = float(x0) ** 2 + float(x1) ** 2
        except OverflowError:
            sq = math.inf
        if math.isinf(sq):  # beyond the float range: the log of the exact integers
            sq = x0.numerator**2 + x1.numerator**2
        norm = 0.5 * math.log(sq)
        value += gv + norm
        err += ge + 5e-15 * (1 + abs(norm))
        return HeightValue(value, err)
    # function field
    places = bad_places(fmap) + [Place.ff_infinity()]
    per_tol = _tol_share(tol, len(places) + 1)
    exact_total = naive_height(pt).exact
    float_total = err = 0.0
    all_exact = True
    for v in places:
        g = local_green(fmap.lift, pt, v, per_tol, fmap.budget, fmap.resultant)
        if g.is_exact():
            exact_total += g.q
        else:
            all_exact = False
            gv, ge = g.to_float()
            float_total += gv
            err += ge
    if all_exact:
        return HeightValue.from_exact(exact_total)
    return HeightValue(float(exact_total) + float_total, err)


def critical_height_direct(fmap: RationalMap, tol: float = 1e-9) -> HeightValue:
    """Sum of canonical heights over Crit(f), multiplicities included.

    Requires every critical point to lie in P^1 over the base field;
    IrrationalCriticalPoint otherwise (callers fall back to the multiplier
    estimator).
    """
    check_tol(tol)
    cd = critical_divisor(fmap.lift)
    one = field_one(fmap.resultant)
    points: list[tuple] = []
    poly = cd.affine_poly
    if fmap.base == "Q":
        roots, cofactor = rational_roots(poly)
        if cofactor.degree > 0:
            raise IrrationalCriticalPoint(
                f"critical polynomial has an irreducible factor of degree {cofactor.degree}")
        for r, mult in roots:
            points.append(((one * r, one), mult))
    else:
        zeros = 0
        while poly.coeffs and not poly.coeffs[0]:
            poly = Poly(poly.coeffs[1:])
            zeros += 1
        if poly.degree > 0:
            raise IrrationalCriticalPoint("non-split critical polynomial over Q(t) is unsupported")
        if zeros:
            points.append(((one * 0, one), zeros))
    if cd.mult_infinity:
        points.append(((one, one * 0), cd.mult_infinity))
    total_mult = sum(m for _, m in points)
    per_tol = _tol_share(tol, max(1, total_mult))
    total = _ZERO_HEIGHT
    for pt, mult in points:
        h = canonical_height(fmap, pt, per_tol)
        total = total.plus(h.scaled(mult))
    return total
