"""Naive, canonical and critical heights, and per-place dynamical Green
functions.

Non-archimedean Green values are computed with capped-precision local
arithmetic (residues mod p^M, or truncated power series at function-field
places).  Two exact short-circuits apply: good reduction gives 0
immediately, and once an orbit provably escapes into a superattracting
region at infinity the remaining tail is an exact geometric series.  When
neither fires the value is a float with a rigorous error bound from the
telescoping estimate sup|T_F| / (d^N (d-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly, RatFunc, factor_int, field_one, rational_roots
from .budget import Budget, default_budget
from .errors import IrrationalCriticalPoint, ResourceLimit
from .maps import (
    HomLift,
    RationalMap,
    apply_map,
    critical_divisor,
    minimal_lift,
    minimal_resultant_valuation,
    normalize_point,
    per_map,
    primitive_lift,
    resultant_of_lift,
)
from .multipliers import _normalize_proj
from .places import Place, LocalLogValue

_PREPERIOD_CAP = 64


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
    """Weil height of a projective point over Q or Q(t)."""
    vals = list(coords)
    if not any(vals):
        raise ValueError("(0 : ... : 0) is not a projective point")
    coprime = _normalize_proj(vals)  # coprime integers, or coprime polynomials in t
    if any(isinstance(c, RatFunc) for c in vals):
        return HeightValue.from_exact(max(c.num.degree for c in coprime if c))
    m = max(abs(c.numerator) for c in coprime)
    if m == 1:
        return _ZERO_HEIGHT
    val = math.log(m)
    return HeightValue(val, abs(val) * 4e-16)


def map_height(fmap: RationalMap) -> HeightValue:
    """Height of the coefficient point of the lift in P^(2d+1)."""
    return naive_height(list(fmap.lift.a) + list(fmap.lift.b))


# ---------------------------------------------------------------------------
# local Green functions
# ---------------------------------------------------------------------------

def local_green(lift: HomLift, point, v: Place, tol: float = 1e-9,
                budget: Optional[Budget] = None, resultant=None) -> LocalLogValue:
    """g_{F,v} at a base-field point of P^1; exact when provably so.

    ``resultant``, when given, is Res(F) and spares recomputing it.
    """
    budget = budget or default_budget()
    pt = normalize_point(*point) if isinstance(point, tuple) else normalize_point(point, field_one(lift.one()))
    if resultant is None:
        resultant = resultant_of_lift(lift)
    if v.is_archimedean():
        return _arch_green(lift, pt, tol, _arch_sup_t_bound(lift, resultant))
    return _nonarch_green(lift, pt, v, tol, budget, resultant)


def _nonarch_green(lift: HomLift, pt, v: Place, tol: float, budget: Budget,
                   resultant) -> LocalLogValue:
    d, one = lift.d, lift.one()
    mcoef, res_val = minimal_resultant_valuation(lift, resultant, v)
    fmin = minimal_lift(lift, v)
    # g_F = g_Fmin - mcoef * log(pi^-1) / (d-1)
    corr = Fraction(-mcoef, d - 1)
    base = v.p if v.kind == "prime" else None
    if res_val == 0:
        return LocalLogValue.exact(corr, base if corr else None)
    sup_t = float(res_val)  # sup |T_Fmin| <= |log|Res||_v in log-pi units
    # iterations for the telescoping bound sup_t/(d^N (d-1)) <= tol
    unit_log = math.log(v.p) if v.kind == "prime" else 1.0
    n_steps = 1
    while sup_t * unit_log / (d**n_steps * (d - 1)) > tol:
        n_steps += 1
        if n_steps > 4000:
            raise ResourceLimit("green tolerance unreachable")
    va = [v.valuation(c) if c else None for c in fmin.a]
    vb = [v.valuation(c) if c else None for c in fmin.b]
    x, y = pt
    shift = min(v.valuation(c) for c in (x, y) if c)
    if shift:
        scale = v.uniformizer_power(-shift, one)
        x, y = x * scale, y * scale
    tail_float = sup_t * unit_log / (d**n_steps * (d - 1))
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
        m0, m1 = ring.val(s0), ring.val(s1)
        if m0 is None and m1 is None:
            return None  # precision exhausted
        m = min(x for x in (m0, m1) if x is not None)
        num = num * d - m
        r0, r1 = ring.shift_down(s0, m), ring.shift_down(s1, m)
        ring.consume(m)
        if ring.eff_prec < 24:
            return None
    ledger = corr + Fraction(num, d**n_steps)
    x, err = LocalLogValue.exact(ledger, base if ledger else None).to_float()
    return LocalLogValue.from_float(x, err + tail_float)


@per_map("arch_sup_t")
def _map_sup_t_bound(fmap: RationalMap) -> float:
    """_arch_sup_t_bound of the map's lift, computed once per map."""
    res = fmap.resultant
    return _arch_sup_t_bound(fmap.lift, res, _map_cofactors(fmap, res))


def _arch_green(lift: HomLift, pt, tol: float, sup_t: float) -> LocalLogValue:
    """g_F at the archimedean place; sup_t bounds sup |T_F| (``_arch_sup_t_bound``)."""
    d = lift.d
    n_steps = 1
    while sup_t / (d**n_steps * (d - 1)) > tol:
        n_steps += 1
        if n_steps > 500:
            raise ResourceLimit("archimedean green tolerance unreachable")
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


def _arch_sup_t_bound(lift: HomLift, res, cofactors=None) -> float:
    """Rigorous bound on sup over P^1 of |T_F| at the archimedean place;
    ``res`` is Res(F), and ``cofactors`` its ``_bezout_cofactors`` when
    the caller has them."""
    d = lift.d
    sup_coeff = max(abs(_to_complex(c)) for c in list(lift.a) + list(lift.b))
    upper = math.log(math.sqrt(2.0) * (d + 1) * sup_coeff)
    g1, g2, h1, h2 = cofactors or _bezout_cofactors(lift, res)
    row1 = sum(abs(_to_complex(c)) for c in g1 + g2)
    row2 = sum(abs(_to_complex(c)) for c in h1 + h2)
    lower = math.log(abs(_to_complex(res))) - (2 * d - 1) / 2 * math.log(2.0) - math.log(max(row1, row2))
    return max(abs(upper), abs(lower)) + 1e-9


def _bezout_cofactors(lift: HomLift, res):
    """G1, G2 and H1, H2 with F0 G1 + F1 G2 = Res(F) X^(2d-1), resp. Y^(2d-1).

    Coefficient rows are returned descending in X, like the lift itself;
    ``res`` is Res(F).
    """
    d = lift.d
    one = field_one(lift.one())
    size = 2 * d
    # unknowns: g1_0..g1_{d-1}, g2_0..g2_{d-1} (descending); equations:
    # coefficient of X^(2d-1-j) Y^j for j = 0..2d-1
    rows = [[f[j - k] if 0 <= j - k <= d else one * 0 for f in (lift.a, lift.b) for k in range(d)]
            for j in range(size)]
    sol_g = _solve_field(rows, [res if j == 0 else res * 0 for j in range(size)])
    sol_h = _solve_field(rows, [res if j == size - 1 else res * 0 for j in range(size)])
    return (sol_g[:d], sol_g[d:], sol_h[:d], sol_h[d:])


@per_map("bezout")
def _unit_cofactors(fmap: RationalMap):
    """``_bezout_cofactors`` of the lift F of a map over Q with right-hand
    side 1, computed once per map."""
    return _bezout_cofactors(fmap.lift, Fraction(1))


def _map_cofactors(fmap: RationalMap, res, s=1):
    """``_bezout_cofactors`` of s F, for F the lift of a map over Q and
    res = Res(s F).  s F times (cofactors of F) / s is F times the
    cofactors of F, so the cofactors of s F are the unit solution
    (``_unit_cofactors``) times res / s.  The scaling is exact, so every
    value read off them is the same as from a solve of its own."""
    scale = Fraction(res) / s
    return tuple([c * scale for c in part] for part in _unit_cofactors(fmap))


def _solve_field(rows, rhs):
    n = len(rows)
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("singular cofactor system")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k] * inv
                for j in range(k, n + 1):
                    m[i][j] = m[i][j] - f * m[k][j]
    return [m[i][n] / m[i][i] for i in range(n)]


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
    """num/den as a truncated series; den[0] must be a unit."""
    if not den or not den[0]:
        raise ZeroDivisionError("series division by non-unit")
    inv0 = 1 / den[0]
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
    cofactors = _map_cofactors(fmap, prim.res, prim.scale)
    sup_t = _arch_sup_t_bound(prim.lift, prim.res, cofactors)
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

    An orbit point whose height passes a Northcott bound has h^ > 0, which
    proves pt wandering.  Over Q the Weil height h exceeds
    ``_northcott_bound`` C and h^ >= h - C > 0 (h <= h_2); over Q(t) the
    t-degree of a point (x : 1), max(deg num x, deg den x), exceeds
    ``_ff_northcott_bound``.  Past 2^14 bits an orbit is taken as escaping:
    the stop for orbits that never pass the bound, such as the constant
    orbits of an isotrivial map, or with C = inf.
    """
    q_base = fmap.base == "Q"
    cutoff = _northcott_bound(fmap) if q_base else _ff_northcott_bound(fmap)
    seen = {pt}
    cur = pt
    for _ in range(cap):
        cur = apply_map(fmap, cur)
        if cur in seen:
            return True
        seen.add(cur)
        if q_base:
            if cutoff < math.inf and math.log(max(abs(cur[0].numerator), cur[0].denominator)) > cutoff:
                return False
        elif cur[1] and cur[0].degree_as_map() > cutoff:
            return False
        if _point_bits(cur) > 1 << 14:
            return False
    return False


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
    one = field_one(fmap.resultant)
    pt = point if isinstance(point, tuple) else point_of(point, one)
    pt = normalize_point(*pt)
    if _preperiodic(fmap, pt):
        return _ZERO_HEIGHT
    xpt = _normalize_proj(pt)
    if fmap.base == "Q":
        x0, x1 = xpt
        places = bad_places(fmap)
        per_tol = tol / (len(places) + 2)
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
    per_tol = tol / (len(places) + 1)
    exact_total = Fraction(max(c.num.degree for c in xpt if c))
    float_total = err = 0.0
    all_exact = True
    for v in places:
        g = local_green(fmap.lift, xpt, v, per_tol, fmap.budget, fmap.resultant)
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
    per_tol = tol / max(1, total_mult)
    total = _ZERO_HEIGHT
    for pt, mult in points:
        h = canonical_height(fmap, pt, per_tol)
        total = total.plus(h.scaled(mult))
    return total
