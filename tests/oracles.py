"""Slow exact reference paths that the fast engines are tested against."""

from fractions import Fraction

from dynlyap.algebra import (
    Poly,
    RatFunc,
    divisors,
    field_one,
    mobius,
    poly_exact_div,
    sigma2,
    sylvester_resultant,
)
from dynlyap.analysis import (
    DegenerationReport,
    FFGrowthEntry,
    FFGrowthReport,
    _check_poles_only_at,
    _classify,
)
from dynlyap.errors import IrrationalCriticalPoint, NonExactDivision
from dynlyap.heights import critical_height_direct, map_height, naive_height
from dynlyap.maps import HomLift
from dynlyap.multipliers import (
    fixstar_multiplier_charpoly,
    lambda_tilde_point,
    power_sums_from_monic,
    sigma_star,
)
from dynlyap.places import local_abs, log_max


def compose_lifts(outer, inner):
    """outer o inner as homogeneous pairs over the base field, by Horner in
    inner's first form with the powers of its second form precomputed."""
    g0 = Poly(tuple(reversed(inner.a)))
    g1 = Poly(tuple(reversed(inner.b)))
    d = outer.d
    deg_out = d * inner.d
    one = outer.one()
    pow1 = [Poly.const(one)]
    for _ in range(d):
        pow1.append(pow1[-1] * g1)
    comp0 = comp1 = Poly()
    for j in range(d + 1):
        comp0 = comp0 * g0 + Poly.const(outer.a[j]) * pow1[j]
        comp1 = comp1 * g0 + Poly.const(outer.b[j]) * pow1[j]
    zero = one * 0
    c0 = list(comp0.coeffs) + [zero] * (deg_out + 1 - len(comp0.coeffs))
    c1 = list(comp1.coeffs) + [zero] * (deg_out + 1 - len(comp1.coeffs))
    return HomLift(deg_out, tuple(reversed(c0)), tuple(reversed(c1)))


def iterate_lift(lift, n: int):
    """The lift of f^n over the base field, by n - 1 compositions."""
    cur = lift
    for _ in range(n - 1):
        cur = compose_lifts(lift, cur)
    return cur


def conjugate_lift(lift, m):
    """M o F o adj M over the base field, the lift of M o f o M^{-1}; the
    entries of M are taken into the field of F first."""
    one = lift.one()
    as_lift = lambda x: HomLift(1, (x.m00 * one, x.m01 * one), (x.m10 * one, x.m11 * one))
    return compose_lifts(as_lift(m), compose_lifts(lift, as_lift(m.adjugate())))


def fixed_point_poly(fmap, m: int):
    """(P_m = F0^(m)(z, 1) - z F1^(m)(z, 1), its multiplicity at infinity)
    for the base-field iterate F^(m) of the map's own lift."""
    lift_m = iterate_lift(fmap.lift, m)
    p = lift_m.poly0() - lift_m.poly1().shift(1)
    return p, fmap.d**m + 1 - p.degree


def dynatomic_poly(fmap, n: int):
    """(Phi*_n, its multiplicity at infinity): the Moebius quotient
    prod_{m | n} P_m^mu(n/m) of the fixed-point polynomials of the map's own
    lift, composed over the base field (``fixed_point_poly``) and divided
    by ``poly_exact_div``."""
    num = den = None
    inf_mult = 0
    for m in divisors(n):
        mu = mobius(n // m)
        if mu == 0:
            continue
        p, mult = fixed_point_poly(fmap, m)
        inf_mult += mu * mult
        if mu == 1:
            num = p if num is None else num * p
        else:
            den = p if den is None else den * p
    return (num if den is None else poly_exact_div(num, den)), inf_mult


def field_mod_div(a: Poly, b: Poly, phi: Poly) -> Poly:
    """a / b in k[z]/(phi) by the extended Euclid over the base field
    (Fraction or RatFunc coefficients).  Each remainder is made monic, which
    over Q(t) keeps the degrees of the coefficients from compounding."""
    one = field_one(phi.lc())
    r0, r1 = phi, b % phi
    u0, u1 = Poly(), Poly.const(one)
    while not r1.is_zero() and r1.degree > 0:
        inv_lc = 1 / r1.lc()
        r1, u1 = r1.scale(inv_lc), u1.scale(inv_lc)
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if r1.is_zero():
        raise NonExactDivision(
            "derivative denominator shares a root with the dynatomic polynomial"
        )
    inv = u1.scale(1 / r1.coeffs[0])
    return (a * inv) % phi


def field_power_sums(fmap, n: int, phi: Poly, count: int, one) -> list:
    """S_k = sum over the roots beta of the monic phi of lambda(beta)^k,
    k = 1..count, lambda = (f^n)', by the trace loop cur = cur * lambda mod phi
    in k[z]/(phi) over the base field (Fraction or RatFunc coefficients),
    with f^n composed over the base field too (``iterate_lift``)."""
    deg = len(phi.coeffs) - 1
    lift_n = iterate_lift(fmap.lift, n)
    num = lift_n.poly0()
    den = lift_n.poly1()
    a = (num.derivative() * den - num * den.derivative()) % phi
    b = (den * den) % phi
    if b.is_zero():
        raise NonExactDivision("vanishing denominator in multiplier computation")
    if b.degree <= 0:
        lam = a.scale(1 / b.coeffs[0])
    else:
        lam = field_mod_div(a, b, phi)
    traces = [one * deg] + power_sums_from_monic(phi, deg - 1)  # trace of z^i
    out = []
    cur = lam
    for k in range(1, count + 1):
        s = one * 0
        for i, ci in enumerate(cur.coeffs):
            if ci:
                s = s + ci * traces[i]
        out.append(s)
        if k < count:
            cur = (cur * lam) % phi
    return out


def lift_resultant(lift):
    """Res(F) of a homogeneous lift by ``sylvester_resultant`` of a sheared lift.

    G(X, Y) = F(X, Y + cX) has Res(G) = Res(F), the shear having determinant
    1.  For c with F0(1, c) F1(1, c) != 0, G0(z, 1) and G1(z, 1) both have
    degree d, and reversing the columns of the ascending Sylvester matrix
    gives the lift's descending one with sign (-1)^d.  A zero row gives 0.
    """
    d, one = lift.d, lift.one()
    if not any(lift.a) or not any(lift.b):
        return one * 0

    def sheared(row, c):
        lin = Poly((one, one * c))  # Y + cX at (z, 1)
        return sum(((lin ** j).scale(x).shift(d - j) for j, x in enumerate(row)), Poly())

    for c in range(2 * d + 1):
        g0, g1 = sheared(lift.a, c), sheared(lift.b, c)
        if g0.degree == g1.degree == d:
            res = sylvester_resultant(g0, g1)
            return -res if d % 2 else res
    raise AssertionError("no shear gives both rows full degree")


def ff_degree_sequence(fmap, n_max: int):
    """``analysis.ff_degree_sequence`` read off q_n = p_{d,n}^n: D_n is the
    height of Lambda~_n = [sigma*_{d_n} : ... : 1] and constancy is checked
    on every sigma*."""
    d = fmap.d
    h_d = map_height(fmap).exact
    try:
        h_crit = critical_height_direct(fmap)
    except IrrationalCriticalPoint:
        h_crit = None
    entries = []
    for n in range(1, n_max + 1):
        sigma = sigma_star(fmap, n)
        point = lambda_tilde_point(fmap, n)
        deg = naive_height(point.coords).exact
        d_n = len(sigma) - 1
        normalized = Fraction(deg, n * d_n)
        constant = all((s.is_constant() if isinstance(s, RatFunc) else True) for s in sigma)
        holds = None
        if h_crit is not None and h_crit.exact is not None:
            radius = Fraction(8 * d * (12 * d * d - 8 * d - 3)) * Fraction(sigma2(n), d**n) * h_d
            holds = abs(normalized - h_crit.exact) <= radius
        entries.append(FFGrowthEntry(n, int(deg), normalized, constant, holds))
    return FFGrowthReport(tuple(entries), h_crit, _classify(entries))


def degeneration_slope(fmap, center, n_max: int):
    """``analysis.degeneration_slope`` read off the valuations of every
    sigma*_{j,n}, the coefficients of q_n."""
    _check_poles_only_at(fmap, center)
    alphas = []
    for n in range(1, n_max + 1):
        sigma = sigma_star(fmap, n)
        best = Fraction(0)
        for s in sigma:
            if s:
                ordv = center.valuation(s)
                if -ordv > best:
                    best = Fraction(-ordv)
        alphas.append((n, best / (n * (len(sigma) - 1))))
    return DegenerationReport(center, tuple(alphas), alphas[-1][1])


def L_n_local_finite(fmap, n: int, log_r, v):
    """``lyapunov.L_n_local`` at a finite place read off q_n = p_{d,n}^n:
    the log of the r-weighted Gauss norm of q_n over n d_n."""
    q_n = fixstar_multiplier_charpoly(fmap, n)
    d_n = q_n.degree
    terms = []
    for j in range(d_n + 1):
        s = q_n[d_n - j]  # sigma*_j up to sign, which |.|_v does not see
        if s:
            terms.append(local_abs(s, v) + log_r.scaled(d_n - j))
    return log_max(terms).scaled(Fraction(1, n * d_n))
