"""Slow exact reference paths that the fast engines are tested against."""

from fractions import Fraction

from dynlyap.algebra import (
    Poly,
    RatFunc,
    divisors,
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
from dynlyap.maps import fixed_point_divisor
from dynlyap.multipliers import _field_mod_div, lambda_tilde_point, power_sums_from_monic, sigma_star


def dynatomic_poly(fmap, n: int):
    """(Phi*_n, its multiplicity at infinity): the Moebius quotient
    prod_{m | n} P_m^mu(n/m) of the fixed-point polynomials of the map's own
    lift, composed over the base field (``fixed_point_divisor``) and divided
    by ``poly_exact_div``."""
    num = den = None
    inf_mult = 0
    for m in divisors(n):
        mu = mobius(n // m)
        if mu == 0:
            continue
        fd = fixed_point_divisor(fmap, m)
        inf_mult += mu * fd.mult_infinity
        if mu == 1:
            num = fd.affine_poly if num is None else num * fd.affine_poly
        else:
            den = fd.affine_poly if den is None else den * fd.affine_poly
    return (num if den is None else poly_exact_div(num, den)), inf_mult


def field_power_sums(fmap, n: int, phi: Poly, count: int, one) -> list:
    """S_k = sum over the roots beta of the monic phi of lambda(beta)^k,
    k = 1..count, lambda = (f^n)', by the trace loop cur = cur * lambda mod phi
    in k[z]/(phi) over the base field (Fraction or RatFunc coefficients)."""
    deg = len(phi.coeffs) - 1
    lift_n = fmap.iterate_lift_cached(n)
    num = lift_n.poly0()
    den = lift_n.poly1()
    a = (num.derivative() * den - num * den.derivative()) % phi
    b = (den * den) % phi
    if b.is_zero():
        raise NonExactDivision("vanishing denominator in multiplier computation")
    if b.degree <= 0:
        lam = a.scale(1 / b.coeffs[0])
    else:
        lam = _field_mod_div(a, b, phi)
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
