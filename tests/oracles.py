"""Slow exact reference paths that the fast engines are tested against."""

from dynlyap.algebra import Poly, divisors, mobius, poly_exact_div, sylvester_resultant
from dynlyap.errors import NonExactDivision
from dynlyap.maps import fixed_point_divisor
from dynlyap.multipliers import _field_mod_div, power_sums_from_monic


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
