import random
from fractions import Fraction as F

import pytest

from dynlyap.algebra import Poly, RatFunc, divisors, field_one, period_count, poly_resultant
from dynlyap.errors import DegenerateMap
from dynlyap.bivariate import _monic_from_power_sums
from dynlyap.maps import (
    BASE_Q,
    BASE_QT,
    Mobius2,
    conjugate,
    fixed_point_divisor,
    multiplier_rational_function,
    new_map,
)
from dynlyap.multipliers import (
    charpoly_multipliers_full,
    dynatomic_divisor,
    fixstar_multiplier_charpoly,
    lambda_point,
    lambda_tilde_point,
    multiplier_polynomial,
    power_roots_poly,
    power_sums_from_monic,
    sigma_display_poly,
    _infinity_cycle_data,
)


def poly_map(*coeffs_desc):
    d = len(coeffs_desc) - 1
    return new_map(d, coeffs_desc, [0] * d + [1])


def random_map(rng, d=2):
    while True:
        cs = [F(rng.randint(-3, 3)) for _ in range(2 * d + 2)]
        try:
            return new_map(d, cs[: d + 1], cs[d + 1 :])
        except (DegenerateMap, ValueError):
            continue


def oracle_fixstar_charpoly(fmap, n):
    """Independent route: resultants against Phi*_n plus Lagrange interpolation."""
    div = dynatomic_divisor(fmap, n)
    a, b = multiplier_rational_function(fmap, n)
    phi = div.star_poly.monic() if div.star_poly.degree > 0 else div.star_poly
    one = field_one(fmap.resultant)
    deg = phi.degree if phi.degree > 0 else 0
    if deg <= 0:
        fin = Poly([one])
    else:
        def root_product(g):
            g = g % phi
            if g.is_zero():
                return one * 0
            if g.degree == 0:
                return g.coeffs[0] ** deg
            r = poly_resultant(phi, g)
            return -r if (deg * g.degree) % 2 else r

        pts = [(one * k, root_product(b.scale(one * k) - a)) for k in range(deg + 1)]
        fin = Poly()
        for i, (xi, yi) in enumerate(pts):
            if not yi:
                continue
            basis = Poly([one])
            scale = one
            for j, (xj, _) in enumerate(pts):
                if j != i:
                    basis = basis * Poly([-xj, one])
                    scale = scale * (xi - xj)
            fin = fin + basis.scale(yi / scale)
        fin = fin.scale(1 / root_product(b))
    if div.star_mult_infinity:
        q, lam_q = _infinity_cycle_data(fmap, n)
        lam = lam_q ** (n // q)
        fin = fin * Poly([-lam, one]) ** div.star_mult_infinity
    return fin


class TestDynatomic:
    def test_spec_examples(self):
        d1 = dynatomic_divisor(poly_map(1, 0, 0), 2)
        assert d1.star_poly.monic() == Poly.from_ints([1, 1, 1])
        assert d1.star_mult_infinity == 0
        d2 = dynatomic_divisor(poly_map(1, 0, -1), 2)
        assert d2.star_poly.monic() == Poly.from_ints([0, 1, 1])
        t = RatFunc.t()
        d3 = dynatomic_divisor(new_map(2, (1, 0, t), (0, 0, 1)), 2)
        assert d3.star_poly == Poly([t + 1, RatFunc.const(1), RatFunc.const(1)])

    def test_divisor_identity_random(self):
        # prod over m | n of Phi*_m equals P_n, polynomial and infinity part
        rng = random.Random(101)
        for _ in range(6):
            fm = random_map(rng)
            for n in (2, 3, 4, 6):
                prod = None
                inf = 0
                for m in divisors(n):
                    dv = dynatomic_divisor(fm, m)
                    prod = dv.star_poly if prod is None else prod * dv.star_poly
                    inf += dv.star_mult_infinity
                fd = fixed_point_divisor(fm, n)
                assert prod == fd.affine_poly
                assert inf == fd.mult_infinity

    def test_degree_law(self):
        rng = random.Random(55)
        for d, n_top in ((2, 6), (3, 4)):
            fm = random_map(rng, d)
            for n in range(1, n_top + 1):
                assert dynatomic_divisor(fm, n).total_degree() == period_count(d, n)


class TestNewtonHelpers:
    def test_power_sum_round_trip(self):
        rng = random.Random(77)
        t = RatFunc.t()
        for _ in range(30):
            deg = rng.randint(1, 6)
            p = Poly([F(rng.randint(-3, 3)) for _ in range(deg)] + [F(1)])
            ps = power_sums_from_monic(p, deg)
            assert _monic_from_power_sums(ps, deg, BASE_Q) == p
        # over Q(t), with poles in the coefficients and zero coefficients
        for _ in range(10):
            deg = rng.randint(1, 4)
            cs = [rng.choice((0, 1, F(-2, 3), t, 1 / t, (t + 1) / (t * t - 2), t * t - F(1, 2)))
                  for _ in range(deg)]
            p = Poly([c * RatFunc.const(1) for c in cs] + [RatFunc.const(1)])
            ps = power_sums_from_monic(p, deg)
            assert _monic_from_power_sums(ps, deg, BASE_QT) == p

    def test_power_roots(self):
        p = Poly.from_ints([-2, 1]) * Poly.from_ints([-3, 1])  # roots 2, 3
        q = power_roots_poly(p, 2, BASE_Q)  # roots 4, 9
        assert q == Poly.from_ints([36, -13, 1])
        assert power_roots_poly(p, 1, BASE_Q) == p


class TestSpectra:
    def test_basilica_period_one(self):
        sp = multiplier_polynomial(poly_map(1, 0, -1), 1)
        assert sp.sigma_star == (F(1), F(2), F(-4), F(0))
        assert sp.p_dn == Poly.from_ints([0, -4, -2, 1])

    def test_basilica_period_two(self):
        sp = multiplier_polynomial(poly_map(1, 0, -1), 2)
        assert sp.sigma_star == (F(1), F(0), F(0))
        assert sp.p_dn == Poly.from_ints([0, 1])

    def test_ff_family(self):
        t = RatFunc.t()
        sp = multiplier_polynomial(new_map(2, (1, 0, t), (0, 0, 1)), 2)
        assert sp.sigma_star[1] == 8 * (t + 1)
        assert sp.sigma_star[2] == 16 * (t + 1) ** 2

    def test_rational_map_with_nontrivial_denominator(self):
        inv = new_map(2, (0, 0, 1), (1, 0, 0))
        sp = multiplier_polynomial(inv, 2)
        assert sp.sigma_star == (F(1), F(0), F(0))

    def test_against_resultant_oracle(self):
        rng = random.Random(42)
        for _ in range(10):
            fm = random_map(rng)
            for n in (1, 2, 3, 4):
                assert fixstar_multiplier_charpoly(fm, n) == oracle_fixstar_charpoly(fm, n)

    def test_degree_and_reconstruction_laws(self):
        rng = random.Random(9)
        for d, n_top in ((2, 5), (3, 3)):
            fm = random_map(rng, d)
            for n in range(1, n_top + 1):
                sp = multiplier_polynomial(fm, n)
                d_n = period_count(d, n)
                assert d_n % n == 0
                assert sp.p_dn.degree == d_n // n
                q = sp.p_dn ** n
                disp = sigma_display_poly(sp)
                assert disp == (q if d_n % 2 == 0 else -q)

    def test_conjugation_invariance(self):
        rng = random.Random(500)
        ms = [
            Mobius2(F(1), F(1), F(1), F(2)),
            Mobius2(F(0), F(1), F(1), F(0)),
            Mobius2(F(2), F(-1), F(1), F(3)),
        ]
        for _ in range(4):
            fm = random_map(rng)
            m = rng.choice(ms)
            gm = conjugate(fm, m)
            for n in (1, 2, 3):
                assert multiplier_polynomial(fm, n).sigma_star == multiplier_polynomial(gm, n).sigma_star

    def test_isotrivial_family_constant(self):
        t = RatFunc.t()
        fm = new_map(2, (t, 0, 0), (0, 0, 1))
        for n in (1, 2, 3, 4):
            sp = multiplier_polynomial(fm, n)
            assert all(s.is_constant() for s in sp.sigma_star)


class TestCharpolyFull:
    def test_power_map(self):
        chi1 = charpoly_multipliers_full(poly_map(1, 0, 0), 1)
        assert chi1 == Poly.from_ints([0, 0, -2, 1])
        chi2 = charpoly_multipliers_full(poly_map(1, 0, 0), 2)
        assert chi2 == Poly.from_ints([0, 0, 1]) * Poly.from_ints([-4, 1]) ** 3

    def test_basilica(self):
        chi = charpoly_multipliers_full(poly_map(1, 0, -1), 1)
        assert chi == Poly.from_ints([0, -4, -2, 1])

    def test_degree(self):
        rng = random.Random(3)
        fm = random_map(rng)
        for n in (1, 2, 3):
            assert charpoly_multipliers_full(fm, n).degree == 2**n + 1

    @pytest.mark.parametrize("fn", [charpoly_multipliers_full, lambda_point])
    @pytest.mark.parametrize("n", [0, -1])
    def test_period_below_one(self, fn, n):
        with pytest.raises(ValueError, match="period must be >= 1"):
            fn(poly_map(1, 0, F(1, 2)), n)


class TestLambdaPoints:
    def test_spec_examples(self):
        bas = poly_map(1, 0, -1)
        z2 = poly_map(1, 0, 0)
        assert lambda_tilde_point(bas, 2).coords == (F(0), F(0), F(1))
        assert lambda_tilde_point(z2, 2).coords == (F(16), F(8), F(1))
        assert lambda_tilde_point(bas, 1).coords == (F(0), F(-4), F(2), F(1))
        assert lambda_point(z2, 1).coords == (F(0), F(0), F(2), F(1))
        assert lambda_point(bas, 1).coords == (F(0), F(-4), F(2), F(1))

    def test_normalization(self):
        fm = poly_map(1, 0, F(1, 2))
        pt = lambda_tilde_point(fm, 1)
        ints = [c.numerator for c in pt.coords]
        assert all(c.denominator == 1 for c in pt.coords)
        from math import gcd

        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        assert g == 1

    def test_ff_point_clearing(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        pt = lambda_tilde_point(fm, 2)
        assert all(c.den.degree == 0 for c in pt.coords)
