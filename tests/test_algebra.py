import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlyap.algebra import (
    Poly,
    RatFunc,
    divisors,
    factor_int,
    is_prime,
    mobius,
    period_count,
    poly_exact_div,
    poly_gcd,
    poly_nth_root,
    poly_resultant,
    rational_roots,
    sigma2,
    squarefree_parts,
    sylvester_resultant,
)
from dynlyap.errors import NonExactDivision, NotAPerfectPower


def ip(*cs):
    return Poly.from_ints(cs)


class TestNumberTheory:
    def test_mobius(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(6) == 1
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_sigma2(self):
        assert sigma2(1) == 1
        assert sigma2(2) == 5
        assert sigma2(6) == 50

    def test_period_count(self):
        assert period_count(2, 1) == 3
        assert period_count(2, 2) == 2
        assert period_count(3, 2) == 6

    def test_mobius_inversion_identity(self):
        # sum over m | n of d_m recovers d^n + 1
        for d in (2, 3, 4):
            for n in range(1, 13):
                assert sum(period_count(d, m) for m in divisors(n)) == d**n + 1

    def test_primes(self):
        assert is_prime(2) and is_prime(2**31 - 1) and not is_prime(1)
        assert factor_int(600) == {2: 3, 3: 1, 5: 2}


class TestResultant:
    def test_spec_examples(self):
        assert poly_resultant(ip(-1, 1), ip(1, 1)) == F(-2)
        assert poly_resultant(ip(0, 0, 1), ip(0, 1)) == 0
        assert poly_resultant(ip(1, 0, 1), ip(-1, 0, 1)) == F(4)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            poly_resultant(Poly(), ip(1, 1))

    def test_matches_sylvester_determinant(self):
        rng = random.Random(7)
        for _ in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            p = Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] + [F(rng.randint(1, 4))])
            q = Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] + [F(rng.randint(1, 4))])
            assert poly_resultant(p, q) == sylvester_resultant(p, q)

    def test_antisymmetry(self):
        rng = random.Random(11)
        for _ in range(60):
            p = Poly([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))] + [F(rng.randint(1, 3))])
            q = Poly([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))] + [F(rng.randint(1, 3))])
            sign = (-1) ** (p.degree * q.degree)
            assert poly_resultant(p, q) == sign * poly_resultant(q, p)

    def test_over_function_field(self):
        t = RatFunc.t()
        one = RatFunc.const(1)
        p = Poly([t, one])
        q = Poly([-t, one])
        assert poly_resultant(p, q) == 2 * t


class TestExactDivision:
    def test_exact(self):
        assert poly_exact_div(ip(-1, 0, 1), ip(-1, 1)) == ip(1, 1)
        assert poly_exact_div(ip(0, 0, 0, 1), ip(0, 1)) == ip(0, 0, 1)

    def test_non_exact_raises(self):
        with pytest.raises(NonExactDivision):
            poly_exact_div(ip(1, 0, 1), ip(-1, 1))


class TestSquarefreeParts:
    def test_yun(self):
        p = ip(-1, 1) ** 3 * ip(2, 1) ** 2 * ip(-3, 1) * ip(1, 0, 1) ** 2 * F(5, 7)
        parts = squarefree_parts(p)
        assert parts == [(ip(-3, 1), 1), (ip(2, 1) * ip(1, 0, 1), 2), (ip(-1, 1), 3)]
        prod = Poly.const(p.lc())
        for a, i in parts:
            prod = prod * a**i
        assert prod == p
        assert squarefree_parts(ip(-1, 1) ** 5) == [(ip(-1, 1), 5)]

    def test_squarefree_input_returned_as_is(self):
        q = (1 << 61) - 1  # a leading coefficient q skips the modular test
        for p in (ip(1, 2, F(1, 3), 4), ip(1, 2, q), ip(-1, 0, q) * ip(3, 1)):
            parts = squarefree_parts(p)
            assert parts == [(p, 1)] and parts[0][0] is p
        assert squarefree_parts(ip(-1, 0, q) * ip(3, 1) ** 2) == [
            (ip(-1, 0, q).monic(), 1), (ip(3, 1), 2)]


class TestNthRoot:
    def test_spec_examples(self):
        assert poly_nth_root(ip(0, 0, 1), 2) == ip(0, 1)
        assert poly_nth_root(ip(1, 1) ** 3, 3) == ip(1, 1)
        with pytest.raises(NotAPerfectPower):
            poly_nth_root(ip(1, 0, 1), 2)

    def test_round_trip_random(self):
        rng = random.Random(19)
        for _ in range(40):
            k = rng.randint(1, 6)
            n = rng.choice([2, 3])
            p = Poly([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)] + [F(1)])
            assert poly_nth_root(p**n, n) == p

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, body, n):
        p = Poly([F(c) for c in body] + [F(1)])
        assert poly_nth_root(p**n, n) == p


class TestRatFunc:
    def test_normalization_invariants(self):
        t = RatFunc.t()
        g = (t**2) / (t - 1)
        assert g.den.lc() == 1
        assert poly_gcd(g.num, g.den).degree == 0
        assert g.ord_at(F(0)) == 2
        assert g.ord_at(F(1)) == -1
        assert g.ord_at_infinity() == -1
        # high-order zeros and poles at t = 0, next to factors that vanish elsewhere
        assert (t**9 * (t - 2) / ((t + 1) * t**4)).ord_at(F(0)) == 5
        assert (1 / (t**12 * (t * t + 3))).ord_at(F(0)) == -12
        assert (t**7 + t**20).ord_at(F(0)) == 7
        h = (t - 1) ** 6 / t**11
        assert (h.ord_at(F(0)), h.ord_at(F(1)), h.ord_at(F(2))) == (-11, 6, 0)
        assert RatFunc.const(F(-5, 3)).ord_at(F(0)) == 0

    def test_arithmetic_coprimality(self):
        rng = random.Random(3)
        t = RatFunc.t()
        vals = [t, t + 1, (t - 2) / (t + 3), RatFunc.const(F(5, 7))]
        for _ in range(50):
            a, b = rng.choice(vals), rng.choice(vals)
            c = rng.choice([a + b, a * b, a - b])
            if not c.is_zero():
                assert poly_gcd(c.num, c.den).degree == 0
                assert c.den.lc() == 1
            vals.append(c)

    def test_constant_detection(self):
        t = RatFunc.t()
        assert (t / t).is_constant()
        assert ((t + 1) * (t - 1) - t * t).as_fraction() == -1


class TestRationalRoots:
    def test_basic(self):
        p = ip(0, -2, 1, 1) * Poly([F(-1, 2), F(1)])  # z(z+2)(z-1)(z-1/2)
        roots, cof = rational_roots(p)
        assert cof.degree == 0
        assert sorted(roots) == [(F(-2), 1), (F(0), 1), (F(1, 2), 1), (F(1), 1)]

    def test_irreducible_cofactor(self):
        roots, cof = rational_roots(ip(1, 0, 1))
        assert roots == [] and cof.degree == 2

    def test_multiplicity(self):
        roots, _ = rational_roots(ip(-1, 1) ** 3)
        assert roots == [(F(1), 3)]
