import math
import random
from fractions import Fraction as F

import pytest

from dynlyap.algebra import RatFunc
from dynlyap.errors import FFPlaceOnRationalBase
from dynlyap.places import LocalLogValue, Place, gauss_log_norm, local_abs, log_max


class TestLocalAbs:
    def test_spec_examples(self):
        v = local_abs(F(12), Place.prime(2))
        assert v.is_exact() and v.q == -2 and v.base == 2
        t = RatFunc.t()
        g = (t * t) / (t - 1)
        w = local_abs(g, Place.ff_point(0))
        assert w.is_exact() and w.q == -2 and w.base is None
        a = local_abs(F(-3, 2), Place.arch())
        x, err = a.to_float()
        assert abs(x - math.log(1.5)) < 1e-14 and err < 1e-12

    def test_zero(self):
        assert local_abs(F(0), Place.prime(3)).is_neg_infinity()

    def test_constants_embed_in_ff(self):
        assert local_abs(F(5, 3), Place.ff_point(2)).q == 0
        assert local_abs(F(5, 3), Place.ff_infinity()).q == 0

    def test_base_mismatch(self):
        t = RatFunc.t()
        with pytest.raises(FFPlaceOnRationalBase):
            local_abs(t, Place.prime(2))
        with pytest.raises(FFPlaceOnRationalBase):
            local_abs(t, Place.arch())


class TestProductFormula:
    def test_rationals(self):
        rng = random.Random(31)
        for _ in range(50):
            x = F(rng.randint(1, 500) * rng.choice([-1, 1]), rng.randint(1, 500))
            support = set()
            for n in (abs(x.numerator), x.denominator):
                d = 2
                while d * d <= n:
                    if n % d == 0:
                        support.add(d)
                        while n % d == 0:
                            n //= d
                    d += 1
                if n > 1:
                    support.add(n)
            total = math.log(abs(x.numerator)) - math.log(x.denominator)
            for p in support:
                total += local_abs(x, Place.prime(p)).to_float()[0]
            assert abs(total) < 1e-10

    def test_function_field(self):
        t = RatFunc.t()
        g = (t**3 - t) / (t - 2) ** 2  # zeros 0, 1, -1; pole 2 (double); deg balance at inf
        places = [Place.ff_point(a) for a in (0, 1, -1, 2)] + [Place.ff_infinity()]
        total = sum(local_abs(g, v).q for v in places)
        assert total == 0


class TestLogValueAlgebra:
    def test_exact_arithmetic(self):
        a = LocalLogValue.exact(F(3, 2), 2)
        b = LocalLogValue.exact(F(-1, 2), 2)
        assert (a + b).q == 1
        assert (-a).q == F(-3, 2)
        assert a.scaled(F(2, 3)).q == 1
        assert a.abs_value().q == F(3, 2)

    def test_zero_is_base_agnostic(self):
        z = LocalLogValue.exact(0)
        a = LocalLogValue.exact(F(1), 5)
        assert (z + a).q == 1 and (z + a).base == 5

    def test_mixed_bases_rejected(self):
        a = LocalLogValue.exact(F(1), 2)
        b = LocalLogValue.exact(F(1), 3)
        with pytest.raises(ValueError):
            _ = a + b

    def test_max_and_comparison(self):
        vals = [LocalLogValue.exact(q, 2) for q in (F(-3), F(1, 2), F(0))]
        assert log_max(vals).q == F(1, 2)
        assert LocalLogValue.neg_infinity().leq(vals[0])

    def test_gauss_log_norm_matches_local_abs_max(self):
        # the integer max equals the max of the per-coefficient local logs
        rng = random.Random(7)
        t = RatFunc.t()
        cases = [(Place.prime(p), lambda: F(rng.randint(-40, 40), rng.randint(1, 40)),
                  [LocalLogValue.exact(0), LocalLogValue.exact(F(-2, 3), p)])
                 for p in (2, 3, 5)]
        cases.append((Place.ff_point(1), lambda: (t - 1) ** rng.randint(-2, 2) * rng.randint(0, 2),
                      [LocalLogValue.exact(0), LocalLogValue.exact(-1)]))
        for v, coeff, radii in cases:
            for _ in range(20):
                coeffs = [coeff() for _ in range(rng.randint(1, 6))] + [F(1)]
                for r in radii:
                    terms = [local_abs(c, v) + r.scaled(j) for j, c in enumerate(coeffs) if c]
                    assert gauss_log_norm(coeffs, v, r) == log_max(terms).scaled(1), (v, coeffs, r)

    def test_float_conversion(self):
        v = LocalLogValue.exact(F(-5, 3), 2)
        x, err = v.to_float()
        assert abs(x - (-5 / 3) * math.log(2)) < 1e-14
        assert err < 1e-14


class TestPlaceParsing:
    def test_valuations(self):
        assert Place.prime(3).valuation(F(18, 5)) == 2
        assert Place.prime(5).valuation(F(18, 5)) == -1
        t = RatFunc.t()
        assert Place.ff_point(1).valuation(t - 1) == 1
        assert Place.ff_infinity().valuation(t**3) == -3

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Place.prime(6)
