import cmath
import math
import random
from fractions import Fraction as F

import pytest

from dynlyap.algebra import Poly, RatFunc, squarefree_parts
from dynlyap.errors import ArchimedeanPlace, DegenerateMap
from dynlyap.lyapunov import (
    L_n_local,
    epsilon_radius,
    lipschitz_data,
    lyapunov_arch,
    lyapunov_nonarch_sequence,
    approximation_bound,
)
from dynlyap.maps import new_map
from dynlyap.maps import multiplier_rational_function
from dynlyap.multipliers import cycle_polynomial, dynatomic_divisor
from dynlyap.places import LocalLogValue, Place
from dynlyap.roots import aberth_roots
from oracles import L_n_local_finite


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


class TestAberth:
    def test_exact_zero_stripping(self):
        roots, errs = aberth_roots([F(0), F(0), F(1), F(1)])  # z^2(1+z)
        zero_count = sum(1 for r in roots if r == 0)
        assert zero_count == 2
        assert any(abs(r + 1) < 1e-10 for r in roots)

    def test_random_products(self):
        rng = random.Random(10)
        for _ in range(20):
            true_roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(2, 8))]
            coeffs = [1.0 + 0j]
            for r in true_roots:
                coeffs = [0j] + coeffs
                new = list(coeffs)
                for i in range(len(coeffs) - 1):
                    new[i] -= r * coeffs[i + 1]
                coeffs = new
            found, errs = aberth_roots(list(coeffs), 1e-13)
            found = sorted(found, key=lambda z: (z.real, z.imag))
            expect = sorted(true_roots, key=lambda z: (z.real, z.imag))
            for a, b in zip(found, expect):
                assert abs(a - b) < 1e-6


class TestEpsilonRadius:
    def test_spec_examples(self):
        e = epsilon_radius(Place.prime(2), 2, 1)
        assert e.log_eps.q == -2 and e.log_eps.base == 2
        assert epsilon_radius(Place.prime(5), 2, 1).log_eps.q == 0
        assert epsilon_radius(Place.ff_point(0), 3, 2).log_eps.q == 0
        assert epsilon_radius(Place.arch(), 2, 3).log_eps.q == 0

    def test_prime_formula(self):
        # log eps = -d^n * floor(log_p d^n) * log p
        e = epsilon_radius(Place.prime(3), 2, 3)  # d^n = 8, floor(log_3 8) = 1
        assert e.log_eps.q == -8
        e2 = epsilon_radius(Place.prime(2), 2, 3)  # floor(log_2 8) = 3
        assert e2.log_eps.q == -24


class TestLnLocal:
    def test_arch_power_map(self):
        est = L_n_local(poly_map(1, 0, 0), 2, LocalLogValue.exact(0), Place.arch())
        v, err = est.value.to_float()
        assert abs(v - math.log(2)) < 1e-9

    def test_arch_power_maps_repeated_roots(self):
        # p_{d,n}(z^d) = (T - d^n)^(d_n/n): Aberth sees only T - d^n
        for d, ns in ((2, (3, 4, 5, 6)), (3, (2, 3, 4, 5))):
            fm = poly_map(1, *[0] * d)
            for n in ns:
                v, err = L_n_local(fm, n, LocalLogValue.exact(0), Place.arch()).value.to_float()
                assert abs(v - math.log(d)) <= err < 1e-12, (d, n)

    def test_arch_squarefree_value_unchanged(self):
        # a squarefree p_{d,n} goes to Aberth whole, as before the split
        rng = random.Random(31)
        for d, n in ((2, 3), (3, 2), (2, 4)):
            fm = random_map(rng, d)
            p = cycle_polynomial(fm, n)
            assert squarefree_parts(p) == [(p, 1)]
            roots, errs = aberth_roots(list(p.coeffs))
            total = err = 0.0
            for root, rerr in zip(roots, errs):
                total += math.log(max(1.0, abs(root)))
                err += rerr / max(1.0, abs(root)) + 1e-15
            d_n = len(roots) * n
            want = LocalLogValue.from_float(total / d_n, err / d_n + 1e-14)
            assert L_n_local(fm, n, LocalLogValue.exact(0), Place.arch()).value == want

    def test_padic_power_map(self):
        v2 = Place.prime(2)
        est = L_n_local(poly_map(1, 0, 0), 2, epsilon_radius(v2, 2, 2).log_eps, v2)
        assert est.value.is_exact() and est.value.q == -1

    def test_finite_place_matches_q_n_oracle(self):
        # the Gauss norm of q_n = p_{d,n}^n, against the norm of p_{d,n}
        rng = random.Random(91)
        cases = []
        for d, n_max in ((2, 3), (2, 3), (3, 2), (2, 3)):
            fm = random_map(rng, d)
            for p in (2, 3, 5, 7):
                cases.append((fm, n_max, Place.prime(p), [F(-3, 2)]))
        t = RatFunc.t()
        for fm in (new_map(2, (1, 0, t), (0, 0, 1)),
                   new_map(2, (1, 0, (t * t - 1) / t), (0, 0, 1))):
            for v in (Place.ff_point(0), Place.ff_point(1), Place.ff_infinity()):
                cases.append((fm, 3, v, [-1]))
        for fm, n_max, v, qs in cases:
            for n in range(1, n_max + 1):
                radii = [epsilon_radius(v, fm.d, n).log_eps, LocalLogValue.exact(0)]
                radii += [LocalLogValue.exact(q, v.p) for q in qs]
                for r in radii:
                    want = L_n_local_finite(fm, n, r, v)
                    assert L_n_local(fm, n, r, v).value == want, (fm.d, v, n, r)

    @pytest.mark.parametrize("log_r", [
        LocalLogValue.from_float(-0.5, 1e-15),   # a float radius
        LocalLogValue.exact(-1, 3),              # a radius in units of log 3
        LocalLogValue.exact(F(1, 2), 2),         # r = sqrt(2) > 1
    ], ids=["float", "other-prime", "above-one"])
    def test_finite_place_radius_domain(self, log_r):
        with pytest.raises(ValueError):
            L_n_local(poly_map(1, 0, F(1, 2)), 2, log_r, Place.prime(2))

    def test_ff_vanishing_at_special_parameter(self):
        t = RatFunc.t()
        fm = new_map(2, (1, 0, t), (0, 0, 1))
        est = L_n_local(fm, 2, LocalLogValue.exact(0), Place.ff_point(-1))
        assert est.value.is_exact() and est.value.q == 0

    def test_monotone_in_radius(self):
        # L_n(f, r) nondecreasing in r: exact comparison over a radius grid
        v2 = Place.prime(2)
        fm = poly_map(1, 0, F(1, 2))
        for n in (1, 2, 3):
            eps = epsilon_radius(v2, 2, n).log_eps
            grid = [eps.scaled(2), eps, eps.scaled(F(1, 2)), LocalLogValue.exact(0)]
            vals = [L_n_local(fm, n, r, v2).value for r in grid]
            for a, b in zip(vals, vals[1:]):
                assert a.leq(b)

    def test_exactness_reproducible(self):
        fm = poly_map(1, 0, F(1, 3))
        v3 = Place.prime(3)
        r = epsilon_radius(v3, 2, 4).log_eps
        a = L_n_local(fm, 4, r, v3).value
        b = L_n_local(fm, 4, r, v3).value
        assert a.q == b.q and a.base == b.base


class TestNonarchSequences:
    def test_power_map_closed_form(self):
        seq = lyapunov_nonarch_sequence(poly_map(1, 0, 0), Place.prime(2), 5)
        assert [e.value.q for e in seq][1:] == [F(-1)] * 4
        seq3 = lyapunov_nonarch_sequence(poly_map(1, 0, 0), Place.prime(3), 4)
        assert all(e.value.q == 0 for e in seq3)

    def test_bounds_attached_and_nonnegative(self):
        seq = lyapunov_nonarch_sequence(poly_map(1, 0, F(1, 2)), Place.prime(2), 4)
        for e in seq:
            assert e.bound is not None and e.bound.q >= 0

    def test_arch_place_rejected(self):
        with pytest.raises(ArchimedeanPlace):
            lyapunov_nonarch_sequence(poly_map(1, 0, 0), Place.arch(), 3)


class TestApproximationBound:
    def test_good_reduction_vanishes(self):
        b = approximation_bound(poly_map(1, 0, 0), Place.prime(3), 2,
                            LocalLogValue.exact(0), LocalLogValue.exact(0))
        assert b.is_exact() and b.q == 0

    def test_explicit_value(self):
        # d=2, log|Res f|_2 = -4 log 2, sigma2(2)/d_2 = 5/2, r = eps = 2^-8
        fm = poly_map(1, 0, F(1, 2))
        v2 = Place.prime(2)
        b = approximation_bound(fm, v2, 2, epsilon_radius(v2, 2, 2).log_eps, LocalLogValue.exact(0))
        assert b.q == 8 * (F(11, 4) * 4 + 8) * F(5, 2)

    def test_scales_with_sigma2_over_dn(self):
        from dynlyap.algebra import period_count, sigma2

        fm = poly_map(1, 0, F(1, 2))
        v2 = Place.prime(2)
        zero = LocalLogValue.exact(0)
        surrogate = LocalLogValue.exact(0)
        vals = {}
        for n in (2, 3, 4):
            vals[n] = approximation_bound(fm, v2, n, zero, surrogate).q / F(sigma2(n), period_count(2, n))
        assert vals[2] == vals[3] == vals[4]


class TestLipschitz:
    def test_nonarch(self):
        assert lipschitz_data(poly_map(1, 0, 0), Place.prime(5)).log_m1.q == 0
        ld = lipschitz_data(poly_map(1, 0, F(1, 2)), Place.prime(2)).log_m1
        assert ld.q == 4 and ld.base == 2

    def test_arch_power_map(self):
        ld = lipschitz_data(poly_map(1, 0, 0), Place.arch()).log_m1
        v, err = ld.to_float()
        assert abs(v - math.log(2)) < 5e-3


class TestLyapunovArch:
    def test_power_map(self):
        est = lyapunov_arch(poly_map(1, 0, 0), 1e-9)
        v, err = est.value.to_float()
        assert abs(v - math.log(2)) < 1e-7

    def test_basilica_matches_escape_rate_oracle(self):
        est = lyapunov_arch(poly_map(1, 0, -1), 1e-9)
        v, err = est.value.to_float()
        # oracle: polynomial formula L = log d + sum over finite critical points
        # of the escape rate; the basilica critical orbit is bounded, so L = log 2.
        assert abs(v - math.log(2)) < 1e-7

    def test_escaping_critical_point(self):
        est = lyapunov_arch(poly_map(1, 0, 4), 1e-9)
        v, err = est.value.to_float()
        oracle = math.log(2) + _poly_escape_rate(4.0)
        assert abs(v - oracle) < 1e-6

    def test_rational_map_against_multiplier_trend(self):
        # sanity only: L_n at r=1 approaches the computed L for a rational map
        fm = new_map(2, (1, 0, 1), (0, 1, 0))  # (z^2+1)/z
        est = lyapunov_arch(fm, 1e-9)
        v, _ = est.value.to_float()
        l4 = L_n_local(fm, 5, LocalLogValue.exact(0), Place.arch()).value.to_float()[0]
        assert abs(v - l4) < 0.2


def _poly_escape_rate(c: float) -> float:
    z = 0j
    for k in range(1, 80):
        z = z * z + c
        if abs(z) > 1e120:
            return math.log(abs(z)) / 2**k
    return 0.0


class TestDualRouteArchimedean:
    def test_root_sum_vs_fixstar_sum(self):
        # independent oracle: locate Fix* points numerically, evaluate the
        # multiplier rational function at them, and average log max(r, |.|)
        rng = random.Random(7)
        for _ in range(6):
            fm = random_map(rng)
            for n in (1, 2, 3, 4):
                est = L_n_local(fm, n, LocalLogValue.exact(0), Place.arch())
                direct = _direct_fixstar_sum(fm, n)
                assert abs(est.value.to_float()[0] - direct) < 1e-6


def _direct_fixstar_sum(fm, n):
    """Numerically locate Fix*(f^n) and chain-rule the one-step derivative;
    evaluating the degree-(2 d^n) derivative polynomial directly would lose
    everything to cancellation."""
    div = dynatomic_divisor(fm, n)
    a1, b1 = multiplier_rational_function(fm, 1)
    num, den = fm.lift.poly0(), fm.lift.poly1()
    total = 0.0
    if div.star_poly.degree > 0:
        roots, _ = aberth_roots(list(div.star_poly.coeffs), 1e-13)
        for z0 in roots:
            lam = 1 + 0j
            z = z0
            for _ in range(n):
                lam *= _eval_c(a1, z) / _eval_c(b1, z)
                z = _eval_c(num, z) / _eval_c(den, z)
            total += math.log(max(1.0, abs(lam)))
    if div.star_mult_infinity:
        from dynlyap.multipliers import _infinity_cycle_data

        q, lam_q = _infinity_cycle_data(fm, n)
        lam = lam_q ** (n // q)
        total += div.star_mult_infinity * math.log(max(1.0, abs(float(lam))))
    from dynlyap.algebra import period_count

    return total / (n * period_count(fm.d, n))


def _eval_c(p, z):
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + complex(c.numerator) / complex(c.denominator)
    return acc
