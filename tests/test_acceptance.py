"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them
inline); any failure surfaces as an ordinary assertion error.
"""

import math
import random
from fractions import Fraction as F

import pytest

from dynlyap.algebra import RatFunc, divisors, period_count
from dynlyap.analysis import (
    crit_height_multiplier_estimate,
    crit_height_truncated_estimate,
    degeneration_slope,
    ff_degree_sequence,
    global_consistency,
)
from dynlyap.errors import DegenerateMap
from dynlyap.heights import canonical_height, critical_height_direct, map_height, point_of
from dynlyap.lyapunov import L_n_local, epsilon_radius, lyapunov_arch, lyapunov_nonarch_sequence
from dynlyap.maps import apply_map, fixed_point_divisor, new_map
from dynlyap.multipliers import (
    dynatomic_divisor,
    lambda_tilde_point,
    multiplier_polynomial,
)
from dynlyap.places import LocalLogValue, Place
from oracles import sigma_display_poly


def _passed(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def poly_map(*coeffs_desc):
    d = len(coeffs_desc) - 1
    return new_map(d, coeffs_desc, [0] * d + [1])


def sample_maps(seed: int, d: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cs = [F(rng.randint(-3, 3)) for _ in range(2 * d + 2)]
        try:
            out.append(new_map(d, cs[: d + 1], cs[d + 1 :]))
        except (DegenerateMap, ValueError):
            continue
    return out

MAPS_D2 = sample_maps(20240, 2, 20)
MAPS_D3 = sample_maps(20241, 3, 20)


def test_criterion_01_dynatomic_identity():
    """prod over m|n of Phi*_m = P_n, polynomial and infinity multiplicity."""
    for maps, n_top in ((MAPS_D2, 6), (MAPS_D3, 4)):
        for fm in maps:
            for n in range(1, n_top + 1):
                prod = None
                inf = 0
                for m in divisors(n):
                    dv = dynatomic_divisor(fm, m)
                    prod = dv.star_poly if prod is None else prod * dv.star_poly
                    inf += dv.star_mult_infinity
                fd = fixed_point_divisor(fm, n)
                assert prod == fd.affine_poly
                assert inf == fd.mult_infinity
    _passed("01 dynatomic-identity (40 random maps, exact)")


def test_criterion_02_multiplier_polynomial_structure():
    """deg p_{d,n} = d_n/n and p^n rebuilds the sigma* display, exactly."""
    for maps, n_top in ((MAPS_D2, 6), (MAPS_D3, 4)):
        for fm in maps:
            for n in range(1, n_top + 1):
                sp = multiplier_polynomial(fm, n)
                d_n = period_count(fm.d, n)
                assert d_n % n == 0
                assert sp.p_dn.degree == d_n // n
                assert sp.p_dn.lc() == 1
                q = sp.p_dn**n
                disp = sigma_display_poly(sp)
                assert disp == (q if d_n % 2 == 0 else -q)
    _passed("02 multiplier-polynomial-structure (same test set, exact)")


def test_criterion_03_power_map_closed_forms():
    """L(z^d)_v = log|d|_v at every place; product formula within 1e-10."""
    for d in (2, 3):
        fm = poly_map(*([1] + [0] * d))
        arch = lyapunov_arch(fm, 1e-9).value.to_float()[0]
        assert abs(arch - math.log(d)) < 1e-6
        padic_total = 0.0
        for p in (2, 3, 5):
            seq = lyapunov_nonarch_sequence(fm, Place.prime(p), 4)
            expected = F(-1) if d % p == 0 else F(0)
            assert all(e.value.q == expected for e in seq[1:])
            padic_total += float(seq[1].value.to_float()[0])
        assert abs(arch + padic_total) < 1e-10
    _passed("03 power-map-closed-forms (arch 1e-6, p-adic exact, product formula 1e-10)")


def test_criterion_04_basilica():
    bas = poly_map(1, 0, -1)
    assert lambda_tilde_point(bas, 2).coords == (F(0), F(0), F(1))
    est = crit_height_multiplier_estimate(bas, 2)
    assert est.value == 0.0 and est.exact == 0
    assert critical_height_direct(bas).exact == 0
    arch = lyapunov_arch(bas, 1e-9).value.to_float()[0]
    oracle = math.log(2) + _poly_escape_rate(-1.0)  # critical orbit is bounded
    assert abs(arch - oracle) < 1e-6
    _passed("04 basilica (exact points/heights, arch L within 1e-6 of escape-rate oracle)")


def test_criterion_05_function_field_z2_plus_t():
    t = RatFunc.t()
    fm = new_map(2, (1, 0, t), (0, 0, 1))
    rep = ff_degree_sequence(fm, 6)
    assert rep.entries[1].normalized == F(1, 2)  # = (d-1)/d for d = 2
    assert rep.h_crit.exact == F(1, 2)
    sp2 = multiplier_polynomial(fm, 2)
    assert sp2.sigma_star[2] == 16 * (t + 1) ** 2
    assert all(e.inequality_holds for e in rep.entries)
    _passed("05 function-field z^2+t (exact degrees, inequality true for n <= 6)")


def test_criterion_06_degeneration_slope():
    t = RatFunc.t()
    fm = new_map(2, (RatFunc.const(1), RatFunc.const(0), RatFunc.const(1) / t),
                 (0, 0, RatFunc.const(1)))
    rep = degeneration_slope(fm, Place.ff_point(0), 6)
    alphas = dict(rep.alphas)
    assert alphas[2] == F(1, 2)
    for n in (2, 4, 6):
        assert F(2, 5) <= alphas[n] <= F(3, 5)
    _passed("06 degeneration-slope z^2+1/t (alpha_2 = 1/2 exact, window [0.4, 0.6])")


def test_criterion_07_approximation_bound_self_consistency():
    """|L_n - L_m| <= bound(n) + bound(m), exact rational comparison, n,m <= 8."""
    for coeff, p in ((F(1, 2), 2), (F(1, 3), 3)):
        fm = poly_map(1, 0, coeff)
        seq = lyapunov_nonarch_sequence(fm, Place.prime(p), 8)
        for i in range(1, len(seq)):
            for j in range(i + 1, len(seq)):
                diff = (seq[i].value - seq[j].value).abs_value()
                allowance = seq[i].bound + seq[j].bound
                assert diff.is_exact() and allowance.is_exact()
                assert diff.leq(allowance), (coeff, p, seq[i].n, seq[j].n)
    _passed("07 approximation-bound self-consistency (z^2+1/2 at p=2, z^2+1/3 at p=3, n,m <= 8, exact)")


def test_criterion_08_canonical_heights():
    z2 = poly_map(1, 0, 0)
    h = canonical_height(z2, F(2), 1e-10)
    assert abs(h.value - math.log(2)) < 1e-9
    assert canonical_height(poly_map(1, 0, -1), F(0)).exact == 0
    tol = 1e-9
    rng = random.Random(808)
    test_maps = [z2, poly_map(1, 0, -1), poly_map(1, 0, F(1, 2)), new_map(2, (1, 0, 1), (0, 1, 0))]
    for k in range(20):
        fm = test_maps[k % len(test_maps)]
        x = F(rng.randint(-8, 8), rng.randint(1, 5))
        pt = point_of(x)
        fx = apply_map(fm, pt)
        h1 = canonical_height(fm, pt, tol / (2 * fm.d))
        h2 = canonical_height(fm, fx, tol / 2)
        assert abs(h2.value - fm.d * h1.value) <= 2 * tol
    _passed("08 canonical-heights (log 2 within 1e-9, exact 0, functional eq within 2 tol x20)")


def test_criterion_09_dual_path_archimedean():
    rng = random.Random(909)
    maps = []
    while len(maps) < 10:
        cs = [F(rng.randint(-3, 3)) for _ in range(6)]
        try:
            maps.append(new_map(2, cs[:3], cs[3:]))
        except (DegenerateMap, ValueError):
            continue
    for fm in maps:
        for n in (1, 2, 3, 4):
            packaged = L_n_local(fm, n, LocalLogValue.exact(0), Place.arch()).value.to_float()[0]
            direct = _direct_fixstar_average(fm, n)
            assert abs(packaged - direct) < 1e-6, (fm.lift.a, fm.lift.b, n)
    _passed("09 dual-path archimedean L_n (10 random maps, n <= 4, within 1e-6)")


def test_criterion_10_critical_height_convergence():
    # estimator = sum over places of the eps-truncated multiplier averages;
    # the r=1 naive-height route has a permanent +log 2 bias here (the local
    # exponent at p=2 is log|d|_2 < 0) and cannot converge to the oracle
    fm = poly_map(1, 0, 2)
    oracle = canonical_height(fm, F(0), 1e-11)  # h_crit: infinity contributes 0
    gap2 = abs(crit_height_truncated_estimate(fm, 2).value - oracle.value)
    gap8 = abs(crit_height_truncated_estimate(fm, 8).value - oracle.value)
    assert gap8 <= gap2 / 2, (gap2, gap8)
    _passed(f"10 critical-height-convergence z^2+2 (gap n=8 {gap8:.2e} <= half gap n=2 {gap2:.2e})")


def test_criterion_11_global_consistency():
    for fm in MAPS_D2:
        for n in (1, 2, 3, 4):
            assert global_consistency(fm, n) <= 1e-10
    _passed("11 global-consistency residual (20 random maps, n <= 4, 1e-10)")


# -- helpers ------------------------------------------------------------------

def _poly_escape_rate(c: float) -> float:
    z = 0j
    for k in range(1, 120):
        z = z * z + c
        if abs(z) > 1e120:
            return math.log(abs(z)) / 2**k
    return 0.0


def _direct_fixstar_average(fm, n):
    from dynlyap.maps import multiplier_rational_function
    from dynlyap.multipliers import _infinity_cycle_data
    from dynlyap.roots import aberth_roots

    div = dynatomic_divisor(fm, n)
    a1, b1 = multiplier_rational_function(fm, 1)
    num, den = fm.lift.poly0(), fm.lift.poly1()

    def ev(p, z):
        acc = 0j
        for c in reversed(p.coeffs):
            acc = acc * z + complex(c)
        return acc

    total = 0.0
    if div.star_poly.degree > 0:
        roots, _ = aberth_roots(list(div.star_poly.coeffs), 1e-13)
        for z0 in roots:
            lam = 1 + 0j
            z = z0
            for _ in range(n):
                lam *= ev(a1, z) / ev(b1, z)
                z = ev(num, z) / ev(den, z)
            total += math.log(max(1.0, abs(lam)))
    if div.star_mult_infinity:
        q, lam_q = _infinity_cycle_data(fm, n)
        lam = lam_q ** (n // q)
        total += div.star_mult_infinity * math.log(max(1.0, abs(float(lam))))
    return total / (n * period_count(fm.d, n))
