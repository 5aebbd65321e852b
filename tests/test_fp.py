"""The F_p kernel (``dynlyap.fp``) on its own: the extended Euclid in both
of its uses, interpolation, reconstruction, the CRT and the Barrett ring,
each against a direct computation."""

import math
import random
from fractions import Fraction as F

from dynlyap import fp

P = fp.engine_prime(0)
SMALL = 10007


def rand_poly(rng, n, p, monic=False):
    c = [rng.randrange(p) for _ in range(n)]
    if monic:
        c.append(1)
    else:
        c[-1] = rng.randrange(1, p)
    return c


def trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def rem(a, b, p):
    """a mod b over F_p by schoolbook long division."""
    r = a[:]
    inv = pow(b[-1], -1, p)
    for k in range(len(r) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv % p
        for j, y in enumerate(b):
            r[k + j] = (r[k + j] - c * y) % p
    return trim(r[: len(b) - 1])


def from_roots(roots, p):
    out = [1]
    for r in roots:
        out = fp.mul(out, [-r % p, 1], p)
    return out


def test_inverse_times_b_is_one():
    rng = random.Random(1)
    for p in (SMALL, P):
        for deg in (1, 2, 5, 13):
            phi = rand_poly(rng, deg, p, monic=True)
            for _ in range(5):
                b = trim(rand_poly(rng, deg, p))
                assert rem(fp.mul(fp.inverse(b, phi, p), b, p), phi, p) == [1]


def test_inverse_is_none_on_a_common_factor():
    rng = random.Random(2)
    for p in (SMALL, P):
        common = [rng.randrange(p), 1]
        phi = fp.mul(common, rand_poly(rng, 4, p, monic=True), p)
        b = fp.mul(common, rand_poly(rng, 2, p), p)
        assert fp.inverse(b, phi, p) is None
        assert fp.inverse([], phi, p) is None
        assert fp.inverse([5], phi, p) == [pow(5, -1, p)]


def test_euclid_stops_at_the_first_short_remainder():
    rng = random.Random(3)
    p = SMALL
    r0 = rand_poly(rng, 10, p, monic=True)
    r1 = rand_poly(rng, 10, p)
    for stop in range(1, 11):
        r, s = fp.euclid(r0, r1, stop, p)
        assert len(r) <= stop  # degree below stop
        assert rem(fp.mul(s, r1, p), r0, p) == r
    # a generic pair has a remainder of every degree, so the first one
    # below stop has degree stop - 1
    assert [len(fp.euclid(r0, r1, stop, p)[0]) for stop in range(1, 11)] == list(range(1, 11))


def interpolation_data(xs, p):
    invs = [None] + [[pow(x - y, -1, p) for x, y in zip(xs[j:], xs)] for j in range(1, len(xs))]
    vanish = [1]
    for x in xs:
        vanish = fp.mul(vanish, [-x % p, 1], p)
    return invs, vanish


def test_interpolate_reproduces_its_values():
    rng = random.Random(4)
    for p in (SMALL, P):
        for n in (1, 2, 7, 16):
            xs = rng.sample(range(1, 1000), n)
            ys = [rng.randrange(p) for _ in xs]
            invs, _ = interpolation_data(xs, p)
            u = fp.interpolate(xs, ys, invs, p)
            assert len(u) <= n
            assert [fp.horner(u, x, p) for x in xs] == ys


def test_cauchy_recovers_a_fraction_from_2k_points():
    rng = random.Random(5)
    for p in (SMALL, P):
        for k in (1, 2, 4, 7):
            num = rand_poly(rng, k, p)                  # degree k - 1
            den = rand_poly(rng, k, p, monic=True)      # degree k
            xs = [x for x in range(1, 4 * k + 10) if fp.horner(den, x, p)][: 2 * k]
            ys = [fp.horner(num, x, p) * pow(fp.horner(den, x, p), -1, p) % p for x in xs]
            invs, vanish = interpolation_data(xs, p)
            u = fp.interpolate(xs, ys, invs, p)
            assert fp.cauchy(xs, vanish, u, p) == (num, den)


def test_cauchy_past_its_degree_bounds():
    rng = random.Random(6)
    p = SMALL
    # a fraction of degrees (3, 3) needs 7 points; from 5 another one comes back
    num, den = rand_poly(rng, 4, p), rand_poly(rng, 3, p, monic=True)
    xs = [x for x in range(1, 40) if fp.horner(den, x, p)][:5]
    ys = [fp.horner(num, x, p) * pow(fp.horner(den, x, p), -1, p) % p for x in xs]
    invs, vanish = interpolation_data(xs, p)
    assert fp.cauchy(xs, vanish, fp.interpolate(xs, ys, invs, p), p) != (num, den)
    # -(t - 1)(t - 3) at 1, 2, 3 has degree 2, and three points allow a
    # numerator of degree < 2: the Euclid leaves 0 / (t - 2), with its pole
    # at a point, so there is no fraction
    xs = [1, 2, 3]
    invs, vanish = interpolation_data(xs, p)
    u = fp.interpolate(xs, [0, 1, 0], invs, p)
    assert fp.euclid(vanish, u, 2, p) == ([], [p - 2, 1])
    assert fp.cauchy(xs, vanish, u, p) is None


def test_rat_recon_within_and_past_wangs_bound():
    m = fp.engine_prime(0) * fp.engine_prime(1)
    for q in (F(0), F(5), F(-7, 3), F(2**80 + 1, 3**40), F(-(2**100), 2**120 + 1)):
        assert fp.rat_recon(q.numerator * pow(q.denominator, -1, m), m) == q
    big = F(2**200 + 1, 2**190 + 3)
    assert fp.rat_recon(big.numerator * pow(big.denominator, -1, m), m) != big
    # every residue mod a small m: the fraction within the bound when there
    # is one (it is unique), else None
    m = 1009
    bound = 22  # isqrt(m // 2)
    for u in range(m):
        want = {F(x, y) for y in range(1, bound + 1) for x in range(-bound, bound + 1)
                if (x - u * y) % m == 0 and math.gcd(x, y) == 1}
        assert len(want) <= 1
        assert fp.rat_recon(u, m) == (want.pop() if want else None)


def test_crt():
    rng = random.Random(7)
    primes = [fp.engine_prime(i) for i in range(4)]
    values = [rng.randrange(-(2**400), 2**400) for _ in range(6)]
    acc, m = [0] * len(values), 1
    for p in primes:
        acc = fp.crt(acc, m, [v % p for v in values], p)
        m *= p
        assert all(0 <= x < m for x in acc)
        assert acc == [v % m for v in values]


def test_quotient_mul_and_reduce_against_long_division():
    rng = random.Random(8)
    for p in (SMALL, P):
        for deg in (1, 2, 3, 8, 21):
            phi = rand_poly(rng, deg, p, monic=True)
            max_len = 3 * deg + 2
            ring = fp.Quotient(phi, p, max_len)
            for n in (1, deg, deg + 1, 2 * deg - 1, max_len):
                c = rand_poly(rng, n, p)
                assert trim(ring.reduce(c)) == rem(c, phi, p)
            a, b = (rem(rand_poly(rng, deg + 3, p), phi, p) for _ in range(2))
            assert trim(ring.mul(a, b)) == rem(fp.mul(a, b, p), phi, p)


def test_quotient_traces_on_a_split_phi():
    rng = random.Random(9)
    for p in (SMALL, P):
        for deg in (1, 2, 5, 12):
            roots = [rng.randrange(p) for _ in range(deg)]
            ring = fp.Quotient(from_roots(roots, p), p, 0)
            assert ring.traces == [sum(pow(r, i, p) for r in roots) % p
                                   for i in range(2 * deg - 1)]
            # Tr(w u) = sum over the roots of w(r) u(r)
            w, u = (rand_poly(rng, deg, p) for _ in range(2))
            want = sum(fp.horner(w, r, p) * fp.horner(u, r, p) for r in roots) % p
            assert ring.dot(ring.trace_form(w), u) == want
