"""Polynomial arithmetic over F_p for both spectrum engines.

Residues are integers in [0, p) and a polynomial is the list of its
residues, ascending.  The module holds

* the engine primes p = k 2^64 + 1 < 2^127, each proven prime by a Proth
  witness (``engine_prime``);
* the quotient ring F_p[z]/(phi) with Kronecker-packed products and
  Barrett remainders (``Quotient``).  ``multipliers._mod_div``, the one
  image of lambda = u / den of both engines, builds it, reduces u and den
  and divides there; the engine over Q then takes its traces in it;
* one extended Euclid (``euclid``).  Stopped at degree 0 it inverts
  modulo phi (``inverse``); stopped at a degree bound it is rational
  function reconstruction, which with interpolation makes Cauchy
  interpolation (``cauchy``; von zur Gathen and Gerhard, Modern Computer
  Algebra, 5.7);
* evaluation, Newton interpolation, Wang's rational number
  reconstruction and one step of the CRT over several primes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from operator import mul as _mul

from .algebra import _int_mul, _pack, _unpack, is_prime

PRIMES: list = []   # proven primes k 2^64 + 1 below 2^127, descending; filled on demand
PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def engine_prime(i: int) -> int:
    """The i-th prime p = k 2^64 + 1 with a Proth witness, counting k down
    from 2^63, so p < 2^127.

    Proth's theorem (k < 2^64): p is prime when a^((p-1)/2) = -1 mod p for
    some a.  Each kept p has such a witness among PROTH_BASES, so it is
    proven prime; Miller-Rabin only skips composites quickly.
    """
    while len(PRIMES) <= i:
        k = PRIMES[-1] >> 64 if PRIMES else 1 << 63
        while True:
            k -= 1
            p = (k << 64) + 1
            if is_prime(p) and any(pow(a, (p - 1) // 2, p) == p - 1 for a in PROTH_BASES):
                break
        PRIMES.append(p)
    return PRIMES[i]


class Quotient:
    """F_p[z]/(phi) for a monic phi of degree >= 1, on lists of residues.

    Products are Kronecker-packed into whole-byte slots (``_pack``) and
    remainders come from Barrett's method: for c of length deg + m, the
    reversed quotient is rev(c)_(<m) * rev(phi)^(-1) mod z^m, with the
    inverse series computed once by Newton iteration.  ``traces`` holds
    Tr(z^i), i < 2 deg - 1, formed on first use like ``unit_form``, since
    a ring that only divides needs neither: rev(phi) times their series is
    rev(phi'), of degree < deg, so the first deg are rev(phi') / rev(phi)
    mod z^deg and the next deg - 1 are -1 / rev(phi) times the coefficients
    deg .. 2 deg - 2 of rev(phi) times the first deg
    (``bivariate._ZtQuotient.traces``).

    Precision and slot width.  ``reduce`` takes inputs of up to max_len
    residues, and products of two reduced elements have 2 deg - 1, so the
    series is needed to precision max(deg, max_len - deg).  Every packed
    product multiplies two residue lists, one of them of at most
    max(deg + 1, max_len - deg) <= max_len entries (max_len > deg): its
    digits are below max_len p^2 and fit the slots without carries.
    """

    def __init__(self, phi: list, p: int, max_len: int):
        self.p = p
        self.phi = phi
        self.deg = deg = len(phi) - 1
        max_len = max(max_len, deg + 1)
        self.width = (2 * p.bit_length() + max_len.bit_length() + 7) // 8
        self.phi_low = self.pack(phi[:deg])
        self.inv = self._series_inverse(phi[::-1], max(max_len - deg, deg))
        self._inv_packed = {}
        self.one = [1]

    @cached_property
    def unit_form(self) -> list:
        """Tr(z^i), i < deg: rev(phi') / rev(phi) mod z^deg."""
        p, deg = self.p, self.deg
        dphi = [i * c % p for i, c in enumerate(self.phi)][1:]
        return self.digits(self.pack(dphi[::-1]) * self.pack(self.inv[:deg]), deg)

    @cached_property
    def traces(self) -> list:
        low, deg = self.unit_form, self.deg
        mid = self.digits((self.pack(self.phi[::-1]) * self.pack(low)) >> (8 * self.width * deg),
                          deg - 1)
        high = self.digits(self.pack(self.inv[: deg - 1]) * self.pack(mid), deg - 1)
        return low + [(-x) % self.p for x in high]

    @cached_property
    def _traces_packed(self) -> int:
        return self.pack(self.traces)

    def pack(self, coeffs: list) -> int:
        return _pack(coeffs, self.width)

    def digits(self, packed: int, keep: int) -> list:
        """The first ``keep`` coefficients of a packed product, mod p."""
        p = self.p
        low = packed & ((1 << (8 * self.width * keep)) - 1)
        return [c % p for c in _unpack(low, keep, self.width)]

    def _series_inverse(self, h: list, n: int) -> list:
        """1/h mod z^n for h[0] = 1, by Newton's iteration g <- g (2 - h g)."""
        p = self.p
        g = [1]
        prec = 1
        while prec < n:
            prec = min(2 * prec, n)
            e = [(-x) % p for x in self.digits(self.pack(h[:prec]) * self.pack(g), prec)]
            e[0] = (e[0] + 2) % p
            g = self.digits(self.pack(g) * self.pack(e), prec)
        return g

    def reduce(self, c: list) -> list:
        """c mod phi, for a residue list c of length at most max_len."""
        deg = self.deg
        m = len(c) - deg
        if m <= 0:
            return c
        inv = self._inv_packed.get(m)
        if inv is None:
            inv = self._inv_packed[m] = self.pack(self.inv[:m])
        rev_q = self.digits(self.pack(c[: deg - 1 : -1]) * inv, m)
        qphi = self.digits(self.pack(rev_q[::-1]) * self.phi_low, deg)
        p = self.p
        return [(x - y) % p for x, y in zip(c, qphi)]

    def mul(self, a: list, b: list) -> list:
        """a * b mod phi."""
        if not a or not b:
            return []
        return self.reduce(self.digits(self.pack(a) * self.pack(b), len(a) + len(b) - 1))

    def trace_form(self, u: list) -> list:
        """[Tr(u z^a) for a < deg] = [sum_b u_b Tr(z^(a+b))], the middle
        product of rev(u) and the traces; Tr(u v) is then its dot product with v."""
        deg = self.deg
        rev_u = (u + [0] * (deg - len(u)))[::-1]
        prod = self.pack(rev_u) * self._traces_packed
        return self.digits(prod >> (8 * self.width * (deg - 1)), deg)

    def dot(self, form: list, u: list) -> int:
        """Tr(w u) from form = trace_form(w)."""
        return sum(map(_mul, form, u)) % self.p


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def euclid(r0: list, r1: list, stop: int, p: int):
    """(r, s) over F_p: the first remainder r of degree below ``stop`` in
    the Euclidean algorithm on r0 and r1, and its cofactor s, with
    r = s r1 mod r0.  Each step's long division and cofactor update
    run on slices of the residue lists."""
    r0, r1 = _trim(list(r0)), _trim(list(r1))
    s0, s1 = [], [1]
    while len(r1) > stop:
        inv_lc = pow(r1[-1], -1, p)
        n1 = len(r1)
        r = r0[:]
        q = [0] * (len(r0) - n1 + 1)
        for k in range(len(r0) - n1, -1, -1):
            c = r[k + n1 - 1] * inv_lc % p
            if c:
                q[k] = c
                r[k : k + n1] = [(x - c * y) % p for x, y in zip(r[k : k + n1], r1)]
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
        n_s = len(s1)
        for k, c in enumerate(q):
            if c:
                s[k : k + n_s] = [(x - c * y) % p for x, y in zip(s[k : k + n_s], s1)]
        r0, r1 = r1, _trim(r[: n1 - 1])
        s0, s1 = s1, _trim(s)
    return r1, s1


def inverse(b: list, phi: list, p: int):
    """1 / b modulo (phi, p); None when b and phi share a factor."""
    r, s = euclid(phi, b, 1, p)
    if not r:
        return None
    inv_lc = pow(r[0], -1, p)
    return [c * inv_lc % p for c in s]


def horner(row: list, x: int, p: int) -> int:
    v = 0
    for c in reversed(row):
        v = (v * x + c) % p
    return v


def mul(a: list, b: list, p: int) -> list:
    return [c % p for c in _int_mul(a, b)]


def interpolate(xs: list, ys: list, invs: list, p: int) -> list:
    """The polynomial of degree < len(xs) through the values ys, by
    Newton's divided differences; invs[j][i] = 1 / (xs[i + j] - xs[i])."""
    c = list(ys)
    n = len(xs)
    for j in range(1, n):
        inv = invs[j]
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv[i - j] % p
    u = [c[-1]]
    for i in range(n - 2, -1, -1):  # u <- u (t - x_i) + c_i
        x = xs[i]
        u = [(lo - x * hi) % p for lo, hi in zip([c[i]] + u, u + [0])]
    return _trim(u)


def cauchy(xs: list, vanish: list, u: list, p: int):
    """(num, den) over F_p, den monic, with num / den = u at the points xs,
    deg num < k and deg den <= len(xs) - k for k = ceil(len(xs) / 2); None
    if there is no such fraction.  u is the interpolating polynomial of the
    values and vanish = prod (t - x); the fraction is the first remainder of
    their Euclid of degree below k, over its cofactor."""
    k = (len(xs) + 1) // 2
    num, den = euclid(vanish, u, k, p)
    if len(den) - 1 > len(xs) - k or any(horner(den, x, p) == 0 for x in xs):
        return None
    inv = pow(den[-1], -1, p)
    return [c * inv % p for c in num], [c * inv % p for c in den]


def rat_recon(u: int, m: int):
    """The fraction x / y = u mod m with |x|, y <= sqrt(m / 2), or None
    (Wang's rational number reconstruction)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def crt(acc: list, m: int, residues: list, p: int) -> list:
    """The residues mod m p that are acc mod m, for acc in [0, m), and
    residues mod p, for a prime p coprime to m."""
    inv = pow(m, -1, p)
    return [x + m * ((y - x) * inv % p) for x, y in zip(acc, residues)]
