"""Dynatomic divisors, multiplier polynomials and multiplier-map points.

The formal n-periodic divisor is cut out by the dynatomic polynomial
Phi*_n = prod_{m|n} P_m^{mu(n/m)} together with a multiplicity at infinity.
The multiplier data over it is extracted without ever locating periodic
points: the first d_n/n power sums of the multiplier multiset are traces
of powers of (f^n)' in the quotient ring k[z]/(Phi*_n), Newton's identities
convert them into the monic cycle polynomial p_{d,n}, and its n-th power
q_n recovers the full symmetric functions sigma*_{j,n}.  p_{d,n} is the
cached primary object (``cycle_polynomial``); q_n is built only for the
callers that read sigma*.  Everything is exact over the base field.

The spectrum runs on integer rows (``bivariate``) from the lift to the
traces, over Q and Q(t) alike: the iterates of a primitive integer lift G
in Z[t][z] (a map over Q is rows of t-degree 0), Phi*_n as the exact
quotient of the primitive parts of the P_m (``dynatomic_divisor``), and
the multiplier at a periodic infinity read off the coefficients of the
iterated lift (``_infinity_cycle_data``).  The Fraction or RatFunc
``star_poly`` is formed only when a caller reads it.

Over Q the power sums S_k come from a multi-modular engine
(``_modular_power_sums``).  For each prime p below 2^127 it reduces Phi*_n
and the rows of G^(n) mod p, forms lambda = (f^n)' = a / b in
F_p[z]/(Phi*_n) and takes the traces Tr(lambda^k) by baby and giant steps;
products are Kronecker-packed and reduced by Barrett's method.  The
per-place Lipschitz bound of the paper fixes how many primes are needed:
with R = |Res| of the primitive integer lift, |lambda|_p <= |R|_p^(-n) at
every prime and |lambda| <= Lip^n at infinity for a certified
Lip >= sup f^# (``lyapunov.chordal_lipschitz_bound``), so R^(nk) S_k is an
integer of absolute value at most deg Phi*_n (Lip R)^(nk).  The CRT over
primes whose product exceeds twice that bound returns it exactly, with no
rational reconstruction and no verification.

Over Q(t) the sums come from exact integer arithmetic in Q(t)[z]/(Phi*_n)
(``bivariate._ratfunc_power_sums``, ``bivariate._ZtQuotient``).  An element
is kept as U(t, z) / (c L(t)^e) with U in Z[t][z], c an integer and L the
primitive polynomial whose roots are the poles of the monic Phi*_n, that is
the roots of its leading coefficient; for the Laurent families L = t.  A
product is one integer product of nested Kronecker packings (t-slots
inside z-slots), remainders come from Barrett's method with the inverse
series of rev(Phi*_n), and each result sheds the integer content and the
power of L it shares with its denominator.  The traces Tr(lambda^k) use the
same baby and giant steps as the modular engine (``_trace_powers``), and
only the final S_k become elements of Q(t).  When den^2 is not constant in
z, lambda = a / b is formed on rows from its images mod (Phi*_n(t0), p)
at points t0 and engine primes p: Cauchy interpolation over F_p, rational
number reconstruction over the CRT of the primes, and an exact check
lambda b = a in the ring that makes the result exact by construction
(``_field_mod_div``, ``bivariate._row_mod_div``).  Newton's identities
over Q(t) run on integer rows over one denominator.  Both engines are tested
against the trace loop in k[z]/(Phi*_n) over the base field, and the rows
of Phi*_n against composition of lifts over the base field; both oracles
live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul as _mul

from .algebra import (
    Poly,
    RatFunc,
    _fp_poly_inv,
    _int_mul,
    _pack,
    _primitive_factor,
    _unpack,
    divisors,
    field_one,
    is_prime,
    mobius,
    period_count,
)
from .errors import NonExactDivision
from .maps import BASE_Q, RationalMap, primitive_lift


@dataclass(frozen=True)
class DynatomicDivisor:
    """Phi*_n and its multiplicity at infinity.

    ``rows`` is the primitive Phi*_n in Z[t][z]: integer t-coefficient rows,
    z ascending (t-degree 0 over Q).  ``star_poly``, the exact quotient
    prod_{m | n} P_m^mu(n/m) of the fixed-point polynomials of the map's own
    lift, is ``scale`` times the rows; it is formed on first read.
    """

    n: int
    rows: tuple
    star_mult_infinity: int
    scale: object  # Fraction or RatFunc

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @cached_property
    def star_poly(self) -> Poly:
        s = self.scale
        if isinstance(s, RatFunc):
            return Poly([RatFunc(Poly.from_ints(r) * s.num, s.den) for r in self.rows])
        return Poly([s * r[0] if r else s * 0 for r in self.rows])

    def total_degree(self) -> int:
        return self.degree + self.star_mult_infinity


@dataclass(frozen=True)
class MultiplierSpectrum:
    n: int
    d_n: int
    chi_full: Poly          # monic, prod over Fix(f^n) of (T - (f^n)'(z))
    p_dn: Poly              # monic, degree d_n / n
    sigma_star: tuple       # (sigma*_0 = 1, ..., sigma*_{d_n})


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple

    def __str__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def dynatomic_divisor(fmap: RationalMap, n: int) -> DynatomicDivisor:
    """Phi*_n as an exact Moebius quotient of the fixed-point divisors, on rows.

    P_m = F0 - z F1 for the iterates F = G^(m) of the primitive lift G is
    split into its content c_m in Z[t] and primitive part
    (``bivariate.fixed_rows``).  The product of the primitive parts with
    mu(n/m) = 1 is divided by the product of those with mu(n/m) = -1 in
    Z[t][z] (``bivariate._exact_quotient``), which leaves the primitive
    Phi*_n (Gauss's lemma).  The map's own lift is F = lam G and its
    iterates are lam^((d^m - 1)/(d - 1)) G^(m), so the quotient of its
    fixed-point polynomials is scale Phi*_n for
    scale = lam^E prod c_m^mu(n/m), E = sum mu(n/m) (d^m - 1)/(d - 1).
    """
    key = ("dynatomic", n)
    cached = fmap._iterates.get(key)
    if cached is not None:
        return cached
    # loaded on first use: starting the CLI and parsing maps never compile it
    from . import bivariate

    d = fmap.d
    num = den = None
    c_num, c_den = [1], [1]
    inf_mult = exp = 0
    for m in divisors(n):
        mu = mobius(n // m)
        if mu == 0:
            continue
        rows, content = bivariate.fixed_rows(fmap, m)
        inf_mult += mu * (d**m + 1 - (len(rows) - 1))  # fixed points of f^m at infinity
        exp += mu * (d**m - 1) // (d - 1)
        if mu == 1:
            num = rows if num is None else bivariate._mul_rows(num, rows)
            c_num = _int_mul(c_num, content)
        else:
            den = rows if den is None else bivariate._mul_rows(den, rows)
            c_den = _int_mul(c_den, content)
    star = num if den is None else bivariate._exact_quotient(num, den)
    if inf_mult < 0:
        raise NonExactDivision("negative multiplicity at infinity in dynatomic divisor")
    lam = bivariate.primitive_rows(fmap)[2]
    if fmap.base == BASE_Q:
        scale = lam**exp * Fraction(c_num[0], c_den[0])
    else:
        scale = lam**exp * RatFunc(Poly.from_ints(c_num), Poly.from_ints(c_den))
    div = DynatomicDivisor(n, tuple(map(tuple, star)), inf_mult, scale)
    if div.total_degree() != period_count(fmap.d, n):
        raise NonExactDivision(
            f"dynatomic degree {div.total_degree()} != d_n = {period_count(fmap.d, n)}"
        )
    fmap._iterates[key] = div
    return div


# ---------------------------------------------------------------------------
# Newton's identities
# ---------------------------------------------------------------------------

def power_sums_from_monic(p: Poly, count: int):
    """First ``count`` power sums of the root multiset of a monic polynomial."""
    deg = len(p.coeffs) - 1
    one = field_one(p.lc())
    elem = []
    for j in range(1, deg + 1):
        elem.append(p.coeffs[deg - j] * (-1 if j % 2 else 1))
    out = []
    for k in range(1, count + 1):
        acc = one * 0
        for i in range(1, min(k, deg) + 1):
            sign = 1 if (i - 1) % 2 == 0 else -1
            term = elem[i - 1] * (out[k - i - 1] if k - i >= 1 else k)
            acc = acc + (term if sign == 1 else -term)
        out.append(acc)
    return out


def monic_from_power_sums(psums, degree: int, one) -> Poly:
    """Monic polynomial of the given degree with the given first power sums.
    Over Q(t) the identities run on integer rows over one denominator
    (``bivariate._monic_from_power_sums``)."""
    if isinstance(one, RatFunc):
        from . import bivariate

        return bivariate._monic_from_power_sums(psums, degree)
    elem = [one]
    for k in range(1, degree + 1):
        acc = one * 0
        for i in range(1, k):
            sign = 1 if (i - 1) % 2 == 0 else -1
            term = elem[k - i] * psums[i - 1]
            acc = acc + (term if sign == 1 else -term)
        tail = psums[k - 1] if (k - 1) % 2 == 0 else -psums[k - 1]
        elem.append((acc + tail) / k)
    coeffs = [one * 0] * (degree + 1)
    for j in range(degree + 1):
        coeffs[degree - j] = elem[j] * (-1 if j % 2 else 1)
    return Poly(coeffs)


def power_roots_poly(p: Poly, s: int) -> Poly:
    """Monic polynomial whose roots are the s-th powers of the roots of p."""
    if s == 1:
        return p
    deg = len(p.coeffs) - 1
    one = field_one(p.lc())
    if deg == 0:
        return p
    ps = power_sums_from_monic(p, s * deg)
    return monic_from_power_sums([ps[s * k - 1] for k in range(1, deg + 1)], deg, one)


# ---------------------------------------------------------------------------
# multi-modular trace engine over Q
# ---------------------------------------------------------------------------

_PRIMES: list = []        # proven primes k 2^64 + 1 below 2^127, descending; filled on demand
_PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MAX_BAD_PRIMES = 32      # primes at which Den^2 is no unit before giving up


def _engine_prime(i: int) -> int:
    """The i-th prime p = k 2^64 + 1 with a Proth witness, counting k down
    from 2^63, so p < 2^127.

    Proth's theorem (k < 2^64): p is prime when a^((p-1)/2) = -1 mod p for
    some a.  Each kept p has such a witness among _PROTH_BASES, so it is
    proven prime; Miller-Rabin only skips composites quickly.
    """
    while len(_PRIMES) <= i:
        k = _PRIMES[-1] >> 64 if _PRIMES else 1 << 63
        while True:
            k -= 1
            p = (k << 64) + 1
            if is_prime(p) and any(pow(a, (p - 1) // 2, p) == p - 1 for a in _PROTH_BASES):
                break
        _PRIMES.append(p)
    return _PRIMES[i]


class _FpQuotient:
    """F_p[z]/(phi) for a monic phi of degree >= 1, on lists of residues.

    Products are Kronecker-packed into whole-byte slots (``_pack``) and
    remainders come from Barrett's method: for c of length deg + m, the
    reversed quotient is rev(c)_(<m) * rev(phi)^(-1) mod z^m, with the
    inverse series computed once by Newton iteration.  ``traces`` holds
    Tr(z^i), i < 2 deg - 1, read off rev(phi') / rev(phi).
    """

    def __init__(self, phi: list, p: int, max_len: int):
        self.p = p
        self.phi = phi
        self.deg = deg = len(phi) - 1
        # a sum of two products of length <= max_len has digits < 2 max_len p^2
        self.width = (2 * p.bit_length() + (2 * max_len).bit_length() + 7) // 8
        self.phi_low = self.pack(phi[:deg])
        self.inv = self._series_inverse(phi[::-1], max(max_len - deg, 2 * deg - 1))
        self._inv_packed = {}
        dphi = [i * c % p for i, c in enumerate(phi)][1:]
        self.traces = self.digits(self.pack(dphi[::-1]) * self.pack(self.inv), 2 * deg - 1)
        self._traces_packed = self.pack(self.traces)
        self.one = [1]
        self.unit_form = self.traces[:deg]

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


def _mod_div(a: list, b: list, ring: _FpQuotient):
    """lambda = a / b in F_p[z]/(phi); None if b is not a unit there."""
    inv = _fp_poly_inv(b, ring.phi, ring.p)
    if inv is None:
        return None
    return ring.mul(a, inv)


def _power_sums_mod_p(phi_int: list, phi_lc: int, num: list, den: list, count: int, p: int):
    """Tr(lambda^k) mod p for k = 1..count, lambda = (num' den - num den') / den^2
    in F_p[z]/(phi_int / phi_lc); None if den^2 is not a unit there."""
    inv_lc = pow(phi_lc, -1, p)
    ring = _FpQuotient([c * inv_lc % p for c in phi_int], p, 2 * max(len(num), len(den)))
    num = [c % p for c in num]
    den = [c % p for c in den]
    dnum = [i * c % p for i, c in enumerate(num)][1:]
    neg_dden = [(-i * c) % p for i, c in enumerate(den)][1:]
    pack = ring.pack
    a_len = max(len(num) + len(den) - 2, 0)
    a = ring.reduce(ring.digits(pack(dnum) * pack(den) + pack(num) * pack(neg_dden), a_len))
    b = ring.reduce(ring.digits(pack(den) * pack(den), 2 * len(den) - 1))
    lam = _mod_div(a, b, ring)
    if lam is None:
        return None
    return _trace_powers(ring, lam, count)


def _trace_powers(ring, lam, count: int) -> list:
    """[Tr(lambda^k) for k = 1..count] in a quotient ring (_FpQuotient or
    _ZtQuotient), by baby steps lambda^i, i <= m, and giant steps G^j,
    j <= J, with G = lambda^m: Tr(lambda^(jm+i)) is the trace form of G^j
    against lambda^i.  m and J minimize the cost of the m - 1 + max(J - 1, 0)
    ring products (three packed products each) and J trace forms (one
    each) subject to (J + 1) m >= count: about 2 sqrt(count) products."""
    m, jmax = min(((m, -(-count // m) - 1) for m in range(1, count + 1)),
                  key=lambda mj: 3 * (mj[0] - 1 + max(mj[1] - 1, 0)) + mj[1])
    powers = [ring.one, lam]
    while len(powers) <= m:
        powers.append(ring.mul(powers[-1], lam))
    forms = [ring.unit_form]
    giant = powers[m]
    for j in range(1, jmax + 1):
        if j > 1:
            giant = ring.mul(giant, powers[m])
        forms.append(ring.trace_form(giant))
    out = []
    for k in range(1, count + 1):
        j = min(k // m, jmax)
        out.append(ring.dot(forms[j], powers[k - j * m]))
    return out


def _arch_lipschitz(fmap: RationalMap) -> Fraction:
    """Certified sup of f^# over P^1(C), cached on the map."""
    from .lyapunov import chordal_lipschitz_bound  # lyapunov imports this module

    key = ("arch_lipschitz", 1)
    lip = fmap._iterates.get(key)
    if lip is None:
        lip = fmap._iterates[key] = chordal_lipschitz_bound(fmap.lift, fmap.resultant)
    return lip


def _modular_power_sums(fmap: RationalMap, n: int, phi_int: list, count: int) -> list:
    """Exact S_k = sum over the roots beta of Phi*_n of lambda(beta)^k, k = 1..count,
    for a map over Q, by CRT over primes below 2^127.  phi_int holds the
    integer coefficients of Phi*_n, and f^n is read off the rows of the
    iterated primitive lift (``bivariate.lift_rows``).

    Bound.  Let R = |Res| of the primitive integer lift F of f.
      * Finite places: for ||P||_p = 1, Euler's identity gives
        det DF(P) / d = F1(P) dF0/dx(P) - F0(P) dF1/dx(P) after a GL_2(Z_p)
        change of coordinates moving P to (0, 1), so |det DF(P) / d|_p
        <= ||F(P)||_p and f^#(P) = |det DF(P) / d|_p / ||F(P)||_p^2
        <= 1 / ||F(P)||_p <= |R|_p^(-1), the last step by the Bezout
        identity with integral cofactors.  By the chain rule along the
        cycle, |lambda(beta)|_p = (f^n)^#(beta) <= |R|_p^(-n) at every p,
        so R^n lambda(beta) is an algebraic integer and T_k = R^(nk) S_k
        is a rational integer.
      * Archimedean place: likewise |lambda(beta)| <= Lip^n for any
        Lip >= sup f^# (``chordal_lipschitz_bound``), hence
        |T_k| <= deg Phi*_n (Lip R)^(nk).
    Residues of T_k modulo primes p that divide neither R nor the leading
    coefficient of Phi*_n are combined until their product M
    exceeds twice that bound; the symmetric residue mod M is then T_k
    itself, and S_k = T_k / R^(nk) is exact by construction.
    """
    from . import bivariate

    phi_lc = phi_int[-1]
    num, den = ([r[0] if r else 0 for r in rows] for rows in bivariate.lift_rows(fmap, n))
    res = primitive_lift(fmap).res
    growth = _arch_lipschitz(fmap) * res
    bound = (len(phi_int) - 1) * max(growth**n, growth ** (n * count))
    modulus = 1
    residues = [0] * count
    i = bad = 0
    while modulus <= 2 * bound:
        p = _engine_prime(i)
        i += 1
        if phi_lc % p == 0 or res % p == 0:
            continue
        sums = _power_sums_mod_p(phi_int, phi_lc, num, den, count, p)
        if sums is None:
            bad += 1
            if bad > _MAX_BAD_PRIMES:
                raise NonExactDivision(
                    "derivative denominator shares a root with the dynatomic polynomial"
                )
            continue
        res_n = pow(res, n, p)
        scale = 1
        inv_m = pow(modulus, -1, p)
        for k, s in enumerate(sums):
            scale = scale * res_n % p
            x = residues[k]
            residues[k] = x + modulus * ((s * scale - x) * inv_m % p)
        modulus *= p
    out = []
    half = modulus // 2
    res_n = res**n
    scale = 1
    for x in residues:
        scale *= res_n
        out.append(Fraction(x - modulus if x > half else x, scale))
    return out


def _field_mod_div(ring, phi: list, a, b):
    """lambda = a / b in Q(t)[z]/(Phi*_n) on integer rows, as (rows, den)
    with den the lcm of the denominators of the coefficients in lowest
    terms; a and b are elements (rows, c, e) of ``ring`` and phi the
    primitive rows of Phi*_n.  From F_p images, rational reconstruction
    and an exact check (``bivariate._row_mod_div``); the division keeps
    this name because ``perfbench/tracing.py`` times it by name."""
    from . import bivariate

    return bivariate._row_mod_div(ring, phi, a, b)


def _multiplier_power_sums(fmap: RationalMap, n: int, div: DynatomicDivisor, count: int, one):
    """Power sums sum_{Phi*_n(beta)=0} lambda(beta)^k, k = 1..count,
    lambda = (f^n)', from the rows of ``div``."""
    if count == 0:
        return []
    if div.degree <= 0:
        return [one * 0] * count
    if fmap.base == BASE_Q:
        return _modular_power_sums(fmap, n, [r[0] if r else 0 for r in div.rows], count)
    from . import bivariate

    return bivariate._ratfunc_power_sums(fmap, n, div.rows, count)


def _infinity_cycle_data(fmap: RationalMap, n: int):
    """(exact period q, multiplier of f^q at infinity) if infinity is
    periodic with q <= n, else (None, None), read off the iterated lift.

    F^(q)(1, 0) = (a_0, b_0), the coefficients of z^(d^q) in F0 and F1, so
    f^q fixes infinity exactly when b_0 = 0.  In the chart u = 1/z,
    f^q(u) = (b_0 + b_1 u + ...) / (a_0 + a_1 u + ...), whose derivative at
    u = 0 is b_1 / a_0 once b_0 = 0; b_1 is the coefficient of z^(d^q - 1)
    in F1.
    """
    from . import bivariate

    for q in range(1, n + 1):
        f0, f1 = bivariate.lift_rows(fmap, q)
        top = fmap.d**q
        if len(f1) <= top:
            a0, b1 = f0[top], f1[top - 1] if len(f1) == top else ()
            if fmap.base == BASE_Q:
                return q, Fraction(b1[0] if b1 else 0, a0[0])
            return q, RatFunc(Poly.from_ints(b1), Poly.from_ints(a0))
    return None, None


def cycle_polynomial(fmap: RationalMap, n: int) -> Poly:
    """Monic p_{d,n} = prod over the formal n-cycles of (T - lambda), of
    degree d_n / n, via power-sum traces and Newton's identities; cached.

    It is the primary object of the spectrum: q_n = p_{d,n}^n
    (``fixstar_multiplier_charpoly``) is formed only when a caller reads the
    symmetric functions sigma*.  Over Q(t) every place is non-archimedean,
    so the Gauss norms of q_n are the n-th powers of those of p_{d,n}, and
    the heights and valuations of sigma* are read off p_{d,n} directly
    (``analysis.ff_degree_sequence``, ``analysis.degeneration_slope``).
    """
    key = ("p_dn", n)
    cached = fmap._iterates.get(key)
    if cached is not None:
        return cached
    div = dynatomic_divisor(fmap, n)
    d_n = period_count(fmap.d, n)
    if d_n % n:
        raise NonExactDivision(f"d_n = {d_n} not divisible by n = {n}")
    k_cycles = d_n // n
    one = field_one(fmap.resultant)
    sums = _multiplier_power_sums(fmap, n, div, k_cycles, one)
    if div.star_mult_infinity:
        q, lam_q = _infinity_cycle_data(fmap, n)
        if q is None or n % q:
            raise NonExactDivision("infinity multiplicity without a periodic infinity")
        lam_inf = lam_q ** (n // q)
        power = lam_inf
        for k in range(k_cycles):
            sums[k] = sums[k] + div.star_mult_infinity * power
            power = power * lam_inf
    p_dn = monic_from_power_sums([s / n for s in sums], k_cycles, one)
    fmap._iterates[key] = p_dn
    return p_dn


def fixstar_multiplier_charpoly(fmap: RationalMap, n: int) -> Poly:
    """Monic q_n = prod over Fix*(f^n) of (T - (f^n)'(z)) = p_{d,n}^n, of
    degree d_n; cached."""
    key = ("fixstar_charpoly", n)
    cached = fmap._iterates.get(key)
    if cached is not None:
        return cached
    p_dn = cycle_polynomial(fmap, n)
    if fmap.base == BASE_Q:
        q_n = p_dn**n
    else:
        from . import bivariate

        q_n = bivariate._ratfunc_poly_power(p_dn, n)
    fmap._iterates[key] = q_n
    return q_n


# ---------------------------------------------------------------------------
# public spectrum operations
# ---------------------------------------------------------------------------

def multiplier_polynomial(fmap: RationalMap, n: int) -> MultiplierSpectrum:
    """Exact multiplier spectrum at period n: p_{d,n}, sigma*, chi_n."""
    sigma = sigma_star(fmap, n)
    chi = charpoly_multipliers_full(fmap, n)
    return MultiplierSpectrum(n, len(sigma) - 1, chi, cycle_polynomial(fmap, n), sigma)


def sigma_star(fmap: RationalMap, n: int) -> tuple:
    """(sigma*_{0,n} = 1, ..., sigma*_{d_n,n}), the symmetric functions of
    the formal period-n multipliers, without building chi_n."""
    return tuple(_elementary_symmetric(fixstar_multiplier_charpoly(fmap, n)))


def _elementary_symmetric(charpoly: Poly) -> list:
    """[sigma_0 = 1, ..., sigma_deg] of the roots of a monic polynomial."""
    deg = charpoly.degree
    one = field_one(charpoly.lc())
    sigma = []
    for j in range(deg + 1):
        c = charpoly[deg - j] * one
        sigma.append(c if j % 2 == 0 else -c)
    return sigma


def charpoly_multipliers_full(fmap: RationalMap, n: int) -> Poly:
    """Monic chi_n(T) = prod over Fix(f^n) of (T - (f^n)'(z)), degree d^n + 1.

    Assembled from the formal-period charpolys: a point of exact formal
    period m contributes its f^m-multiplier raised to the n/m power.
    """
    key = ("chi_full", n)
    chi = fmap._iterates.get(key)
    if chi is not None:
        return chi
    for m in divisors(n):
        q_m = fixstar_multiplier_charpoly(fmap, m)
        factor = power_roots_poly(q_m, n // m)
        chi = factor if chi is None else chi * factor
    if len(chi.coeffs) - 1 != fmap.d**n + 1:
        raise NonExactDivision("full multiplier charpoly has wrong degree")
    fmap._iterates[key] = chi
    return chi


def sigma_display_poly(spectrum: MultiplierSpectrum) -> Poly:
    """sum_j sigma*_j (-T)^(d_n - j): the sign-flipped product over Fix*."""
    d_n = spectrum.d_n
    coeffs = [spectrum.sigma_star[d_n - k] * (-1 if k % 2 else 1) for k in range(d_n + 1)]
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# multiplier-map points
# ---------------------------------------------------------------------------

def _normalize_proj(coords) -> tuple:
    """Projective coordinates over Q as coprime integers, over Q(t) as coprime
    polynomials with coprime integer coefficients; the last nonzero
    coordinate has a positive leading coefficient."""
    vals = list(coords)
    if all(isinstance(c, (int, Fraction)) for c in vals):
        vals = [Fraction(c) for c in vals]
        s = _primitive_factor(vals)
        return tuple(c * s for c in vals)
    from . import bivariate

    rows, _ = bivariate._clear_rows(vals)
    rows = bivariate._divide_content(rows, bivariate._zt_content(rows))
    if next(r for r in reversed(rows) if r)[-1] < 0:
        rows = [[-x for x in r] for r in rows]
    one = Poly((Fraction(1),))
    return tuple(RatFunc(Poly.from_ints(r), one, _normalized=True) for r in rows)


def lambda_tilde_point(fmap: RationalMap, n: int) -> ProjPoint:
    """[sigma*_{d_n} : ... : sigma*_1 : 1], normalized coordinates."""
    sigma = _elementary_symmetric(fixstar_multiplier_charpoly(fmap, n))
    return ProjPoint(_normalize_proj(sigma[::-1]))


def lambda_point(fmap: RationalMap, n: int) -> ProjPoint:
    """[sigma_{d^n+1} : ... : sigma_1 : 1] over the full Fix(f^n)."""
    sigma = _elementary_symmetric(charpoly_multipliers_full(fmap, n))
    return ProjPoint(_normalize_proj(sigma[::-1]))
