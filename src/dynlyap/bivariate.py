"""Exact arithmetic in Q(t)[z] and Q(t)[z]/(phi) on integer rows, and the
boundary between rows and the base field for Q and Q(t).

An element of Z[t][z] is a list of integer t-coefficient rows, one per
power of z; a map over Q is rows of t-degree 0.  The multiplier spectrum
runs on such rows from start to end:

* the lift.  ``primitive_rows`` holds a primitive integer lift G of f, and
  ``lift_rows`` iterates it, G^(n) = G o G^(n-1), with packed products
  (``_bi_dot``), each iterate computed once per map.  ``_compose_rows`` is
  the one composition of lifts: ``maps.iterate_lift``, ``maps._compose``
  and ``maps.conjugate`` run on it too, and ``_lift_from_rows`` turns
  rows times a scale back into a ``HomLift``;
* Phi*_n.  ``fixed_rows`` splits P_m = G0^(m) - z G1^(m) into its content
  and primitive part, and ``multipliers.dynatomic_divisor`` divides the
  product of the primitive parts with mu(n/m) = 1 by that of those with
  mu(n/m) = -1 in one packed integer division (``_exact_quotient``), so
  Phi*_n = prod_{m | n} P_m^mu(n/m) comes out primitive (Gauss's lemma);
* the traces.  For f^n = num / den, both engines take the multiplier as
  lambda = (num' - z den') / den, which holds modulo Phi*_n because
  Phi*_n divides num - z den, with the numerator from
  ``lambda_numerator``.  ``_ratfunc_power_sums`` takes Phi*_n and the rows
  of G^(n) straight into the quotient ring ``_ZtQuotient``; over Q the
  modular engine (``multipliers._modular_power_sums``) reads the same
  rows.  When den is not constant in z, ``_row_mod_div`` forms lambda
  from F_p images at points t0, Cauchy interpolation, rational number
  reconstruction and an exact check in the ring, with the F_p arithmetic
  of ``fp``;
* Newton's identities.  ``_monic_from_power_sums`` turns the power sums
  into p_{d,n} on integer rows over one denominator, and ``_poly_power``
  forms q_n = p_{d,n}^n, over Q as over Q(t).

Elements of Q and Q(t) become rows in one way: ``_clear_rows`` writes them
as integer rows over one den in Z[t], the lcm of their denominators (rows
of t-degree 0 over one integer for Q).  The lift, q_n, the power sums of
Newton's identities, ``multipliers._normalize_proj`` and
``heights.bad_places`` all clear through it.  Rows become elements of the
base field in one way, ``_field``: a Fraction over Q, a RatFunc over Q(t);
``_scaled_values`` takes rows times a scale there.

In the ring an element is held as U(t, z) / (c L(t)^e): U in Z[t][z], c a
positive integer, and L a primitive polynomial of Z[t] whose powers, times
integers, clear every denominator met.  A product of two elements is one
big-integer product of nested Kronecker packings (t-slots inside z-slots,
``_pack_rows``), and each result sheds the integer content and the power
of L it shares with its denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, count, islice
from math import gcd as _gcd, prod

from . import fp, multipliers
from .algebra import (
    Poly,
    RatFunc,
    _clear_fractions,
    _int_content,
    _half_offset,
    _int_mul,
    _pack,
    _unpack,
    poly_exact_div,
    poly_gcd,
)
from .errors import DegenerateMap, NonExactDivision
from .maps import BASE_Q, HomLift, RationalMap, per_map


def _signed_digits(packed: int, start: int, n: int, width: int) -> list[int]:
    """Digits start..start+n-1 of a packed signed sequence; the others are
    dropped, so unlike algebra._unpack_signed this does not check the length."""
    half = 1 << (8 * width - 1)
    packed = (packed + _half_offset(start + n, width)) >> (8 * width * start)
    return [c - half for c in _unpack(packed & ((1 << (8 * width * n)) - 1), n, width)]


def _pack_rows(rows: list, stride: int, width: int) -> int:
    """Nested Kronecker packing of an element of Z[t][z]: rows[i][j], the
    coefficient of z^i t^j, goes to slot i * stride + j."""
    flat = []
    pad = [0] * stride
    for r in rows:
        flat += r
        flat += pad[len(r):]
    return _pack(flat, width)


def _unpack_rows(packed: int, start: int, n: int, stride: int, width: int) -> list:
    """Rows start..start+n-1 of a packed sum of _pack_rows products, each
    with its trailing zeros trimmed."""
    flat = _signed_digits(packed, start * stride, n * stride, width)
    rows = []
    for i in range(0, n * stride, stride):
        r = flat[i : i + stride]
        while r and not r[-1]:
            r.pop()
        rows.append(r)
    return rows


def _row_bits(rows: list) -> int:
    return max((max(max(r), -min(r)) for r in rows if r), default=0).bit_length()


def _bi_dot(pairs, start: int, keep: int) -> list:
    """Rows start..start+keep-1 of sum a b over pairs of elements of Z[t][z]
    (lists of t-coefficient rows, z ascending): one packed product per pair."""
    stride = bits = terms = 0
    live = []
    for a, b in pairs:
        ta = max(map(len, a), default=0)
        tb = max(map(len, b), default=0)
        if ta and tb:
            live.append((a, b))
            stride = max(stride, ta + tb - 1)
            bits = max(bits, _row_bits(a) + _row_bits(b))
            terms += min(len(a), len(b)) * min(ta, tb)
    if not live:
        return [[] for _ in range(keep)]
    width = (bits + terms.bit_length() + 8) // 8
    total = sum(_pack_rows(a, stride, width) * _pack_rows(b, stride, width) for a, b in live)
    return _unpack_rows(total, start, keep, stride, width)


def _exact_div_int(r: list, div: list):
    """r / div in Z[t] when div divides the nonzero r, else None."""
    dl = len(div) - 1
    r = r[:]
    q = [0] * (len(r) - dl)
    lead = div[-1]
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dl], lead)
        if rem:
            return None
        if c:
            q[k] = c
            for j in range(dl):
                r[k + j] -= c * div[j]
    return None if not q or any(r[:dl]) else q


class _ZtQuotient:
    """Q(t)[z]/(phi) for a monic phi over Q(t), on integer rows.

    An element (rows, c, e) stands for sum_i rows[i](t) z^i / (c L^e), with
    rows in Z[t][z], c a positive integer and L a primitive polynomial of
    Z[t] whose powers, times integers, clear every denominator met.  A
    product is one packed integer product (``_bi_dot``).  Remainders come
    from Barrett's method as in ``fp.Quotient``: with phi = Phi / (c_phi L^E)
    and the inverse series of rev(phi), to the precision that products and
    inputs of up to max_len rows need, written as H / (c_h L^A), the
    quotient of P by phi is Q' / (c_h L^A) for Q' read off rev(P) H, and
    c_h c_phi L^(A+E) (P mod phi) = c_h c_phi L^(A+E) P_low - (Q' Phi)_low.
    Every result is normalized: the integer content and the
    power of L that the rows share with the denominator are cancelled.
    ``unit_form`` holds Tr(z^i), i < deg, read off rev(phi') / rev(phi).
    """

    def __init__(self, phi, L: list, max_len: int):
        self.L = L
        self._lpows = [[1]]
        self.phi_rev = phi[0][::-1]
        rows, c_phi, e_phi = phi
        self.deg = deg = len(rows) - 1
        self.one = ([[1]], 1, 0)
        self.neg_phi_low = [[-x for x in r] for r in rows[:deg]]
        # remainders of products, and of inputs of up to max_len rows
        prec = max(deg, max_len - deg + 1)
        inv_rows, inv_c, inv_e = self._series_inverse((self.phi_rev, c_phi, e_phi), prec)
        dphi = [[i * x for x in r] for i, r in enumerate(rows)][1:]
        self.unit_form = self.normal(_bi_dot([(dphi[::-1], inv_rows[:deg])], 0, deg),
                                     c_phi * inv_c, e_phi + inv_e)
        self.h_rows, h_c, h_e = self.normal(inv_rows[: prec - 1], inv_c, inv_e)
        self.red_c, self.red_e = h_c * c_phi, h_e + e_phi
        self.red_kappa = [[self.red_c * x for x in self.lpow(self.red_e)]]

    @cached_property
    def traces(self):
        """Tr(z^i) for i < 2 deg - 1.  rev(phi) times their series is
        rev(phi'), of degree < deg, so the traces of z^deg .. z^(2 deg - 2)
        are -1 / rev(phi) times rows deg .. 2 deg - 2 of rev(phi) unit_form."""
        deg = self.deg
        low, c_low, e_low = self.unit_form
        mid = _bi_dot([(self.phi_rev, low)], deg, deg - 1)
        high = _bi_dot([(self.h_rows, mid)], 0, deg - 1)
        low = _bi_dot([(low, self.red_kappa)], 0, deg)
        return self.normal(low + [[-x for x in r] for r in high],
                           self.red_c * c_low, self.red_e + e_low)

    def lpow(self, k: int) -> list:
        pows = self._lpows
        while len(pows) <= k:
            pows.append(_int_mul(pows[-1], self.L))
        return pows[k]

    def normal(self, rows: list, c: int, e: int):
        """(rows, c, e) with the common integer and L-power factors cancelled."""
        top = len(rows)
        while top and not rows[top - 1]:
            top -= 1
        if not top:
            return [], 1, 0
        rows = rows[:top]
        if c != 1:
            g = _gcd(c, *chain.from_iterable(rows))
            if g != 1:
                rows = [[x // g for x in r] for r in rows]
                c //= g
        if e and self.L == [0, 1]:  # the power of t dividing a row is its count of low zeros
            k = min(e, *(next((i for i, x in enumerate(r) if x), e) for r in rows))
            return [r[k:] for r in rows], c, e - k
        while e:
            out = []
            for r in rows:
                q = _exact_div_int(r, self.L) if r else r
                if q is None:
                    return rows, c, e
                out.append(q)
            rows, e = out, e - 1
        return rows, c, e

    def _series_inverse(self, h, n: int):
        """1/h mod z^n for h with constant term 1, by Newton's iteration g <- g (2 - h g)."""
        h_rows, hc, he = h
        g = self.one
        prec = 1
        while prec < n:
            prec = min(2 * prec, n)
            g_rows, gc, ge = g
            hg = _bi_dot([(h_rows[:prec], g_rows)], 0, prec)
            c, e = hc * gc, he + ge
            two = [2 * c * x for x in self.lpow(e)]
            low = two + [0] * (len(hg[0]) - len(two))
            for i, x in enumerate(hg[0]):
                low[i] -= x
            err = [low] + [[-x for x in r] for r in hg[1:]]
            g = self.normal(_bi_dot([(g_rows, err)], 0, prec), gc * c, ge + e)
        return g

    def mul(self, x, y):
        """x * y mod phi."""
        if not x[0] or not y[0]:
            return [], 1, 0
        rows = _bi_dot([(x[0], y[0])], 0, len(x[0]) + len(y[0]) - 1)
        return self.reduce(rows, x[1] * y[1], x[2] + y[2])

    def reduce(self, rows: list, c: int, e: int):
        """(rows, c, e) mod phi, for at most max_len rows."""
        deg = self.deg
        m = len(rows) - deg
        if m <= 0:
            return self.normal(rows, c, e)
        quot = _bi_dot([(rows[: deg - 1 : -1], self.h_rows[:m])], 0, m)[::-1]
        low = _bi_dot([(rows[:deg], self.red_kappa), (quot, self.neg_phi_low)], 0, deg)
        return self.normal(low, c * self.red_c, e + self.red_e)

    def trace_form(self, u):
        """[Tr(u z^a) for a < deg], the middle product of rev(u) and the traces."""
        rows, c, e = u
        deg = self.deg
        rev_u = [[]] * (deg - len(rows)) + rows[::-1]
        t_rows, t_c, t_e = self.traces
        return self.normal(_bi_dot([(rev_u, t_rows)], deg - 1, deg), c * t_c, e + t_e)

    def dot(self, form, u):
        """Tr(w u) = sum_a form_a u_a from form = trace_form(w), as
        (numerator in Z[t], c, e): one packed product per pair of rows."""
        num = _bi_dot([([a], [b]) for a, b in zip(form[0], u[0])], 0, 1)[0]
        return num, form[1] * u[1], form[2] + u[2]


def _radical_base(polys) -> list:
    """The primitive L in Z[t], positive leading coefficient, whose roots
    are the roots of the given polynomials of Q[t], each once."""
    rad = Poly((Fraction(1),))
    for den in polys:
        if den.degree > 0:
            sq = poly_exact_div(den, poly_gcd(den, den.derivative()))
            rad = rad * poly_exact_div(sq, poly_gcd(rad, sq))
    ints, _ = _clear_fractions(rad.coeffs)
    g = _int_content(ints) * (1 if ints[-1] > 0 else -1)
    return [x // g for x in ints]


def _clear_rows(coeffs):
    """(rows, den) with coeffs[i] = rows[i] / den for elements of Q or Q(t):
    integer t-rows over the lcm of the denominators, which is cleared of
    fractions with them, so den in Z[t] has a positive leading coefficient.
    Elements of Q clear to rows of t-degree 0 ([] for zero) over one integer."""
    if not any(isinstance(c, RatFunc) for c in coeffs):
        ints, den = _clear_fractions(coeffs)
        return [[x] if x else [] for x in ints], [den]
    coeffs = [c if isinstance(c, RatFunc) else RatFunc.const(c) for c in coeffs]
    dens = dict.fromkeys(c.den for c in coeffs)
    lcm = Poly((Fraction(1),))
    for den in dens:
        lcm = lcm * poly_exact_div(den, poly_gcd(lcm, den))
    cof = {den: poly_exact_div(lcm, den) for den in dens}
    parts = [(c.num * cof[c.den]).coeffs for c in coeffs] + [lcm.coeffs]
    flat = iter(_clear_fractions([x for part in parts for x in part])[0])
    rows = [list(islice(flat, len(part))) for part in parts]
    return rows[:-1], rows[-1]


def _field(num: list, den: list, base: str):
    """The element num / den of the base field for num, den in Z[t]: a
    Fraction over Q, where both have t-degree 0, and a RatFunc over Q(t)."""
    if base == BASE_Q:
        return Fraction(num[0] if num else 0, den[0])
    return RatFunc(Poly.from_ints(num), Poly.from_ints(den))


def _from_rows(rows: list, den: list, base: str) -> list:
    """The elements rows[i] / den of the base field; one normalization each."""
    return [_field(r, den, base) for r in rows]


def _poly_power(p: Poly, n: int, base: str) -> Poly:
    """p^n for p over the base field: with the coefficients cleared to
    integer rows over one den (``_clear_rows``), p^n is rows^n / den^n,
    taken by packed integer products."""
    rows, den = _clear_rows(p.coeffs)
    out, out_den = rows, den
    for _ in range(n - 1):
        out = _mul_rows(out, rows)
        out_den = _int_mul(out_den, den)
    return Poly(_from_rows(out, out_den, base))


def _monic_from_power_sums(psums, degree: int, base: str) -> Poly:
    """The monic polynomial over the base field of the given degree with the
    given first power sums, by Newton's identities on integer rows.  With
    psums[i] = P_(i+1) / D over one den (``_clear_rows``), the elementary
    symmetric functions are e_k = E_k / (k! D^k) for E_0 = 1 and
    E_k = sum_(i=1..k) (-1)^(i-1) (k-1)!/(k-i)! D^(i-1) E_(k-i) P_i in Z[t],
    so each coefficient (-1)^j e_j is normalized once."""
    rows, den = _clear_rows(psums[:degree])
    dpow = [[1]]  # D^i
    for _ in range(degree):
        dpow.append(_int_mul(dpow[-1], den))
    rows = [_int_mul(r, dpow[i]) for i, r in enumerate(rows)]  # D^(i-1) P_i
    elem = [[1]]
    for k in range(1, degree + 1):
        acc, f = [], 1  # f = (k-1)! / (k-i)!
        for i in range(1, k + 1):
            term = _int_mul(elem[k - i], rows[i - 1])
            acc += [0] * (len(term) - len(acc))
            for j, x in enumerate(term):
                acc[j] += x * f if i % 2 else -x * f
            f *= k - i
        elem.append(acc)
    coeffs, fact = [], 1
    for j, e in enumerate(elem):
        fact *= j or 1
        coeffs.append(_field(e if j % 2 == 0 else [-x for x in e],
                             [fact * x for x in dpow[j]], base))
    return Poly(coeffs[::-1])


# ---------------------------------------------------------------------------
# the lift and Phi*_n on rows
# ---------------------------------------------------------------------------

def _trim(rows: list) -> list:
    """rows without their trailing zero rows."""
    top = len(rows)
    while top and not rows[top - 1]:
        top -= 1
    return rows[:top]


def _mul_rows(a: list, b: list) -> list:
    return _bi_dot([(a, b)], 0, len(a) + len(b) - 1)


def _zt_content(rows: list) -> list:
    """The gcd in Z[t] of the nonzero rows, with a positive leading
    coefficient.  The shortest rows come first, so a row that is a
    nonzero integer leaves only the integer gcd to take."""
    live = sorted((r for r in rows if r), key=len)
    g = Poly.from_ints(live[0])
    for r in live[1:]:
        if g.degree == 0:
            break
        g = poly_gcd(g, Poly.from_ints(r))
    ic = _int_content(chain.from_iterable(live))
    if g.degree == 0:
        return [ic]
    ints, _ = _clear_fractions(g.coeffs)
    cg = _int_content(ints) * (1 if ints[-1] > 0 else -1)
    return [ic * (x // cg) for x in ints]


def _divide_content(rows: list, content: list) -> list:
    if len(content) == 1:
        c = content[0]
        return rows if c == 1 else [[x // c for x in r] for r in rows]
    return [_exact_div_int(r, content) if r else r for r in rows]


def _primitive(lift: HomLift, base: str):
    """(G0, G1, lam): rows of G0(z, 1) and G1(z, 1) for a primitive lift G
    in Z[t][z] with lift = lam G, lam in the base field."""
    d = lift.d
    rows, den = _clear_rows(lift.a[::-1] + lift.b[::-1])
    content = _zt_content(rows)
    rows = _divide_content(rows, content)
    return _trim(rows[: d + 1]), _trim(rows[d + 1 :]), _field(content, den, base)


@per_map("primitive_rows")
def primitive_rows(fmap: RationalMap):
    """``_primitive`` of the map's own lift F = lam G, computed once per map."""
    return _primitive(fmap.lift, fmap.base)


def _scaled_values(rows: list, scale, base: str) -> list:
    """The elements scale * rows[i] of the base field for rows in Z[t]:
    scale is cleared once (``_clear_rows``), each value normalized once."""
    (num,), den = _clear_rows([scale])
    return _from_rows([_int_mul(list(r), num) for r in rows], den, base)


def _lift_from_rows(rows, degree: int, scale, base: str) -> HomLift:
    """The lift of the given degree whose forms, at (z, 1), are scale times
    the rows (F0, F1) of Z[t][z]."""
    f0, f1 = (list(r) + [[]] * (degree + 1 - len(r)) for r in rows)
    vals = _scaled_values(f0 + f1, scale, base)
    return HomLift(degree, tuple(vals[degree::-1]), tuple(vals[:degree:-1]))


def _compose_rows(outer, inner, d: int) -> tuple:
    """outer o inner for a lift outer of degree d, as rows of their affine
    parts: outer_k(h0, h1) = sum_i outer_k[i] h0^i h1^(d-i)."""
    h0, h1 = inner
    p0, p1 = [[[1]], h0], [[[1]], h1]
    for _ in range(d - 1):
        p0.append(_mul_rows(p0[-1], h0))
        p1.append(_mul_rows(p1[-1], h1))
    mons = [p1[d]] + [_mul_rows(p0[i], p1[d - i]) for i in range(1, d)] + [p0[d]]
    keep = max(map(len, mons))
    return tuple(_trim(_bi_dot([([c], m) for c, m in zip(g, mons) if c], 0, keep))
                 for g in outer[:2])


def _next_iterate(g, cur, d: int, budget) -> tuple:
    """g o cur on rows for g of degree d, with the coefficient bits of the
    new iterate checked against the budget."""
    got = _compose_rows(g, cur, d)
    budget.check_bits(sum(x.bit_length() for rows in got for r in rows for x in r),
                      "iterated lift")
    return got


@per_map("lift_rows")
def lift_rows(fmap: RationalMap, n: int):
    """(F0, F1): rows of F0(z, 1) and F1(z, 1) for F = G^(n), the n-th
    iterate of the primitive lift, each iterate computed once per map.
    The budget is checked as in ``maps.iterate_lift``, which composes the
    same rows: the period first, then each new iterate (``_next_iterate``)."""
    fmap.budget.check_period(fmap.d, n)
    if n == 1:
        return primitive_rows(fmap)[:2]
    return _next_iterate(primitive_rows(fmap), lift_rows(fmap, n - 1), fmap.d, fmap.budget)


def _sub_z_times(a: list, b: list) -> list:
    """Rows of a - z b for a, b in Z[t][z], without trailing zero rows."""
    rows = [list(r) for r in a] + [[] for _ in range(len(b) + 1 - len(a))]
    for row, r in zip(rows[1:], b):
        row.extend([0] * (len(r) - len(row)))
        for j, x in enumerate(r):
            row[j] -= x
        while row and not row[-1]:
            row.pop()
    return _trim(rows)


@per_map("fixed_rows")
def fixed_rows(fmap: RationalMap, m: int):
    """(primitive part, content in Z[t]) of P_m = F0 - z F1 for F = G^(m),
    with a positive content; computed once per map."""
    rows = _sub_z_times(*lift_rows(fmap, m))
    if not rows:
        raise DegenerateMap("f^n is the identity; not a degree >= 2 map")
    content = _zt_content(rows)
    return _divide_content(rows, content), content


def _exact_quotient(num: list, den: list) -> list:
    """num / den in Z[t][z] for a den that divides num, by one packed
    integer division.  At t = B, z = B^stride both are integers, and the
    quotient of the packings is the packing of the quotient; its digits are
    the quotient's coefficients once these fit the slots.  A product that
    does not give num back means they did not, and the slots are doubled,
    up to Mignotte's bound on a factor of num after t -> x, z -> x^stride."""
    keep = len(num) - len(den) + 1
    if keep <= 0:
        raise NonExactDivision("dynatomic quotient of a lower degree")
    if den == [[1]]:
        return num
    stride = max(map(len, num))
    bits = max(_row_bits(num), _row_bits(den))
    cap = keep * stride + bits + (len(num) * stride).bit_length()
    width = bits // 8 + 2
    while True:
        packed, rem = divmod(_pack_rows(num, stride, width), _pack_rows(den, stride, width))
        if rem:
            raise NonExactDivision("remainder in the dynatomic quotient")
        quot = _unpack_rows(packed, 0, keep, stride, width)
        if _mul_rows(quot, den) == num:
            return quot
        if 8 * width > cap + 1:
            raise NonExactDivision("no dynatomic quotient within Mignotte's bound")
        width *= 2


def _power_cofactor(p: list, L: list):
    """(cof, c, e) with p cof = c L^e and c a positive integer, for a p in
    Z[t] whose roots are roots of L."""
    sign = 1 if p[-1] > 0 else -1
    c = _int_content(p)
    pl = [sign * x // c for x in p]
    e, power = 0, [1]
    while (cof := _exact_div_int(power, pl)) is None:
        e, power = e + 1, _int_mul(power, L)
    return [sign * x for x in cof], c, e


def _trace_ring(phi: list, extra: list, max_len: int):
    """(ring, (cof, c, e)): the ring _ZtQuotient modulo the monic Phi*_n,
    for phi its primitive rows, whose L is the radical of the leading row
    of phi times the extra denominator, and 1 / extra = cof / (c L^e)."""
    L = _radical_base([Poly.from_ints(phi[-1]), Poly.from_ints(extra)])
    cof, c, e = _power_cofactor(phi[-1], L)
    ring = _ZtQuotient(([_int_mul(r, cof) for r in phi], c, e), L, max_len)
    return ring, _power_cofactor(extra, L)


# ---------------------------------------------------------------------------
# lambda = a / b from F_p images
# ---------------------------------------------------------------------------

_START_POINTS = 8   # evaluation points per prime in the first round


class _Images:
    """lambda(t0) = a(t0) / b(t0) in F_p[z]/(Phi*_n(t0)) at the points
    t0 = 1, 2, ... where the leading row of Phi*_n, the denominators of a
    and b and b(t0) itself are units mod p, for the monic Phi*_n = phi /
    phi[-1], a = (rows, c, e) and b as elements of ``ring``."""

    def __init__(self, ring, phi: list, a, b, p: int):
        self.p = p
        self.phi = [[x % p for x in r] for r in phi]
        self.a = [[x % p for x in r] for r in a[0]]
        self.b = [[x % p for x in r] for r in b[0]]
        self.L = [x % p for x in ring.L]
        self.scale, self.e = b[1] * pow(a[1], -1, p) % p, b[2] - a[2]
        self.xs, self.values = [], []
        self.next, self.skips = 1, 0

    def take(self, points: int):
        """(xs, values) at the first good points."""
        p = self.p
        while len(self.xs) < points:
            x = self.next
            self.next += 1
            lx = fp.horner(self.L, x, p)
            phi = [fp.horner(r, x, p) for r in self.phi]
            lam = None
            if lx and phi[-1]:
                inv_lc = pow(phi[-1], -1, p)
                ring = fp.Quotient([c * inv_lc % p for c in phi], p, 0)
                lam = multipliers._mod_div([fp.horner(r, x, p) for r in self.a],
                                           [fp.horner(r, x, p) for r in self.b], ring)
            if lam is None:
                self.skips = multipliers._count_non_unit(self.skips)
                continue
            s = self.scale * pow(lx, self.e, p) % p
            self.xs.append(x)
            self.values.append([c * s % p for c in lam] + [0] * (len(phi) - 1 - len(lam)))
        return self.xs[:points], self.values[:points]

    def reconstruct(self, points: int):
        """(delta, nums) over F_p from that many points: lambda_i = nums[i] /
        delta with delta the monic lcm of the denominators; None if a
        coefficient has no fraction within the degree bounds.  Each
        coefficient is interpolated times the delta of those before it, so
        the denominator left over is what delta still lacks."""
        p = self.p
        xs, values = self.take(points)
        inv = {}  # 1 / (x - y) by the difference: most points are consecutive
        for x in xs:
            for y in xs:
                if x > y and x - y not in inv:
                    inv[x - y] = pow(x - y, -1, p)
        invs = [[inv.get(x - y) for x, y in zip(xs[j:], xs)] for j in range(len(xs))]
        vanish = [1]
        for x in xs:
            vanish = fp.mul(vanish, [-x, 1], p)
        delta, nums = [1], []
        dx = [1] * len(xs)
        for col in zip(*values):
            u = fp.interpolate(xs, [v * d % p for v, d in zip(col, dx)], invs, p)
            frac = fp.cauchy(xs, vanish, u, p)
            if frac is None:
                return None
            num, den = frac
            if len(den) > 1:
                nums = [fp.mul(c, den, p) for c in nums]
                delta = fp.mul(delta, den, p)
                dx = [fp.horner(delta, x, p) for x in xs]
            nums.append(num)
        return delta, nums


def _row_mod_div(ring, phi: list, a, b):
    """lambda = a / b in Q(t)[z]/(Phi*_n) as (rows, den), lambda_i =
    rows[i] / den with den the lcm of the denominators of the lambda_i in
    lowest terms, for a and b = (rows, c, e) elements of ``ring`` (modulo
    the monic Phi*_n = phi / phi[-1]) and b a unit.

    The images of lambda at points t0 mod engine primes p
    (``fp.engine_prime``) are interpolated to fractions over one
    monic den per prime (Cauchy interpolation, ``_Images.reconstruct``);
    the coefficients are lifted from the CRT of the primes that agree on
    the degrees to Q by rational reconstruction and cleared to integers.
    The result is kept only when lam b = den a holds exactly in the ring,
    so it is exact by construction.  A failed reconstruction or check
    doubles the points, unless doubling them last time left the images
    unchanged: then the modulus is too small and a prime is added.  Past
    the points and the modulus that ``_division_caps`` proves enough, the
    points stop doubling and primes stop being added, and the division
    raises NonExactDivision.
    """
    if not a[0]:
        return [], [1]
    bad = a[1] * b[1] * _int_content(phi[-1])
    primes = (p for p in map(fp.engine_prime, count()) if bad % p)
    images = [_Images(ring, phi, a, b, next(primes))]
    points, last = _START_POINTS, None
    max_points, max_modulus = _division_caps(ring, phi, a, b)
    while True:
        recons = [im.reconstruct(points) for im in images]
        if None not in recons:
            shapes = [[len(delta)] + [len(c) for c in nums] for delta, nums in recons]
            used = [(im.p, r) for im, r, s in zip(images, recons, shapes) if s == max(shapes)]
            lifted = _lift_fractions(used)
            if lifted is not None and _exact_check(ring, *lifted, a, b):
                return lifted
            # more points changed nothing: the modulus is short
            if recons[0] == last and prod(p for p, _ in used) <= max_modulus:
                images.append(_Images(ring, phi, a, b, next(primes)))
                continue
            last = recons[0]
        if points >= max_points:
            break
        points *= 2
    raise NonExactDivision("no exact quotient within the Cramer bounds of the row division")


def _division_caps(ring, phi: list, a, b):
    """(points, modulus) past which ``_row_mod_div`` cannot succeed.

    Write a = A / (c_a L^e_a) and b = B / (c_b L^e_b).  lambda = a / b
    solves B lam' - phi q = A in Z[t][z] for lam' = lam c_a L^e_a / (c_b
    L^e_b) of z-degree < deg phi and q of z-degree < deg_z B: a square
    system of N = deg phi + deg_z B equations whose entries are
    coefficients of A, B and phi, of t-degree at most e and with l1 norms
    summing to at most S = |A|_1 + |B|_1 + |phi|_1 in each row.  By
    Cramer's rule each lambda_i is a ratio of integer polynomials of
    t-degree at most D = N e + |e_b - e_a| deg L and l1 norm at most
    K = c_a c_b |L|_1^|e_b - e_a| S^N.  Cauchy interpolation recovers a
    ratio of degrees <= D from 2 D + 1 points, so the doubling from
    _START_POINTS meets that count at some P and checks it at 2 P.  The
    coefficients of the monic lcm of the denominators and of lambda times
    it are ratios of coefficients of divisors of those polynomials, each
    at most H = 2^D K by Mignotte's bound, which Wang's reconstruction
    recovers modulo any M > 2 H^2.
    """
    rows = [r for part in (a[0], b[0], phi) for r in part if r]
    e = max(len(r) for r in rows) - 1
    n_eq = len(phi) - 1 + len(b[0]) - 1
    shift = abs(b[2] - a[2])
    degree = n_eq * e + shift * (len(ring.L) - 1)
    points = _START_POINTS
    while points < 2 * degree + 1:
        points *= 2
    l1 = sum(abs(x) for r in rows for x in r)
    height = a[1] * b[1] * sum(map(abs, ring.L)) ** shift * l1**n_eq << degree
    return 2 * points, 2 * height**2


def _exact_check(ring, rows: list, den: list, a, b) -> bool:
    """rows b == den a in the ring, both sides in normal form."""
    rows = _trim(rows)
    if not rows:
        return False
    return ring.mul((rows, 1, 0), b) == ring.normal(_mul_rows([den], a[0]), a[1], a[2])


def _lift_fractions(used):
    """(rows, den) over Z from the F_p forms (delta, nums) of several primes,
    by CRT and rational reconstruction; None if some coefficient has no
    fraction within Wang's bound."""
    delta, nums = used[0][1]
    m, acc = 1, [0] * (len(delta) + sum(map(len, nums)))
    for p, (d, cs) in used:
        acc = fp.crt(acc, m, d + [x for c in cs for x in c], p)
        m *= p
    fracs = []
    for x in acc:
        f = fp.rat_recon(x, m)
        if f is None:
            return None
        fracs.append(f)
    ints, _ = _clear_fractions(fracs)
    flat = iter(ints)
    den = list(islice(flat, len(delta)))
    rows = [list(islice(flat, len(c))) for c in nums]
    return rows, den


def lambda_numerator(num: list, den: list) -> list:
    """Rows of num' - z den' for f^n = num / den in Z[t][z].  Phi*_n divides
    num - z den, so num = z den modulo Phi*_n, and there the multiplier
    (num' den - num den') / den^2 is (num' - z den') / den: both spectrum
    engines divide these rows by den."""
    dnum, dden = ([[i * x for x in r] for i, r in enumerate(rows)][1:] for rows in (num, den))
    return _sub_z_times(dnum, dden)


def _ratfunc_power_sums(fmap: RationalMap, n: int, phi: list, count: int) -> list:
    """Exact S_k = sum over the roots beta of Phi*_n of lambda(beta)^k,
    k = 1..count, for a map over Q(t), in the integer ring _ZtQuotient.

    phi is Phi*_n as primitive rows, and f^n = num / den is read off the
    rows of the iterated primitive lift (``lift_rows``).  lambda = u / (g D)
    for the rows u of num' - z den' (``lambda_numerator``), with g = den
    and D = 1 when den is constant in z, else with g the content of den in
    Z[t] and D = den / g.  u / g is reduced mod phi in a ring whose L is the
    radical of g times the leading row of Phi*_n, so that L covers the
    poles of the monic Phi*_n and of u / g.  When D = 1 that is lambda.
    Otherwise lambda = (u / g) / D is formed once on rows, over one
    denominator in lowest terms (``multipliers._field_mod_div``,
    ``_row_mod_div``), and the sums are taken in a ring whose L is the
    radical of that denominator times the leading row of Phi*_n
    (``_trace_ring`` builds both rings).  Each S_k becomes an element of
    Q(t), with one normalization, only at the end.
    """
    num, den = lift_rows(fmap, n)
    u = lambda_numerator(num, den)
    if len(den) == 1:  # den is constant in z: lambda = u / den
        content, den = den[0], [[1]]
    else:
        content = _zt_content(den)
        den = _divide_content(den, content)
    ring, (cof, c, e) = _trace_ring(phi, content, max(len(u), len(den)))
    lam = ring.reduce(u if cof == [1] else _mul_rows([cof], u), c, e)  # u / g
    if den != [[1]]:
        b = ring.reduce(den, 1, 0)
        if not b[0]:
            raise NonExactDivision("vanishing denominator in multiplier computation")
        rows, lam_den = multipliers._field_mod_div(ring, phi, lam, b)
        ring, (cof, c, e) = _trace_ring(phi, lam_den, 0)
        lam = ring.normal([_int_mul(r, cof) for r in rows], c, e)
    return [_field(num, [c * x for x in ring.lpow(e)], fmap.base)
            for num, c, e in multipliers._trace_powers(ring, lam, count)]
