"""Map input/output: the shared JSON wire format and coefficient strings.

A map is {"d": int, "a": [coeff, ...], "b": [coeff, ...]} where coeff is
either a decimal rational string "p/q" or {"num": "...", "den": "..."} with
polynomials in t written like "3*t^2-1/2*t+4".  parse -> print -> parse is
the identity, bit for bit.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Union

from .algebra import Poly, RatFunc
from .budget import Budget, default_budget
from .errors import ParseError
from .maps import RationalMap, new_map
from .places import Place

_FRAC_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*"
    r"(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:(?P<t>t)(?:\^(?P<pow>\d+))?)?"
)


def parse_fraction(s: str) -> Fraction:
    s = s.strip()
    if not _FRAC_RE.match(s):
        raise ParseError(f"not a rational number: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {s!r}") from None


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_t_poly(s: str) -> Poly:
    """Polynomial in t from a string like '3*t^2-1/2*t+4'.

    The result is dense, deg + 1 coefficients, so the degree is checked
    against ``default_budget()`` at a machine word per coefficient before
    the list is built: t^1000000000 is a ResourceLimit, not 10^9 objects.
    """
    text = s.strip().replace(" ", "")
    if not text:
        raise ParseError("empty polynomial string")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (not m.group("coef") and not m.group("t")):
            raise ParseError(f"cannot parse polynomial near {text[pos:]!r}", position=pos)
        if not first and m.group("sign") == "":
            raise ParseError(f"missing sign before {text[pos:]!r}", position=pos)
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator near {text[pos:]!r}", position=pos) from None
        if m.group("t"):
            power = int(m.group("pow")) if m.group("pow") else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coef
        pos = m.end()
        first = False
    deg = max(coeffs)
    default_budget().check_bits(64 * (deg + 1), f"t-polynomial of degree {deg}")
    return Poly([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])


def format_t_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = format_fraction(mag)
        else:
            t_part = "t" if i == 1 else f"t^{i}"
            body = t_part if mag == 1 else f"{format_fraction(mag)}*{t_part}"
        parts.append(sign + body)
    return "".join(parts)


def parse_coefficient(obj) -> Union[Fraction, RatFunc]:
    if isinstance(obj, str):
        return parse_fraction(obj)
    if isinstance(obj, int):
        raise ParseError(f"coefficients must be strings, got bare number {obj!r}")
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra or "num" not in obj:
            raise ParseError(f"bad coefficient object keys: {sorted(obj)}")
        if not all(isinstance(v, str) for v in obj.values()):
            raise ParseError(f"'num' and 'den' must be strings, got {obj!r}")
        num = parse_t_poly(obj["num"])
        den = parse_t_poly(obj["den"]) if "den" in obj else Poly((Fraction(1),))
        if den.is_zero():
            raise ParseError("zero denominator polynomial")
        return RatFunc(num, den)
    raise ParseError(f"unsupported coefficient {obj!r}")


def format_coefficient(c) -> Union[str, dict]:
    if isinstance(c, Fraction):
        return format_fraction(c)
    return {"num": format_t_poly(c.num), "den": format_t_poly(c.den)}


def parse_map(source, budget: Budget = None) -> RationalMap:
    """RationalMap from a JSON object, JSON text, or a path to a JSON file."""
    obj = source
    if isinstance(source, str):
        text = source
        if not source.lstrip().startswith("{"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read map file {source!r}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", position=exc.pos) from exc
    if not isinstance(obj, dict):
        raise ParseError("map must be a JSON object")
    extra = set(obj) - {"d", "a", "b"}
    if extra:
        raise ParseError(f"unknown map keys: {sorted(extra)}")
    try:
        d = int(obj["d"])
        a = obj["a"]
        b = obj["b"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"map needs integer 'd' and lists 'a', 'b': {exc}") from exc
    if not isinstance(a, list) or not isinstance(b, list):
        raise ParseError("'a' and 'b' must be lists")
    if len(a) != d + 1 or len(b) != d + 1:
        raise ParseError(f"'a' and 'b' must each have d+1 = {d + 1} entries")
    acoeffs = [parse_coefficient(c) for c in a]
    bcoeffs = [parse_coefficient(c) for c in b]
    return new_map(d, acoeffs, bcoeffs, budget)


def format_map(fmap: RationalMap) -> dict:
    return {
        "d": fmap.d,
        "a": [format_coefficient(c) for c in fmap.lift.a],
        "b": [format_coefficient(c) for c in fmap.lift.b],
    }


def parse_place(s: str) -> Place:
    """Place from the CLI syntax: arch | p:<prime> | t=<rational> | t=inf."""
    s = s.strip()
    if s == "arch":
        return Place.arch()
    if s.startswith("p:"):
        try:
            return Place.prime(int(s[2:]))
        except ValueError as exc:
            raise ParseError(f"bad prime place {s!r}: {exc}") from exc
    if s.startswith("t="):
        rest = s[2:]
        if rest == "inf":
            return Place.ff_infinity()
        return Place.ff_point(parse_fraction(rest))
    raise ParseError(f"unknown place syntax {s!r} (want arch, p:2, t=0, t=inf)")
