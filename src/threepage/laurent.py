"""Exact integer Laurent polynomials in the bracket variable A.

All invariant computations in this package stay in Z[A, A^-1]; no floating
point is ever involved, so printed polynomials are bit-stable and usable as
golden values.  Printing follows the convention

    -A^4 - A^-4

i.e. descending exponents with explicit signs, ``A`` for exponent 1 and a
bare integer for exponent 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


@dataclass(frozen=True)
class LaurentPoly:
    """Integer-coefficient Laurent polynomial, stored as (exponent, coeff) terms.

    Terms are kept sorted by descending exponent with no zero coefficients,
    which makes equality, hashing and printing canonical.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted(((e, c) for e, c in d.items() if c != 0),
                                        key=lambda t: -t[0])))

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict({exponent: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def __pow__(self, k: int) -> "LaurentPoly":
        if len(self.terms) == 1:
            (e, c), = self.terms
            if c in (1, -1):
                return LaurentPoly(((e * k, c ** abs(k)),))
            if k >= 0:
                return LaurentPoly(((e * k, c ** k),))
        if k < 0:
            raise ValueError("negative powers are only defined for the "
                             "monomials A^e and -A^e")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def mirror(self) -> "LaurentPoly":
        """Apply A -> A^-1 (the effect of mirroring a link diagram)."""
        return LaurentPoly.from_dict({-e: c for e, c in self.terms})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "A" if e == 1 else f"A^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LaurentPoly({self})"


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(0)

#: Value of a disjoint unknot:  delta = -A^2 - A^-2.
LOOP = LaurentPoly.from_dict({2: -1, -2: -1})

#: Writhe-normalisation unit:  -A^3.
NEG_A3 = LaurentPoly.monomial(3, -1)


def writhe_unit(power: int) -> LaurentPoly:
    """(-A^3)^power for a possibly negative integer power."""
    return NEG_A3 ** power


def in_t_variable(poly: LaurentPoly) -> str:
    """Render a writhe-normalised bracket polynomial in the Jones variable t.

    The substitution is t = A^-4, so an A-exponent e becomes the t-exponent
    e / -4.  For links with an even number of components half-integer
    exponents occur; every exponent is provably even, which is asserted, and
    halves are printed as ``t^-5/2``.
    """
    rendered: list[tuple[Fraction, int]] = []
    for e, c in poly.terms:
        if e % 2 != 0:
            raise ValueError(f"odd exponent {e} cannot arise in a normalised bracket")
        rendered.append((Fraction(e, -4), c))
    rendered.sort(key=lambda t: -t[0])
    if not rendered:
        return "0"
    parts: list[str] = []
    for i, (te, c) in enumerate(rendered):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if te == 0:
            body = str(mag)
        else:
            exp = str(te.numerator) if te.denominator == 1 else f"{te.numerator}/{te.denominator}"
            var = "t" if exp == "1" else f"t^{exp}"
            body = var if mag == 1 else f"{mag}{var}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def poly_sort_key(poly: LaurentPoly) -> tuple:
    """Deterministic ordering key used when sets of polynomials are printed."""
    return poly.terms
