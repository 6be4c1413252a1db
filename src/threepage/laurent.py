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
from typing import Iterable, Mapping, Union


@dataclass(frozen=True, slots=True)
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
        if k < 0:
            raise ValueError(f"need a power k >= 0, got {k}")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def mirror(self) -> "LaurentPoly":
        """Apply A -> A^-1 (the effect of mirroring a link diagram)."""
        return LaurentPoly.from_dict({-e: c for e, c in self.terms})

    def __str__(self) -> str:
        return _format_terms(self.terms, "A")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LaurentPoly({self})"


ONE = LaurentPoly.monomial(0)

#: Value of a disjoint unknot:  delta = -A^2 - A^-2.
LOOP = LaurentPoly.from_dict({2: -1, -2: -1})


def writhe_unit(power: int) -> LaurentPoly:
    """(-A^3)^power, the writhe-normalisation unit, for any integer power."""
    return LaurentPoly(((3 * power, -1 if power % 2 else 1),))


def in_t_variable(poly: LaurentPoly) -> str:
    """Render a writhe-normalised bracket polynomial in the Jones variable t.

    The substitution is t = A^-4, so an A-exponent e becomes the t-exponent
    e / -4.  For links with an even number of components half-integer
    exponents occur; every exponent is provably even, which is asserted, and
    halves are printed as ``t^-5/2``.
    """
    for e, _ in poly.terms:
        if e % 2 != 0:
            raise ValueError(f"odd exponent {e} cannot arise in a normalised bracket")
    return _format_terms([(Fraction(e, -4), c) for e, c in reversed(poly.terms)], "t")


def _format_terms(terms: Iterable[tuple[Union[int, Fraction], int]], var: str) -> str:
    """Signed sum of (exponent, coefficient) terms in the printed order: the
    variable alone for exponent 1, a bare coefficient for exponent 0."""
    parts: list[str] = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        if parts:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return "".join(parts) or "0"


def poly_sort_key(poly: LaurentPoly) -> tuple:
    """Deterministic ordering key used when sets of polynomials are printed."""
    return poly.terms
