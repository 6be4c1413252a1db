import pytest
from hypothesis import given, strategies as st

from fractions import Fraction

from threepage.laurent import LOOP, ONE, LaurentPoly, in_t_variable, writhe_unit
from threepage.search import census

from util import ZERO, reference_t_variable

polys = st.dictionaries(st.integers(-8, 8), st.integers(-5, 5), max_size=6).map(
    LaurentPoly.from_dict)


def test_zero_coefficients_dropped():
    assert LaurentPoly.from_dict({3: 0, 1: 2}) == LaurentPoly.from_dict({1: 2})
    assert not LaurentPoly.from_dict({0: 0})


def test_printing_format():
    assert str(LaurentPoly.from_dict({4: -1, -4: -1})) == "-A^4 - A^-4"
    assert str(ONE) == "1"
    assert str(ZERO) == "0"
    assert str(LaurentPoly.from_dict({1: 1, 0: -2})) == "A - 2"
    assert str(LaurentPoly.from_dict({2: 3, -1: 1})) == "3A^2 + A^-1"
    assert str(LOOP) == "-A^2 - A^-2"


def test_loop_and_writhe_units():
    assert writhe_unit(1) * writhe_unit(-1) == ONE
    assert writhe_unit(3) == LaurentPoly.monomial(9, -1)
    assert LOOP * LOOP == LaurentPoly.from_dict({4: 1, 0: 2, -4: 1})
    for power in range(-34, 35):
        step = LaurentPoly.monomial(3 if power > 0 else -3, -1)
        expected = ONE
        for _ in range(abs(power)):
            expected = expected * step
        assert writhe_unit(power) == expected
    assert LaurentPoly.monomial(-2, 3) ** 3 == LaurentPoly.monomial(-6, 27)
    assert LOOP ** 3 == LOOP * LOOP * LOOP
    for base in (LOOP, LaurentPoly.monomial(1, 2), ZERO):
        with pytest.raises(ValueError):
            base ** -1


def test_mirror_involution():
    p = LaurentPoly.from_dict({3: 2, -1: 5})
    assert p.mirror() == LaurentPoly.from_dict({-3: 2, 1: 5})
    assert p.mirror().mirror() == p


def test_t_variable_knot_and_link():
    trefoil = LaurentPoly.from_dict({-4: 1, -12: 1, -16: -1})
    assert in_t_variable(trefoil) == "-t^4 + t^3 + t"
    hopf = LaurentPoly.from_dict({10: -1, 2: -1})
    assert in_t_variable(hopf) == "-t^-1/2 - t^-5/2"
    assert in_t_variable(LaurentPoly.from_dict({4: 1, 0: 2, -4: -3})) == "-3t + 2 + t^-1"
    assert in_t_variable(ZERO) == "0"
    with pytest.raises(ValueError):
        in_t_variable(LaurentPoly.from_dict({3: 1}))


def test_t_variable_matches_the_fraction_printer_on_the_census():
    # every Jones polynomial of the canonical census up to eight points
    jones = set()
    for n in range(3, 9):
        for entry in census(n):
            jones |= entry.profile.jones
    for poly in jones:
        assert in_t_variable(poly) == reference_t_variable(poly), poly
    exponents = {Fraction(e, -4) for poly in jones for e, _ in poly.terms}
    assert exponents >= {0, 1, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                         Fraction(-3, 2)}


@given(st.dictionaries(st.integers(-12, 12).map(lambda e: 2 * e),
                       st.integers(-5, 5), max_size=6).map(LaurentPoly.from_dict))
def test_t_variable_matches_the_fraction_printer(poly):
    assert in_t_variable(poly) == reference_t_variable(poly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + ZERO == a
    assert a * ONE == a


@given(polys)
def test_mirror_is_ring_map(a):
    b = LaurentPoly.from_dict({2: 1, -1: 3})
    assert (a * b).mirror() == a.mirror() * b.mirror()
    assert (a + b).mirror() == a.mirror() + b.mirror()
