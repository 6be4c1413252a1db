import itertools
import math

import pytest

from threepage.braids import (BraidWord, cycle_count, exponent_sum, format_word,
                              parse_word, permutation, torus_braid,
                              torus_braid_lower_twist_form, torus_braid_small,
                              torus_braid_upper_twist_form, verify_factorization)
from threepage.diagram import braid_closure_diagram
from threepage.invariants import equal_up_to_mirror, profile

from util import braids_exactly_equal


def test_torus_braid_words():
    assert torus_braid(2, 2).letters == ((1, 1), (1, 1))
    assert torus_braid(2, 3).letters == ((1, 1), (2, 1)) * 2
    assert len(torus_braid(3, 3)) == 6
    assert len(torus_braid(p := 4, q := 7)) == p * (q - 1)


def test_torus_braid_small_words():
    assert torus_braid_small(2, 3).letters == ((1, 1),) * 3
    assert len(torus_braid_small(3, 4)) == 8
    with pytest.raises(ValueError):
        torus_braid_small(1, 3)
    with pytest.raises(ValueError):
        torus_braid(2, 1)


def test_torus_braid_small_reports_its_own_parameters():
    with pytest.raises(ValueError, match=r"^need p >= 2 and q >= 1, got p=1, q=3$"):
        torus_braid_small(1, 3)
    with pytest.raises(ValueError, match=r"^need p >= 2 and q >= 1, got p=2, q=0$"):
        torus_braid_small(2, 0)


def test_torus_braid_small_swaps_the_parameters():
    for p, q in itertools.product(range(2, 6), range(1, 7)):
        assert torus_braid_small(p, q) == torus_braid(q, p), (p, q)


def test_small_and_standard_forms_present_the_same_link():
    lhs = profile(braid_closure_diagram(torus_braid_small(2, 3)))
    rhs = profile(braid_closure_diagram(torus_braid(2, 3)))
    assert equal_up_to_mirror(lhs, rhs)


def test_permutation_basics():
    empty = BraidWord.of(3, [])
    assert permutation(empty) == (1, 2, 3)
    assert cycle_count(empty) == 3
    sigma = BraidWord.of(2, [(1, 1)])
    assert permutation(sigma) == (2, 1)
    assert cycle_count(sigma) == 1


def test_gcd_cycle_law():
    for p in range(2, 8):
        for q in range(p, 8):
            assert cycle_count(torus_braid(p, q)) == math.gcd(p, q)


def test_exponent_sum_and_length():
    for p, q in ((2, 3), (3, 5), (4, 6)):
        w = torus_braid(p, q)
        assert exponent_sum(w) == len(w) == p * (q - 1)


def test_factorization_lower_twist_at_3_5():
    lhs = torus_braid(3, 5)
    rhs = torus_braid_lower_twist_form(3, 5)
    report = verify_factorization(lhs, rhs)
    assert report.permutation_equal
    assert report.exponent_sum_equal
    assert report.closure_profiles_equal
    assert report.all_passed


def test_factorization_upper_twist_at_2_5():
    lhs = torus_braid(2, 5)
    rhs = torus_braid_upper_twist_form(2, 5)
    report = verify_factorization(lhs, rhs)
    assert report.all_passed


def test_factorization_rejects_inverse():
    lhs = BraidWord.of(2, [(1, 1)])
    rhs = BraidWord.of(2, [(1, -1)])
    report = verify_factorization(lhs, rhs)
    assert report.permutation_equal
    assert not report.exponent_sum_equal
    assert not report.all_passed


def test_factorization_requires_same_strands():
    with pytest.raises(ValueError):
        verify_factorization(BraidWord.of(2, []), BraidWord.of(3, []))


def test_corrected_factorizations_are_exact_braid_identities():
    # the free-group action is faithful, so this is genuine braid equality
    for p, q in ((2, 3), (2, 4), (3, 4), (3, 5), (2, 5), (4, 6), (2, 2), (3, 3)):
        assert braids_exactly_equal(torus_braid(p, q),
                                    torus_braid_lower_twist_form(p, q)), (p, q)
    for p, q in ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (2, 3), (3, 4)):
        assert braids_exactly_equal(torus_braid(p, q),
                                    torus_braid_upper_twist_form(p, q)), (p, q)


def test_power_splitting_of_the_small_form_is_a_tautology():
    # the printed factor (s1 ... s_{q-1})^{q - floor(q/p) p} of the p-strand
    # word over-reaches its strand count; corrected to s_{p-1} it makes the
    # identity literal word concatenation
    for p, q in ((2, 5), (3, 7), (3, 8)):
        w = torus_braid_small(p, q)
        head = torus_braid_small(p, (q // p) * p) if q >= p else None
        tail = ((BraidWord.of(p, [(i, 1) for i in range(1, p)] * (q % p)))
                if q % p else BraidWord.of(p, []))
        assert (head * tail).letters == w.letters
        assert verify_factorization(w, head * tail).all_passed


def test_profiles_across_p_q_swap():
    for p in range(2, 5):
        for q in range(p, 5):
            a = profile(braid_closure_diagram(torus_braid(p, q)))
            b = profile(braid_closure_diagram(torus_braid(q, p)))
            assert equal_up_to_mirror(a, b), (p, q)


def test_word_syntax_roundtrip():
    w = parse_word("s1 s2 -s1", 3)
    assert w.letters == ((1, 1), (2, 1), (1, -1))
    assert format_word(w) == "s1 s2 -s1"
    with pytest.raises(ValueError):
        parse_word("x3", 3)
    with pytest.raises(ValueError):
        parse_word("s5", 3)
