import pytest

from threepage.presentation import validate
from threepage.torus import (HOPF, bounds, closure_profile, normalize, tnn, tpq,
                             tpq_tight)
from threepage.invariants import equal_up_to_mirror, profile


def test_tnn_2_is_the_hopf_fixture():
    assert tnn(2) == HOPF


def test_tnn_counts_and_pages():
    for n in range(2, 7):
        t = tnn(n)
        assert validate(t).ok
        assert t.arc_count() == 4 * n - 2
        assert t.page_sizes() == (2 * (n - 1), n, n)


def test_tnn_profiles_small():
    for n in (2, 3):
        assert equal_up_to_mirror(profile(tnn(n)), closure_profile(n, n))


def test_tpq_counts():
    for p, q in ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (2, 2), (3, 3)):
        t = tpq(p, q)
        assert validate(t).ok
        assert t.arc_count() == 2 * p + 2 * q - 2, (p, q)


def test_tpq_22_consistent_with_tnn2():
    assert tpq(2, 2).arc_count() == 6
    assert equal_up_to_mirror(profile(tpq(2, 2)), profile(tnn(2)))


def test_tpq_23_is_trefoil():
    t = tpq(2, 3)
    assert t.arc_count() == 8
    assert equal_up_to_mirror(profile(t), closure_profile(2, 3))


def test_tpq_tight_counts_and_pages():
    for p, q in ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7)):
        t = tpq_tight(p, q)
        assert validate(t).ok
        assert t.arc_count() == 2 * p + 2 * q - 3, (p, q)
        assert sorted(t.page_sizes()) == sorted((q - 1, q - 1, 2 * p - 1)), (p, q)


def test_tight_24_pages_all_three():
    assert tpq_tight(2, 4).page_sizes() == (3, 3, 3)


def test_every_page_has_at_least_bridge_many_arcs():
    # each page of a presentation of L needs >= br(L) arcs; br(T(p,q)) = min(p,q)
    cases = [tnn(2), tnn(3), tnn(4), tpq(2, 3), tpq(3, 4), tpq(3, 5),
             tpq_tight(2, 4), tpq_tight(2, 6), tpq_tight(3, 6)]
    mins = [2, 3, 4, 2, 3, 3, 2, 2, 3]
    for pres, lo in zip(cases, mins):
        assert min(pres.page_sizes()) >= lo


def test_parameter_validation():
    with pytest.raises(ValueError):
        tnn(1)
    with pytest.raises(ValueError):
        tpq(1, 3)
    with pytest.raises(ValueError):
        tpq(3, 2)
    with pytest.raises(ValueError):
        tpq_tight(2, 3)


def test_torus_params_normalize():
    assert normalize(5, 2) == (2, 5, False)
    assert normalize(-3, 2) == (2, 3, True)
    assert normalize(3, -2) == (2, 3, True)
    assert normalize(-4, -6) == (4, 6, False)
    with pytest.raises(ValueError, match=r"^\(1,7\) is the trivial knot"):
        normalize(7, -1)
    with pytest.raises(ValueError, match="^torus parameters must be nonzero$"):
        normalize(0, 3)


def test_bounds_examples():
    rep = bounds(2, 2)
    assert (rep.arc_index, rep.bridge_bound, rep.exact) == (4, 6, 6)
    assert rep.upper_tight is None
    rep = bounds(2, 3)
    assert (rep.arc_index, rep.bridge_bound, rep.upper_general) == (5, 6, 8)
    assert rep.exact is None
    rep = bounds(2, 5)
    assert rep.upper_tight == 11 == 2 * (2 + 5) - 3
    assert rep.upper_general == 12 == 2 * (2 + 5) - 2


def test_bounds_rejects_unnormalised_parameters():
    for p, q in ((3, 2), (1, 3)):
        with pytest.raises(ValueError,
                           match=rf"^need 2 <= p <= q, got p={p}, q={q}$"):
            bounds(p, q)


def test_bounds_orderings():
    for p in range(2, 6):
        for q in range(p, 8):
            rep = bounds(p, q)
            uppers = [u for u in (rep.upper_general, rep.upper_tight, rep.exact)
                      if u is not None]
            assert all(rep.bridge_bound <= u for u in uppers)
            assert all(rep.arc_index <= u for u in uppers)


def test_tight_q_equals_2p_layout_is_frozen():
    # the q = 2p branch of tpq_tight, captured before it stopped rotating pages
    assert [str(tpq_tight(p, 2 * p)) for p in range(2, 7)] == [
        "n=9; P1:2-9,3-8,4-7; P2:1-7,2-6,3-5; P3:1-4,5-9,6-8",
        "n=15; P1:2-15,3-14,4-13,5-12,6-11; P2:1-11,2-10,3-9,4-8,5-7; "
        "P3:1-6,7-15,8-14,9-13,10-12",
        "n=21; P1:2-21,3-20,4-19,5-18,6-17,7-16,8-15; "
        "P2:1-15,2-14,3-13,4-12,5-11,6-10,7-9; "
        "P3:1-8,9-21,10-20,11-19,12-18,13-17,14-16",
        "n=27; P1:2-27,3-26,4-25,5-24,6-23,7-22,8-21,9-20,10-19; "
        "P2:1-19,2-18,3-17,4-16,5-15,6-14,7-13,8-12,9-11; "
        "P3:1-10,11-27,12-26,13-25,14-24,15-23,16-22,17-21,18-20",
        "n=33; P1:2-33,3-32,4-31,5-30,6-29,7-28,8-27,9-26,10-25,11-24,12-23; "
        "P2:1-23,2-22,3-21,4-20,5-19,6-18,7-17,8-16,9-15,10-14,11-13; "
        "P3:1-12,13-33,14-32,15-31,16-30,17-29,18-28,19-27,20-26,21-25,22-24",
    ]
