import pytest

from threepage.presentation import validate
from threepage.torus import (HOPF, TorusParams, bounds, closure_profile, tnn,
                             tpq, tpq_tight)
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
    params, mirrored = TorusParams.normalize(5, 2)
    assert (params.p, params.q) == (2, 5) and not mirrored
    params, mirrored = TorusParams.normalize(-3, 2)
    assert (params.p, params.q) == (2, 3) and mirrored
    params, mirrored = TorusParams.normalize(-4, -6)
    assert (params.p, params.q) == (4, 6) and not mirrored
    assert params.components == 2
    with pytest.raises(ValueError):
        TorusParams.normalize(1, 7)
    with pytest.raises(ValueError):
        TorusParams.normalize(0, 3)


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


def test_bounds_orderings():
    for p in range(2, 6):
        for q in range(p, 8):
            rep = bounds(p, q)
            uppers = [u for u in (rep.upper_general, rep.upper_tight, rep.exact)
                      if u is not None]
            assert all(rep.bridge_bound <= u for u in uppers)
            assert all(rep.arc_index <= u for u in uppers)
