import json

import pytest
from hypothesis import given, settings, strategies as st

from threepage.presentation import (DegreeViolated, EndpointShared,
                                    InvalidPresentationError,
                                    NonCrossingViolated, PageEmpty, ParseError,
                                    PlacedArc, ThreePagePresentation,
                                    components, detect_split_pair,
                                    is_canonical, parse, rotate_pages,
                                    symmetry_orbit, validate)
from threepage.search import SearchConstraints, enumerate_presentations
from threepage.torus import HOPF

from util import canonicalize, insert_kink, reverse_points, without_component


def test_hopf_fixture_is_valid(hopf):
    report = validate(hopf)
    assert report.ok and not report.violations
    assert hopf.arc_count() == hopf.n == 6


def test_noncrossing_violation_detected():
    p = ThreePagePresentation.of(4, [(1, 3), (2, 4)], [(1, 2)], [(3, 4)])
    report = validate(p)
    assert not report.ok
    assert NonCrossingViolated(0, (1, 3), (2, 4)) in report.violations


def test_degree_and_empty_page_violations():
    p = ThreePagePresentation.of(3, [(1, 2)], [(2, 3)], [])
    report = validate(p)
    assert DegreeViolated(1, 1) in report.violations
    assert PageEmpty(2) in report.violations


def test_shared_endpoint_on_one_page():
    p = ThreePagePresentation.of(5, [(1, 2), (2, 3)], [(4, 5)], [(1, 3), (4, 5)])
    report = validate(p)
    assert any(isinstance(v, EndpointShared) and v.point == 2
               for v in report.violations)


def test_components_unknot_triangle(unknot_triangle):
    decomp = components(unknot_triangle)
    assert len(decomp.cycles) == 1
    assert len(decomp.cycles[0]) == 3


def test_components_hopf(hopf):
    decomp = components(hopf)
    assert len(decomp.cycles) == 2
    assert sorted(map(set, decomp.point_cycles)) == [{1, 3, 5}, {2, 4, 6}]
    assert all(len(c) == 3 for c in decomp.cycles)


def test_components_requires_validity():
    bad = ThreePagePresentation.of(3, [(1, 2)], [(2, 3)], [])
    with pytest.raises(InvalidPresentationError):
        components(bad)


def test_split_pair_detected():
    p = ThreePagePresentation.of(4, [(1, 2)], [(1, 2), (3, 4)], [(3, 4)])
    pair = detect_split_pair(p)
    assert pair == (PlacedArc(0, (1, 2)), PlacedArc(1, (1, 2)))


def _first_split_pair(pres):
    """Brute scan over all arc pairs in (page, arc) order."""
    placed = sorted(pres.placed_arcs())
    return next(((a, b) for i, a in enumerate(placed) for b in placed[i + 1:]
                 if a.arc == b.arc and a.page != b.page), None)


def test_split_pair_absent(hopf, unknot_triangle):
    # brute scan over all arc pairs as the independent check
    for pres in (hopf, unknot_triangle):
        assert _first_split_pair(pres) is None
        assert detect_split_pair(pres) is None
    # the same pair as the scan, on every orbit image of every canonical
    # presentation on 3..7 points, so pairs occur on each pair of pages
    found = set()
    for n in range(3, 8):
        for pres in enumerate_presentations(SearchConstraints(n)):
            for image in symmetry_orbit(pres):
                pair = detect_split_pair(image)
                assert pair == _first_split_pair(image), image
                if pair:
                    found.add((pair[0].page, pair[1].page))
    assert found == {(0, 1), (0, 2), (1, 2)}


def test_split_pair_needs_no_valid_presentation():
    # page 3 is empty and points 3, 4 meet one arc each
    bad = ThreePagePresentation.of(4, [(1, 2), (3, 4)], [(1, 2)], [])
    assert not validate(bad).ok
    assert detect_split_pair(bad) == (PlacedArc(0, (1, 2)), PlacedArc(1, (1, 2)))


def test_canonicalize_idempotent(hopf):
    c = canonicalize(hopf)
    assert canonicalize(c) == c


def test_canonicalize_constant_on_orbit(hopf):
    c = canonicalize(hopf)
    assert canonicalize(rotate_pages(hopf, 1)) == c
    assert canonicalize(rotate_pages(hopf, 2)) == c
    assert canonicalize(reverse_points(hopf)) == c
    assert len({q.sort_key() for q in symmetry_orbit(hopf)}) <= 6


def test_point_reversal_is_an_involution(hopf):
    assert reverse_points(reverse_points(hopf)) == hopf


def test_parse_native_and_roundtrip(unknot_triangle):
    assert parse("n=3; P1:1-2; P2:2-3; P3:1-3") == unknot_triangle
    assert parse(" n=3 ;P1: 1-2;  P2:2-3;P3:1-3 ") == unknot_triangle
    s = HOPF.serialize()
    assert parse(s).serialize() == s


def test_parse_json_mirror(hopf):
    assert parse(hopf.to_json()) == hopf
    assert json.loads(hopf.to_json())["n"] == 6


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("n=3; P1:1-4; P2:2-3; P3:1-3")
    with pytest.raises(ParseError):
        parse("n=3; P1:1-2; P2:2-3")
    with pytest.raises(ParseError):
        parse("nonsense")
    with pytest.raises(ParseError):
        parse("n=3; P1:1-1; P2:2-3; P3:1-3")


def test_insert_kink_valid_and_bigger(hopf):
    bigger = insert_kink(hopf, PlacedArc(0, (1, 3)))
    assert bigger.n == hopf.n + 1
    assert validate(bigger).ok


def test_without_component(hopf):
    rest = without_component(hopf, 0)
    assert rest.n == 3
    assert validate(rest).ok


def _random_presentations(n, count):
    out = []
    for pres in enumerate_presentations(SearchConstraints(n)):
        out.append(pres)
        if len(out) >= count:
            break
    return out


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 19))
def test_canonical_orbit_members_share_canonical_form(idx):
    pool = _random_presentations(6, 20)
    pres = pool[idx % len(pool)]
    forms = {canonicalize(q) for q in symmetry_orbit(pres)}
    assert len(forms) == 1
    assert is_canonical(pres)
