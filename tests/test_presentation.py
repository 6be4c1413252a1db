import json

import pytest
from hypothesis import given, settings, strategies as st

from threepage import presentation
from threepage.diagram import project
from threepage.invariants import profile
from threepage.presentation import (InvalidPresentationError, ParseError,
                                    PlacedArc, ThreePagePresentation,
                                    ValidationReport, components,
                                    detect_split_pair, is_canonical, parse,
                                    symmetry_orbit, validate)
from threepage.render import RenderSpec, render
from threepage.search import SearchConstraints, enumerate_presentations
from threepage.torus import HOPF

from util import (canonicalize, insert_kink, reverse_points, walk_arcs,
                  walk_points, without_component)


def test_hopf_fixture_is_valid(hopf):
    report = validate(hopf)
    assert report.ok and not report.violations
    assert hopf.arc_count() == hopf.n == 6


def _trusted(n, *pages):
    """A presentation built by the plain constructor, which checks nothing."""
    return ThreePagePresentation(n, tuple(tuple(sorted(pg)) for pg in pages))


#: invalid presentations (n and pages) with the violations validate reports
INTERLEAVED = ((4, [(1, 3), (2, 4)], [(1, 2)], [(3, 4)]),
               ("arcs (1, 3) and (2, 4) interleave on page P1",))
EMPTY_PAGE = ((3, [(1, 2)], [(2, 3)], []),
              ("page P3 holds no arcs", "point 1 meets 1 arcs (expected 2)",
               "point 3 meets 1 arcs (expected 2)"))
SHARED_ENDPOINT = ((5, [(1, 2), (2, 3)], [(4, 5)], [(1, 3), (4, 5)]),
                   ("arcs (1, 2) and (2, 3) share point 2 on page P1",))
REPEATED_ARC = ((3, [(1, 2), (2, 1)], [(2, 3)], [(1, 3)]),
                ("arcs (1, 2) and (1, 2) share point 1 on page P1",
                 "point 1 meets 3 arcs (expected 2)",
                 "point 2 meets 3 arcs (expected 2)"))


def test_noncrossing_violation_detected():
    args, violations = INTERLEAVED
    assert validate(_trusted(*args)) == ValidationReport(False, violations)


def test_degree_and_empty_page_violations():
    args, violations = EMPTY_PAGE
    assert validate(_trusted(*args)).violations == violations


def test_shared_endpoint_on_one_page():
    args, violations = SHARED_ENDPOINT
    assert validate(_trusted(*args)).violations == violations


# each message is the one project raised when it still checked its input
@pytest.mark.parametrize("example, message", [
    (INTERLEAVED, "arcs (1, 3) and (2, 4) interleave on page P1"),
    (EMPTY_PAGE, "page P3 holds no arcs; point 1 meets 1 arcs (expected 2); "
                 "point 3 meets 1 arcs (expected 2)"),
    (SHARED_ENDPOINT, "arcs (1, 2) and (2, 3) share point 2 on page P1"),
    (REPEATED_ARC, "arcs (1, 2) and (1, 2) share point 1 on page P1; "
                   "point 1 meets 3 arcs (expected 2); "
                   "point 2 meets 3 arcs (expected 2)")],
    ids=["interleave", "empty-page", "shared-endpoint", "repeated-arc"])
def test_of_and_parse_reject_invalid_presentations(example, message):
    args, violations = example
    bad = _trusted(*args)
    for build in (lambda: ThreePagePresentation.of(*args),
                  lambda: parse(bad.serialize()),
                  lambda: parse(bad.to_json())):
        with pytest.raises(InvalidPresentationError) as info:
            build()
        assert str(info.value) == message
        assert info.value.report.violations == violations


def test_projection_trusts_a_valid_presentation(monkeypatch, hopf):
    calls = []
    real_validate = presentation.validate

    def counting_validate(p):
        calls.append(p)
        return real_validate(p)

    monkeypatch.setattr(presentation, "validate", counting_validate)
    components(hopf)
    project(hopf)
    profile(hopf)
    render(hopf)
    render(hopf, RenderSpec(format="ascii"))
    assert calls == []
    ThreePagePresentation.of(hopf.n, *hopf.pages)
    assert calls == [hopf]


def test_components_unknot_triangle(unknot_triangle):
    walks = components(unknot_triangle)
    assert walks == [((1, 0, 2), (2, 1, 3), (3, 2, 1))]


def test_components_hopf(hopf):
    walks = components(hopf)
    assert [walk_points(w) for w in walks] == [(1, 3, 5), (2, 6, 4)]
    assert [walk_arcs(w) for w in walks] == [
        [PlacedArc(0, (1, 3)), PlacedArc(1, (3, 5)), PlacedArc(2, (1, 5))],
        [PlacedArc(1, (2, 6)), PlacedArc(0, (4, 6)), PlacedArc(2, (2, 4))]]


def test_of_rejects_what_components_cannot_decompose():
    # point 1 and point 3 meet one arc each, so no walk closes
    with pytest.raises(InvalidPresentationError):
        ThreePagePresentation.of(3, [(1, 2)], [(2, 3)], [])


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
    bad = _trusted(4, [(1, 2), (3, 4)], [(1, 2)], [])
    assert not validate(bad).ok
    assert detect_split_pair(bad) == (PlacedArc(0, (1, 2)), PlacedArc(1, (1, 2)))


def test_canonicalize_idempotent(hopf):
    c = canonicalize(hopf)
    assert canonicalize(c) == c


def test_canonicalize_constant_on_orbit(hopf):
    c = canonicalize(hopf)
    assert canonicalize(list(symmetry_orbit(hopf))[1]) == c
    assert canonicalize(list(symmetry_orbit(hopf))[2]) == c
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
