import random

import pytest

from threepage.braids import BraidWord, torus_braid
from threepage.diagram import (PlanarDiagram, braid_closure_diagram,
                               project, trace)
from threepage.invariants import (CrossingLimitError, bracket_skein,
                                  equal_up_to_mirror, jones_set, profile)
from threepage.laurent import LOOP, ONE, LaurentPoly
from threepage.presentation import ThreePagePresentation, symmetry_orbit
from threepage.torus import tnn, tpq, tpq_tight

from util import (bracket_statesum, disjoint_union, jones, trivial_profile,
                  walk_arcs, without_component)

HOPF_BRACKET = LaurentPoly.from_dict({4: -1, -4: -1})
TREFOIL_JONES = LaurentPoly.from_dict({-4: 1, -12: 1, -16: -1})


def test_bracket_unknot_is_one(unknot_triangle):
    d = project(unknot_triangle)
    assert bracket_statesum(d) == ONE
    assert bracket_skein(d) == ONE


def test_bracket_split_two_component_unlink():
    p = ThreePagePresentation.of(4, [(1, 2)], [(1, 2), (3, 4)], [(3, 4)])
    d = project(p)
    assert d.crossing_count() == 0 and d.free_loops == 2
    assert bracket_statesum(d) == LOOP
    assert bracket_skein(d) == LOOP


def test_bracket_hopf_fixture(hopf):
    d = project(hopf)
    assert bracket_statesum(d) == HOPF_BRACKET
    assert bracket_skein(d) == HOPF_BRACKET


def test_bracket_hopf_braid(hopf_braid_diagram):
    assert bracket_statesum(hopf_braid_diagram) == HOPF_BRACKET
    assert bracket_skein(hopf_braid_diagram) == HOPF_BRACKET


def test_skein_agrees_with_statesum_on_trefoil(trefoil_diagram):
    assert bracket_skein(trefoil_diagram) == bracket_statesum(trefoil_diagram)


def test_jones_trefoil_standard_up_to_mirror(trefoil_diagram):
    for o in trace(trefoil_diagram).orientations():
        f = jones(trefoil_diagram, o)
        assert f in (TREFOIL_JONES, TREFOIL_JONES.mirror())


def test_jones_unknot_with_kinks():
    # curl-heavy unknot: closure of s1 on 2 strands plus nothing else
    d = braid_closure_diagram(BraidWord.of(2, [(1, 1)]))
    assert jones(d, (False,)) == ONE
    d = braid_closure_diagram(BraidWord.of(2, [(1, -1)]))
    assert jones(d, (False,)) == ONE


def test_bracket_of_disjoint_union_multiplies_with_loop(trefoil_diagram,
                                                        hopf_braid_diagram):
    u = disjoint_union(trefoil_diagram, hopf_braid_diagram)
    assert bracket_skein(u) == (LOOP * bracket_skein(trefoil_diagram)
                                * bracket_skein(hopf_braid_diagram))


def test_hopf_fixture_profile_matches_hopf_braid(hopf, hopf_braid_diagram):
    assert equal_up_to_mirror(profile(hopf), profile(hopf_braid_diagram))


def test_profile_examples(hopf, unknot_triangle):
    unknot = profile(unknot_triangle)
    assert unknot == trivial_profile(1)
    hopf_prof = profile(hopf)
    assert hopf_prof.component_count == 2
    assert hopf_prof.abs_linking == (1,)
    t33 = profile(tnn(3))
    assert t33.component_count == 3
    assert t33.abs_linking == (1, 1, 1)
    assert equal_up_to_mirror(
        t33, profile(braid_closure_diagram(torus_braid(3, 3))))


def test_mirror_pair_profiles_equal():
    left = profile(braid_closure_diagram(BraidWord.of(2, [(1, 1)] * 3)))
    right = profile(braid_closure_diagram(BraidWord.of(2, [(1, -1)] * 3)))
    assert equal_up_to_mirror(left, right)
    assert left.jones != right.jones  # genuinely mirrored, not equal


def test_unknot_vs_hopf_profiles_differ(hopf, unknot_triangle):
    assert not equal_up_to_mirror(profile(unknot_triangle), profile(hopf))


def test_profile_invariant_on_symmetry_orbit(hopf):
    profiles = {profile(q).sort_key() for q in symmetry_orbit(hopf)}
    assert len(profiles) == 1
    for q in symmetry_orbit(tnn(3)):
        assert profile(q) == profile(tnn(3))


def test_crossing_limit_enforced(trefoil_diagram):
    with pytest.raises(CrossingLimitError):
        bracket_statesum(trefoil_diagram, limit=2)
    with pytest.raises(CrossingLimitError):
        bracket_skein(trefoil_diagram, limit=2)


def test_statesum_equals_skein_randomized():
    rng = random.Random(20240801)

    def closure(strands: int, length: int, generators: int) -> PlanarDiagram:
        letters = [(rng.randint(1, generators), rng.choice((1, -1)))
                   for _ in range(length)]
        return braid_closure_diagram(BraidWord.of(strands, letters))

    checked = 0
    while checked < 40:
        strands = rng.randint(2, 4)
        d = closure(strands, rng.randint(1, 8), strands - 1)
        if d.crossing_count() > 10:
            continue
        assert bracket_statesum(d) == bracket_skein(d)
        checked += 1
    # one-letter closures on 2 strands are single curls
    curls = [braid_closure_diagram(BraidWord.of(2, [(1, s)])) for s in (1, -1)]
    # letters on s1 only leave the other strands as free loops
    loose = [closure(rng.randint(3, 5), rng.randint(1, 4), 1) for _ in range(6)]
    parts = curls + loose + [closure(3, rng.randint(1, 4), 2) for _ in range(6)]
    unions = [disjoint_union(rng.choice(parts), rng.choice(parts))
              for _ in range(12)]
    extra = curls + loose + unions + [disjoint_union(unions[0], curls[1])]
    curl_slots = {(s, (s + 1) % 4) for d in extra for t in d.crossings
                  for s in range(4) if t[s] == t[(s + 1) % 4]}
    assert curl_slots == {(0, 1), (1, 2), (2, 3), (3, 0)}
    assert all(d.free_loops for d in loose)
    for d in extra:
        assert d.crossing_count() <= 12
        assert bracket_statesum(d) == bracket_skein(d)


def test_profile_traces_once(monkeypatch):
    from threepage import diagram, invariants

    calls = []
    real_trace = diagram.trace

    def counting_trace(d):
        calls.append(d)
        return real_trace(d)

    for module in (diagram, invariants):
        monkeypatch.setattr(module, "trace", counting_trace)
    assert profile(tnn(3)) == profile(project(tnn(3)))
    assert len(calls) == 2


def test_jones_set_orientation_count(hopf):
    d = project(hopf)
    js = jones_set(d)
    assert 1 <= len(js) <= 4
    prof = profile(hopf)
    assert prof.jones == js


def test_split_pair_profile_factorizes():
    """A doubled arc certifies splittability: the profile must factor as
    (rest) x (unlinked unknot), even when the projection still shows
    crossings between the pair and the rest."""
    from threepage.presentation import components, detect_split_pair, parse

    double_pair = parse("n=4; P1:1-2; P2:1-2,3-4; P3:3-4")
    assert detect_split_pair(double_pair) is not None
    assert profile(double_pair) == trivial_profile(2)

    # here the projection has two crossings between the doubled pair and the
    # other component, yet the profile still splits off an unlinked unknot
    pres = parse("n=7; P1:1-2,4-7; P2:2-3,4-7,5-6; P3:1-6,3-5")
    pair = detect_split_pair(pres)
    assert pair is not None
    assert project(pres).crossing_count() == 2
    pair_idx = next(i for i, walk in enumerate(components(pres))
                    if pair[0] in walk_arcs(walk))
    rest = without_component(pres, pair_idx)
    full = profile(pres)
    partial = jones_set(project(rest))
    assert full.jones == frozenset(f * LOOP for f in partial)
    assert set(full.abs_linking) <= {0}


def torus_knot_jones(p: int, q: int) -> LaurentPoly:
    """Jones polynomial of the (p,q)-torus knot from the closed form
    V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
    (Jones, Ann. Math. 1987), written in A through t = A^-4."""
    num = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quot: dict[int, int] = {}
    # the quotient has degree p+q-2; divide by 1 - t^2 from the low end
    for k in range(p + q - 1):
        quot[k] = num.get(k, 0) + quot.get(k - 2, 0)
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly.from_dict({-4 * (k + shift): c for k, c in quot.items()})


@pytest.mark.parametrize("p, q, build", [
    (2, 5, lambda: braid_closure_diagram(torus_braid(2, 5))),
    (3, 4, lambda: braid_closure_diagram(torus_braid(3, 4))),
    (3, 5, lambda: braid_closure_diagram(torus_braid(3, 5))),
    (4, 7, lambda: braid_closure_diagram(torus_braid(4, 7))),
    (4, 7, lambda: project(tpq(4, 7))),
    (4, 9, lambda: project(tpq_tight(4, 9))),
], ids=["T(2,5)", "T(3,4)", "T(3,5)", "T(4,7)", "tpq(4,7)", "tpq_tight(4,9)"])
def test_torus_knot_jones_closed_form(p, q, build):
    want = torus_knot_jones(p, q)
    prof = profile(build(), limit=64)
    assert prof.component_count == 1
    assert prof.jones in ({want}, {want.mirror()})


def test_tnn5_orbit_profiles_match_closed_braid():
    # beyond the state sum's reach, the closed braid is the only oracle
    # for the contraction on large link diagrams
    for pres, (p, q) in ((tnn(5), (5, 5)), (tnn(6), (6, 6)), (tpq(4, 7), (4, 7)),
                         (tpq_tight(4, 9), (4, 9))):
        braid = profile(braid_closure_diagram(torus_braid(p, q)), limit=64)
        for image in symmetry_orbit(pres):
            assert profile(image, limit=64) == braid, (image, p, q)
