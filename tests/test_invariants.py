import functools
import random

import pytest

from threepage.braids import BraidWord, torus_braid, torus_braid_small
from threepage.diagram import (PlanarDiagram, braid_closure_diagram,
                               project, trace)
from threepage.invariants import (CrossingLimitError, _contraction_order,
                                  bracket_skein, equal_up_to_mirror, jones_set,
                                  profile)
from threepage.laurent import LOOP, ONE, LaurentPoly
from threepage.presentation import ThreePagePresentation, symmetry_orbit
from threepage.search import SearchConstraints, enumerate_presentations
from threepage.torus import tnn, tpq, tpq_tight

from util import (bracket_statesum, disjoint_union, jones, reference_bracket,
                  reference_contraction_order, trivial_profile, walk_arcs,
                  without_component)

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
    (5, 6, lambda: braid_closure_diagram(torus_braid(5, 6))),
    (6, 7, lambda: braid_closure_diagram(torus_braid(6, 7))),
    (5, 9, lambda: braid_closure_diagram(torus_braid(5, 9))),
    (4, 13, lambda: braid_closure_diagram(torus_braid(4, 13))),
], ids=["T(2,5)", "T(3,4)", "T(3,5)", "T(4,7)", "tpq(4,7)", "tpq_tight(4,9)",
        "T(5,6)", "T(6,7)", "T(5,9)", "T(4,13)"])
def test_torus_knot_jones_closed_form(p, q, build):
    want = torus_knot_jones(p, q)
    prof = profile(build(), limit=64)
    assert prof.component_count == 1
    assert prof.jones in ({want}, {want.mirror()})


def torus_verify_pool():
    """The constructions that the torus-verify benchmark checks, with (p, q)."""
    return ((tnn(5), (5, 5)), (tnn(6), (6, 6)), (tpq(4, 7), (4, 7)),
            (tpq_tight(4, 9), (4, 9)))


def test_tnn5_orbit_profiles_match_closed_braid():
    # beyond the state sum's reach, the closed braid checks whole profiles
    # on large link diagrams; reference_bracket checks the arithmetic below
    for pres, (p, q) in torus_verify_pool():
        braid = profile(braid_closure_diagram(torus_braid(p, q)), limit=64)
        for image in symmetry_orbit(pres):
            assert profile(image, limit=64) == braid, (image, p, q)


def torus_verify_diagrams() -> list[PlanarDiagram]:
    """The 24 orbit images of tnn(5), tnn(6), tpq(4,7) and tpq_tight(4,9),
    20 to 34 crossings, and the closures of their 4 torus braids."""
    out = []
    for pres, (p, q) in torus_verify_pool():
        out += [project(image) for image in symmetry_orbit(pres)]
        out.append(braid_closure_diagram(torus_braid_small(p, q)))
    return out


def seeded_closures(seed: int, count: int, lengths: tuple[int, int]) -> list[PlanarDiagram]:
    """Closures of random braid words on 2 to 5 strands, one crossing per letter."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, 5)
        letters = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                   for _ in range(rng.randint(*lengths))]
        out.append(braid_closure_diagram(BraidWord.of(strands, letters)))
    return out


@pytest.mark.parametrize("build", [
    torus_verify_diagrams,
    lambda: [project(image) for image in symmetry_orbit(tnn(7))],
    lambda: seeded_closures(20261020, 100, (13, 30)),
], ids=["torus-verify", "tnn(7)", "closures-13-30"])
def test_packed_bracket_matches_dict_states(build):
    # beyond 12 crossings the state sum cannot check link diagrams; the dict
    # states compute the same frontier with plain {exponent: coeff} arithmetic
    diagrams = build()
    assert max(d.crossing_count() for d in diagrams) > 24
    for d in diagrams:
        assert bracket_skein(d, limit=64) == reference_bracket(d, limit=64)


def test_contraction_order_matches_recount():
    # an identical order means identical frontier states, state for state
    diagrams = [project(pres) for n in range(3, 8)
                for pres in enumerate_presentations(SearchConstraints(n))]
    diagrams += torus_verify_diagrams()
    diagrams += [project(image) for image in symmetry_orbit(tnn(7))]
    diagrams += seeded_closures(20261020, 100, (13, 30))
    assert len(diagrams) == 2 + 10 + 44 + 294 + 1964 + 28 + 6 + 100
    for d in diagrams:
        assert _contraction_order(d.crossings) == reference_contraction_order(d.crossings)


def test_bracket_of_unions_with_curls_and_free_loops():
    # pieces within the state sum's reach; unions of 3 to 5 of them reach 24
    # crossings, and states with different low exponents merge in them
    rng = random.Random(4242)
    curls = [braid_closure_diagram(BraidWord.of(2, [(1, s)])) for s in (1, -1)]
    loose = [braid_closure_diagram(BraidWord.of(
        rng.randint(3, 5), [(1, rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]))
        for _ in range(4)]
    pieces = curls + loose + seeded_closures(7, 10, (2, 8))
    assert all(d.free_loops for d in loose)
    brackets = [bracket_statesum(d) for d in pieces]
    for _ in range(20):
        chosen = [rng.randrange(len(pieces)) for _ in range(rng.randint(3, 5))]
        union = functools.reduce(disjoint_union, [pieces[i] for i in chosen])
        want = functools.reduce(LaurentPoly.__mul__, [brackets[i] for i in chosen],
                                LOOP ** (len(chosen) - 1))
        assert bracket_skein(union, limit=64) == want
