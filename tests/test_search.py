import hashlib
import itertools

import pytest

from threepage.braids import parse_word
from threepage import search
from threepage.diagram import abs_linking_multiset, braid_closure_diagram, project
from threepage.invariants import profile, equal_up_to_mirror
from threepage.presentation import (InvalidPresentationError, PlacedArc,
                                    components, detect_split_pair, flip_page,
                                    is_canonical, parse, validate)
from threepage.search import (SearchConstraints, _component_count,
                              _crossing_count, _page_table, census,
                              crossing_floor, enumerate_presentations,
                              noncrossing_matchings, refute_t33_at_9,
                              three_page_index)
from threepage.torus import (HOPF, UNKNOT_TRIANGLE, closure_profile, tnn, tpq,
                             tpq_tight)

from util import (canonicalize, insert_kink, merge_one_point, merge_short_arc,
                  naive_noncrossing_matchings, naive_valid_presentations,
                  one_point_merges, reducible, reference_filter,
                  reference_index, reference_matchings,
                  reference_presentations, reference_refute_t33,
                  short_arc_merges, trivial_profile)

#: canonical presentations on n points, n = 3..9
GOLDEN_COUNTS = {3: 2, 4: 10, 5: 44, 6: 294, 7: 1964, 8: 14636, 9: 112912}


def _all(n, **kw):
    return list(enumerate_presentations(SearchConstraints(n, **kw)))


def test_no_presentations_below_three_points():
    assert _all(1) == []
    assert _all(2) == []


def test_constraints_reject_non_positive_sizes():
    with pytest.raises(ValueError):
        SearchConstraints(0)


def test_constraints_take_options_by_keyword_only():
    # a positional option would shift onto the next field when one is
    # removed, so only n is positional
    with pytest.raises(TypeError):
        SearchConstraints(9, 3)
    assert SearchConstraints(n=9, required_components=3).required_components == 3


def test_three_points_gives_only_unknot_triangles():
    # the three arcs of a triangle can sit on the three pages in two ways
    # that the mirror-faithful order-6 group does not identify (swapping two
    # pages is excluded); both classes present the unknot
    found = _all(3)
    assert len(found) == 2
    assert canonicalize(UNKNOT_TRIANGLE) in found
    assert all(profile(p) == trivial_profile(1) for p in found)


def test_matching_generators_agree_with_naive_oracle():
    for n in range(0, 8):
        pts = tuple(range(1, n + 1))
        fast = {frozenset(m) for m in noncrossing_matchings(pts)}
        naive = {frozenset(m) for m in naive_noncrossing_matchings(pts)}
        assert fast == naive


def test_matchings_come_in_reference_order():
    # the page table, and so the stream, follows this order
    gapped = [(2, 3, 5, 8, 9), (1, 4, 6, 7, 10, 11, 12), (7,), (3, 9)]
    for pts in [tuple(range(1, n + 1)) for n in range(13)] + gapped:
        assert noncrossing_matchings(pts) == list(reference_matchings(pts)), pts


@pytest.mark.parametrize("n", range(1, 10))
def test_page_table_ranks_order_the_pages(n):
    for min_page in (1, 2, 3):
        table = _page_table(n, min_page, False)
        pages = [e[0] for e in table]
        assert pages == [m for m in reference_matchings(tuple(range(1, n + 1)))
                         if min_page <= len(m) <= n - 2 * min_page]
        # a bijection onto range(len(table)) that orders the pages as tuples
        assert sorted(e[1] for e in table) == list(range(len(table)))
        rank = {e[0]: e[1] for e in table}
        assert sorted(pages) == sorted(pages, key=rank.__getitem__)
        for m, r, rf, low, *_ in table:
            assert rf == rank[flip_page(n, m)] and low == min(r, rf)


def test_perfect_matchings_catalan_counts():
    # all matchings of n points are counted by the Motzkin numbers (the size
    # of the enumerator's page table); the perfect ones by the Catalan numbers
    for n, want in enumerate((1, 1, 2, 4, 9, 21, 51, 127, 323, 835)):
        assert sum(1 for _ in noncrossing_matchings(tuple(range(1, n + 1)))) == want

    def perfect(pts):
        return [m for m in noncrossing_matchings(pts) if 2 * len(m) == len(pts)]

    for pts, want in (((), 1), ((1, 2), 1), ((1, 2, 3, 4), 2),
                      ((1, 2, 3, 4, 5, 6), 5), (tuple(range(1, 9)), 14)):
        assert len(perfect(pts)) == want
    assert perfect((1, 2, 3)) == []


def test_enumeration_matches_naive_oracle_up_to_symmetry():
    for n in range(3, 7):
        fast = {p.sort_key() for p in _all(n)}
        naive = {canonicalize(p).sort_key() for p in naive_valid_presentations(n)}
        assert fast == naive, n


@pytest.mark.parametrize("n", sorted(GOLDEN_COUNTS))
def test_golden_canonical_counts(n):
    count = sum(1 for _ in enumerate_presentations(SearchConstraints(n)))
    assert count == GOLDEN_COUNTS[n]


def test_stream_equals_reference_over_constraint_grid():
    # the expensive part of the reference (validate + is_canonical on every
    # triple) depends only on n and the split-pair rule, so it runs once per
    # such pair; the component and crossing filters are applied per case,
    # in emission order.  The reference has no page-size window, so this
    # checks the one the enumerator derives with split pairs pruned: 2 at
    # n = 6 for two components, and an empty table at n = 4 and 5 for two
    # and at n <= 7 for three
    for n, split in itertools.product(range(3, 8), (False, True)):
        base = list(reference_presentations(
            SearchConstraints(n, prune_split_pairs=split)))
        for required, floor in itertools.product((None, 1, 2, 3), (0, 2, 3)):
            c = SearchConstraints(n, required_components=required,
                                  prune_split_pairs=split, min_crossings=floor)
            fast = list(enumerate_presentations(c))
            assert fast == [p for p in base if reference_filter(p, c)], c
            for pres in fast:
                assert validate(pres).ok and is_canonical(pres), (c, pres)


@pytest.mark.parametrize("c, count, digest", [
    (SearchConstraints(8), 14636,
     "3348d2683680b4dc404a6bfbd8df77e9e70013b17ba19ac4310dbeae82b59ec5"),
    (SearchConstraints(9), 112912,
     "697987255bade1b2da9d5a1cf473ffa805230123de9c332f66a7bf4ccb612a1e"),
    (SearchConstraints(9, required_components=3, prune_split_pairs=True), 500,
     "be789717b4f570b885325e4a112b069430efcab5bf92947c0f222e9792989487"),
    (SearchConstraints(9, required_components=1, min_crossings=4), 1212,
     "683888ed24ac9760d7692ebcb458130face666d9cc48533125f965e33a92c3c4"),
], ids=["n8", "n9", "refute", "n9-knots-floor4"])
def test_stream_order_is_frozen_beyond_the_reference(c, count, digest):
    # the reference comparison stops at n = 7, and three_page_index returns
    # the first match, so the order past it decides the printed witness;
    # the digest is of the serialised stream, one line per presentation
    lines = [pres.serialize() + "\n" for pres in enumerate_presentations(c)]
    assert len(lines) == count
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


def test_component_streams_partition_the_stream_past_the_reference():
    # the component count is decided per path-end pairing at the prefix;
    # at n = 8 each count's stream is an order-preserving subsequence of
    # the full stream, and the four of them partition it
    full = _all(8)
    position = {pres: i for i, pres in enumerate(full)}
    seen: set[int] = set()
    for k in range(1, 5):
        stream = _all(8, required_components=k)
        index = [position[pres] for pres in stream]
        assert all(a < b for a, b in zip(index, index[1:])), k
        assert seen.isdisjoint(index), k
        assert all(len(components(pres)) == k for pres in stream), k
        seen.update(index)
    assert len(seen) == len(full) == 14636


def test_floor_stream_filters_the_stream_past_the_reference():
    # the floor drops a leaf whose projection has too few crossings; at
    # n = 8 each floor's stream is the full stream filtered by the crossing
    # count of the projection, and floors 1 to 6 leave ever fewer of the
    # 140 page 1s of the full stream
    full = _all(8)
    counts = [len(project(pres).crossings) for pres in full]
    page1s = []
    for floor in range(1, 7):
        stream = _all(8, min_crossings=floor)
        assert stream == [p for p, c in zip(full, counts) if c >= floor], floor
        page1s.append(len({pres.pages[0] for pres in stream}))
    assert len({pres.pages[0] for pres in full}) == 140
    assert page1s == [118, 88, 40, 15, 1, 0]


@pytest.mark.parametrize("n", range(3, 10))
def test_irreducible_stream_filters_the_stream(n):
    # the rule runs at the prefix and at the leaf; the oracle tests each
    # short arc, and each arc at each of its ends, on its own.  Its prefix
    # cut composes with the page-2 index (the page-size window, 2 at n = 6
    # for two components and 3 at n = 9 for three) and the split-pair
    # masks, so both run with it too.  Every stream is a subsequence of the
    # full one, so the oracle runs once per presentation of that
    irreducible = {pres: not reducible(n, pres.pages) for pres in _all(n)}
    for kw in ({}, {"required_components": 1, "min_crossings": 3},
               {"required_components": 2}, {"prune_split_pairs": True},
               {"prune_split_pairs": True, "required_components": 3},
               {"prune_split_pairs": True, "required_components": 2,
                "min_crossings": 2}):
        want = [pres for pres in _all(n, **kw) if irreducible[pres]]
        assert _all(n, irreducible=True, **kw) == want, kw


def test_merged_presentations_keep_the_profile():
    # every short arc the rule merges away, on every canonical presentation
    # up to n = 7, leaves a valid presentation on n - 2 points (built by
    # ThreePagePresentation.of) with the same profile, not only up to mirror
    presentations = merges = 0
    for n in range(3, 8):
        for pres in _all(n):
            arcs = short_arc_merges(n, pres.pages)
            presentations += bool(arcs)
            for placed in arcs:
                merged = merge_short_arc(pres, placed)
                assert merged.n == n - 2
                assert profile(merged) == profile(pres), (pres, placed)
                merges += 1
    assert (presentations, merges) == (1501, 2582)


def test_one_point_merges_keep_the_profile():
    # every one-point merge of every canonical presentation up to n = 7
    # leaves a valid presentation on n - 1 points (built by
    # ThreePagePresentation.of) with the same profile, not only up to mirror
    presentations = merges = 0
    for n in range(3, 8):
        for pres in _all(n):
            sites = one_point_merges(n, pres.pages)
            presentations += bool(sites)
            if sites:
                prof = profile(pres)
            for i, placed in sites:
                merged = merge_one_point(pres, i, placed)
                assert merged.n == n - 1
                assert profile(merged) == prof, (pres, i, placed)
                merges += 1
    assert (presentations, merges) == (2259, 12076)


def test_irreducible_rule_keeps_a_single_arc_page():
    # the only arc of P1 is short and its ends meet two different arcs of
    # P3, but merging it would leave P1 empty; the presentation still
    # leaves the stream, since at point 1 the arc 1-4 of P3 swings into
    # P1, where 2-1-4 becomes one arc: the unknot on 3 points
    pres = parse("n=4; P1:1-2; P2:3-4; P3:1-4,2-3")
    assert short_arc_merges(4, pres.pages) == []
    with pytest.raises(InvalidPresentationError, match="P1 holds no arcs"):
        merge_short_arc(pres, PlacedArc(0, (1, 2)))
    assert (1, PlacedArc(2, (1, 4))) in one_point_merges(4, pres.pages)
    merged = merge_one_point(pres, 1, PlacedArc(2, (1, 4)))
    assert str(merged) == "n=3; P1:1-3; P2:2-3; P3:1-2"
    assert profile(merged) == profile(pres) == trivial_profile(1)
    assert pres in _all(4) and pres not in _all(4, irreducible=True)


@pytest.mark.parametrize("text, i, placed, guard", [
    ("n=3; P1:1-2; P2:2-3; P3:1-3", 1, PlacedArc(0, (1, 2)),
     "only arc of P1"),
    ("n=5; P1:1-2; P2:2-3,4-5; P3:1-5,3-4", 4, PlacedArc(1, (4, 5)),
     "other arc at 5 lies on P3"),
    ("n=6; P1:1-3,4-6; P2:2-6,3-5; P3:1-5,2-4", 1, PlacedArc(0, (1, 3)),
     r"\(1, 3\) crosses \(2, 4\) of P3"),
], ids=["single-arc-page", "b-on-the-same-page", "crossing"])
def test_one_point_rule_guards(text, i, placed, guard):
    # each site fails exactly one guard of the one-point merge: the
    # triangle's lone P1 arc, an arc whose far end meets the page it would
    # join, and the Hopf link's 1-3 of P1, which crosses 2-4 of P3; the
    # guard a != b is in the two-arc-component test
    pres = parse(text)
    assert (i, placed) not in one_point_merges(pres.n, pres.pages)
    with pytest.raises(ValueError, match=guard):
        merge_one_point(pres, i, placed)


@pytest.mark.parametrize("pres", [
    tpq(2, 3), tpq_tight(2, 5), tpq_tight(2, 6), tpq(3, 4), tnn(3), tnn(4),
    tpq(3, 5), tpq_tight(2, 7), tpq(4, 5),
    parse("n=8; P1:1-3,4-8,5-7; P2:2-7,3-6; P3:1-5,2-4,6-8"),
    parse("n=9; P1:1-3,4-9,5-8; P2:2-8,3-7,4-6; P3:1-6,2-5,7-9"),
    parse("n=11; P1:1-3,5-11,6-9; P2:2-11,3-7,4-6,8-10; P3:1-10,2-9,4-8,5-7"),
    parse("n=11; P1:1-3,5-11,6-10,7-9; P2:2-11,3-10,4-9,5-8; P3:1-8,2-7,4-6"),
    parse("n=12; P1:1-3,5-12,6-11,7-9; P2:2-11,3-10,4-9,5-8; "
          "P3:1-8,2-7,4-6,10-12"),
    parse("n=12; P1:1-3,5-12,6-10,7-9; P2:2-12,3-7,4-6,8-11; "
          "P3:1-11,2-10,4-9,5-8"),
    parse("n=13; P1:1-3,5-13,6-9,10-12; P2:2-13,3-12,4-8,5-7,9-11; "
          "P3:1-11,2-7,4-6,8-10"),
], ids=["tpq23", "tpq_tight25", "tpq_tight26", "tpq34", "tnn3", "tnn4",
        "tpq35", "tpq_tight27", "tpq45", "trefoil", "t24", "4_1", "t25",
        "t26", "5_2", "whitehead"])
def test_constructors_and_witnesses_are_irreducible(pres):
    # the paper's constructions and the index witnesses the search finds
    # (trefoil 8, T(2,4) 9, figure-eight 11, T(2,5) 11, T(2,6) 12, 5_2 12,
    # Whitehead 13) admit neither merge
    assert not reducible(pres.n, pres.pages)


def test_irreducible_rule_keeps_a_two_arc_component():
    # both ends of the short arc 1-2 of P3 meet the one arc 1-2 of P1: a
    # split unknot, which a merge would lose; the 2-component unlink needs
    # two of them at its index, 4
    pres = parse("n=4; P1:1-2; P2:3-4; P3:1-2,3-4")
    assert pres in _all(4, irreducible=True)
    assert not reducible(4, pres.pages)
    assert three_page_index(trivial_profile(2), 4).witness == pres
    with pytest.raises(ValueError, match="two-arc component"):
        merge_short_arc(pres, PlacedArc(2, (1, 2)))
    # nor may 1-2 of P3 swing about point 1 into P1: there a = b = 2
    assert (1, PlacedArc(2, (1, 2))) not in one_point_merges(4, pres.pages)
    with pytest.raises(ValueError, match="two-arc component"):
        merge_one_point(pres, 1, PlacedArc(2, (1, 2)))


def test_irreducible_rule_merges_the_arc_from_1_to_n():
    # 1 and n are adjacent on the binding circle: the only arc that merges
    # is 1-5 of P3, whose ends meet the arcs 1-2 and 3-5 of P1
    pres = parse("n=5; P1:1-2,3-5; P2:2-4; P3:1-5,3-4")
    assert short_arc_merges(5, pres.pages) == [PlacedArc(2, (1, 5))]
    assert pres in _all(5)
    assert pres not in _all(5, irreducible=True)
    merged = merge_short_arc(pres, PlacedArc(2, (1, 5)))
    assert str(merged) == "n=3; P1:1-2; P2:1-3; P3:2-3"
    assert profile(merged) == profile(pres)


def test_interleaving_count_and_floor_against_the_projection():
    # the crossing count the enumerator's floor and refute_t33_at_9 decide
    # by, counted on the pages, is the projection's; neither 2 * sum |lk|
    # (the bound refute_t33_at_9 decides before projecting) nor the floor
    # of a presentation's own profile ever exceeds it (the floor is what
    # three_page_index skips below, so this is its soundness oracle)
    total = tight = 0
    for n in range(3, 9):
        for pres in enumerate_presentations(SearchConstraints(n)):
            count = _crossing_count(pres.pages)
            d = project(pres)
            assert count == len(d.crossings), pres
            assert 2 * sum(abs_linking_multiset(d)) <= count, pres
            floor = crossing_floor(profile(pres))
            assert floor <= count, pres
            total += 1
            tight += floor == count
    assert (total, tight) == (16950, 9010)


def test_refute_t33_decides_every_candidate_before_projecting(monkeypatch):
    # T(3,3) has |lk| = (1, 1, 1), so a linking candidate needs 6 crossings;
    # the refutation stream has at most 2, so no candidate is projected and
    # the report is still the whole forced space with no linking candidate
    stream = _all(9, required_components=3, prune_split_pairs=True)
    counts = [_crossing_count(pres.pages) for pres in stream]
    assert {c: counts.count(c) for c in set(counts)} == {0: 444, 2: 56}
    calls = []

    def counted(pres):
        calls.append(pres)
        return project(pres)

    monkeypatch.setattr(search, "project", counted)
    report = refute_t33_at_9()
    assert calls == []
    assert (report.examined, report.linking_candidates, report.witnesses) == (
        500, 0, ())


def test_crossing_floor_of_small_links():
    def braid(word, strands):
        return profile(braid_closure_diagram(parse_word(word, strands)))

    assert crossing_floor(trivial_profile(1)) == 0
    assert crossing_floor(trivial_profile(3)) == 0
    assert crossing_floor(profile(HOPF)) == 2
    assert crossing_floor(closure_profile(2, 3)) == 3
    assert crossing_floor(braid("s1 -s2 s1 -s2", 3)) == 4
    assert crossing_floor(closure_profile(3, 3)) == 6


def test_enumerated_presentations_are_canonical_and_unique():
    seen = set()
    for pres in _all(6):
        assert is_canonical(pres)
        key = pres.sort_key()
        assert key not in seen
        seen.add(key)


def test_component_count_matches_the_walk():
    # the enumerator's path-end join against components(), on every
    # canonical presentation for n = 3..8 and on the refute-t33 stream
    streams = [_all(n) for n in range(3, 9)]
    assert sum(map(len, streams)) == 16950
    streams.append(_all(9, required_components=3, prune_split_pairs=True))
    assert len(streams[-1]) == 500
    for stream in streams:
        for pres in stream:
            assert _component_count(pres.pages) == len(components(pres)), pres


@pytest.mark.parametrize("n", range(3, 9))
def test_split_pair_pruning_is_sound(n):
    # the enumerator drops a presentation when its n arcs are not all
    # distinct, testing arc masks at the prefix and at the leaf;
    # detect_split_pair is the independent oracle
    full = _all(n)
    pruned = {p.sort_key() for p in _all(n, prune_split_pairs=True)}
    for pres in full:
        if detect_split_pair(pres) is None:
            assert pres.sort_key() in pruned
        else:
            assert pres.sort_key() not in pruned


def test_three_page_index_unknot():
    res = three_page_index(trivial_profile(1), 4)
    assert res.found and res.n == 3


def test_three_page_index_not_found_is_honest():
    res = three_page_index(closure_profile(2, 3), 5)
    assert not res.found and res.witness is None


def test_trefoil_absent_through_seven_points():
    # determines the trefoil's index: 8, witnessed by the (2,3) construction
    res = three_page_index(closure_profile(2, 3), 7)
    assert not res.found


@pytest.mark.parametrize("word, strands, n_max, printed, profiled", [
    ("s1 -s2 s1 -s2", 3, 10, "not found for n <= 10", 39),
    ("s1 s1 s1 s1 s1", 2, 10, "not found for n <= 10", 19),
    ("s1 -s2 s1 -s2", 3, 11, "index=11 witness: n=11; P1:1-3,5-11,6-9; "
     "P2:2-11,3-7,4-6,8-10; P3:1-10,2-9,4-8,5-7", 50),
    ("s1 s1 s1 s1 s1", 2, 11, "index=11 witness: n=11; P1:1-3,5-11,6-10,7-9; "
     "P2:2-11,3-10,4-9,5-8; P3:1-8,2-7,4-6", 27),
], ids=["figure-eight", "t25", "figure-eight-11", "t25-11"])
def test_index_exceeds_ten_for_the_figure_eight_and_t25(
        word, strands, n_max, printed, profiled):
    # an unconditional lower bound at 10, and both indices are 11, with the
    # witnesses the command line prints; the merge rules and the crossing
    # floor leave only a few dozen candidates to profile
    target = profile(braid_closure_diagram(parse_word(word, strands)))
    res = three_page_index(target, n_max)
    assert (str(res), res.profiled) == (printed, profiled)


@pytest.mark.parametrize("target, n_max, profiled, reference_profiled", [
    (trivial_profile(1), 4, 1, 1),
    (profile(HOPF), 6, 1, 114),
    (closure_profile(2, 3), 8, 1, 6398),
    (closure_profile(2, 4), 9, 7, 46284),
    (closure_profile(2, 3), 5, 0, 37),
    (trivial_profile(2), 6, 1, 1),
], ids=["unknot", "hopf", "trefoil", "t24", "trefoil-below-index", "unlink2"])
def test_crossing_floor_changes_the_work_not_the_result(
        target, n_max, profiled, reference_profiled):
    # the reference loop profiles every candidate, without the floor or the
    # irreducible rule; the search must find the same index and witness, or
    # the same nothing, and print it as before, without the count
    res = three_page_index(target, n_max)
    n, witness, ref_count = reference_index(target, n_max)
    assert (res.n, res.witness, res.found) == (n, witness, n is not None)
    assert (res.profiled, ref_count) == (profiled, reference_profiled)
    assert str(res) == (f"index={n} witness: {witness}" if n
                        else f"not found for n <= {n_max}")


def test_census_three_and_four():
    c3 = census(3)
    assert len(c3) == 2
    assert {e.profile for e in c3} == {trivial_profile(1)}
    for entry in census(4):
        assert entry.profile == trivial_profile(entry.profile.component_count)


def test_census_six_contains_a_hopf_entry():
    hopf_profile = profile(HOPF)
    assert any(equal_up_to_mirror(e.profile, hopf_profile) for e in census(6))


def test_census_entries_share_one_profile_object_per_value():
    # 294 entries, 4 profile values: the census keeps 4 profile objects
    entries = census(6)
    objects = {id(e.profile) for e in entries}
    assert len(objects) == len({e.profile for e in entries}) == 4


def test_census_lines_format():
    line = census(3)[0].line()
    assert line.startswith("n=3; ")
    assert "| components=1 |" in line
    assert line.endswith("jones={1}")


def test_census_profiles_monotone_under_kink_insertion():
    profiles4 = {e.profile.sort_key() for e in census(4)}
    profiles5 = {e.profile.sort_key() for e in census(5)}
    assert profiles4 <= profiles5
    witnesses5 = {e.presentation.sort_key() for e in census(5)}
    for entry in census(4):
        pres = entry.presentation
        bigger = insert_kink(pres, next(iter(pres.placed_arcs())))
        assert canonicalize(bigger).sort_key() in witnesses5
        assert profile(bigger) == entry.profile


def test_engine_reads_no_search_limit(monkeypatch):
    # the limit is a command-line policy; the library runs any size it is
    # given, whatever the environment holds
    monkeypatch.setenv("THREEPAGE_MAX_N", "abc")
    res = three_page_index(trivial_profile(1), 11)
    assert res.found and res.n == 3


def test_split_pruning_leaves_no_two_arc_component():
    # two arcs on different pages with the same endpoints form a split pair,
    # so split pruning alone keeps every component at three arcs or more
    for n in range(3, 9):
        for pres in _all(n, prune_split_pairs=True):
            assert min(map(len, components(pres))) >= 3, pres
    # the refute-t33 stream: three components of exactly three arcs each,
    # and the paper's forced space, found without the split-pair masks or
    # the page-size window; none of it is T(3,3), even up to mirror
    refute = _all(9, required_components=3, prune_split_pairs=True)
    assert len(refute) == 500
    assert all(sorted(map(len, components(p))) == [3, 3, 3] for p in refute)
    assert {tuple(map(len, p.pages)) for p in refute} == {(3, 3, 3)}
    assert reference_refute_t33() == refute
    target = closure_profile(3, 3)
    assert not any(equal_up_to_mirror(profile(p), target) for p in refute)


def test_enumerator_derives_the_page_size_window(monkeypatch):
    # the window is max(1, 4k - n) with split pairs pruned and k components
    # required, else 1; the refutation, census and index search each ask
    # the page table for theirs
    asked = []

    def table(n, min_page, irreducible):
        asked.append((n, min_page))
        return _page_table(n, min_page, irreducible)

    monkeypatch.setattr(search, "_page_table", table)
    for kw in ({"required_components": 3, "prune_split_pairs": True},
               {"required_components": 2, "prune_split_pairs": True}):
        for n in (6, 9):
            _all(n, **kw)
    assert asked == [(6, 6), (9, 3), (6, 2), (9, 1)]
    asked.clear()
    refute_t33_at_9()
    census(6)
    three_page_index(profile(HOPF), 6)
    _all(9, required_components=3)
    assert asked == [(9, 3), (6, 1)] + [(n, 1) for n in range(3, 7)] + [(9, 1)]
