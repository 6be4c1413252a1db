"""Independent oracles and test-only helpers used by the tests.

The oracles deliberately avoid the library's fast paths so that test
expectations are computed along a different path than the code under test:
crossing signs come from semicircle calculus, the bracket from a sum over
all 2^c smoothing states and, beyond its reach, from the frontier
contraction on plain {exponent: coeff} dicts in an order recounted at every
step, enumeration counts from a naive generate-and-filter pass, the order
of the matchings from a plain recursive generator, the enumeration stream
from a reference pass that validates and canonicalizes every candidate,
the refutation's forced space from the split-pair detector on the plain
three-component stream, index searches from a loop that profiles every
candidate without the crossing floor, the irreducible rule from a test of each short arc and of
each arc at each of its ends, and braid equality from the action on a free
group.

The helpers build test inputs and read results from the library's own
machinery; nothing in the package calls them: the well-formedness check of
a diagram, the points and arcs of a component walk, the Jones polynomial of
one orientation, disjoint unions of diagrams, orientations given as point
cycles, kink insertion, short-arc and one-point merges, component
deletion, point reversal, the canonical orbit member, the unlink profile and
the zero polynomial.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from typing import Iterable, Iterator, Optional

from threepage.diagram import CrossingTuple, PlanarDiagram, project, trace
from threepage.invariants import (DEFAULT_CROSSING_LIMIT, CrossingLimitError,
                                  InvariantProfile, bracket_skein,
                                  equal_up_to_mirror, profile)
from threepage.laurent import LOOP, LaurentPoly, writhe_unit
from threepage.presentation import (Arc, PlacedArc, Step, ThreePagePresentation,
                                    arcs_interleave, components,
                                    detect_split_pair, is_canonical,
                                    symmetry_orbit, validate)
from threepage.search import SearchConstraints, enumerate_presentations

# -- geometric semicircle oracle -------------------------------------------------
#
# Page-1 and page-3 arcs are upper semicircles over the axis; an interleaved
# pair crosses once, where both tangents have the same x direction, so the
# sign of det[over, under] reduces to the sign of (under centre - over
# centre), flipped once per right-to-left traversal.


def geometric_signed_crossings(p: ThreePagePresentation,
                               directions: dict[tuple[int, int], int],
                               comp_of_arc: dict,
                               ) -> list[tuple[int, object, object]]:
    """(sign, under component, over component) per crossing of project(p).

    ``directions`` maps each arc on pages 1 and 3 to +1 (traversed left to
    right) or -1; ``comp_of_arc`` maps placed arcs to component keys.
    """
    out = []
    for under in p.pages[0]:
        for over in p.pages[2]:
            if not arcs_interleave(under, over):
                continue
            mu = Fraction(under[0] + under[1], 2)
            mo = Fraction(over[0] + over[1], 2)
            centre_sign = 1 if mu > mo else -1
            sign = directions[under] * directions[over] * centre_sign
            out.append((sign, comp_of_arc[(0, under)], comp_of_arc[(2, over)]))
    return out


def geometric_writhe_and_linking(p: ThreePagePresentation,
                                 point_cycles: list[tuple[int, ...]],
                                 ) -> tuple[int, dict[frozenset, int]]:
    """Writhe and pairwise linking numbers for the stated orientations.

    Orientations are given as directed binding-point cycles; arc directions
    follow from consecutive points in each cycle.
    """
    walks = components(p)
    directions: dict[tuple[int, int], int] = {}
    comp_of_arc: dict = {}
    for want in point_cycles:
        base_idx = next(i for i, walk in enumerate(walks)
                        if set(walk_points(walk)) == set(want))
        cycle = walk_arcs(walks[base_idx])
        for pa in cycle:
            comp_of_arc[pa] = base_idx
        for k, pt in enumerate(want):
            nxt = want[(k + 1) % len(want)]
            arc = (pt, nxt) if pt < nxt else (nxt, pt)
            assert any(pa.arc == arc for pa in cycle), (want, arc)
            directions[arc] = 1 if pt == arc[0] else -1
    signed = geometric_signed_crossings(p, directions, comp_of_arc)
    writhe = sum(s for s, _, _ in signed)
    linking: dict[frozenset, int] = {}
    for s, cu, co in signed:
        if cu != co:
            key = frozenset((cu, co))
            linking[key] = linking.get(key, 0) + s
    assert all(v % 2 == 0 for v in linking.values())
    return writhe, {k: v // 2 for k, v in linking.items()}


# -- naive enumeration oracle ----------------------------------------------------


def naive_noncrossing_matchings(points: tuple[int, ...]) -> list[tuple]:
    """All non-crossing partial matchings by filtering all partial matchings."""
    out = []

    def go(remaining: tuple[int, ...], acc: tuple) -> None:
        if not remaining:
            out.append(acc)
            return
        first, rest = remaining[0], remaining[1:]
        go(rest, acc)
        for k, other in enumerate(rest):
            arc = (first, other)
            if all(not arcs_interleave(arc, b) for b in acc):
                go(rest[:k] + rest[k + 1:], acc + (arc,))
    go(points, ())
    return out


def reference_matchings(points: tuple[int, ...]) -> Iterator[tuple]:
    """All non-crossing partial matchings of an increasing point sequence, in
    the order the library lists them: first those that leave the first
    point free, then, for each later point in turn, an arc to it followed
    by a matching inside that arc and one after it."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    yield from reference_matchings(rest)
    for k, other in enumerate(rest):
        inside, outside = rest[:k], rest[k + 1:]
        for m_in in reference_matchings(inside):
            for m_out in reference_matchings(outside):
                yield ((first, other),) + m_in + m_out


def naive_valid_presentations(n: int) -> list[ThreePagePresentation]:
    """Every valid presentation on n points by triple product and filtering."""
    points = tuple(range(1, n + 1))
    matchings = naive_noncrossing_matchings(points)
    out = []
    for m1, m2, m3 in itertools.product(matchings, repeat=3):
        if not (m1 and m2 and m3):
            continue
        if len(m1) + len(m2) + len(m3) != n:
            continue
        pres = ThreePagePresentation(n, (m1, m2, m3))
        if validate(pres).ok:
            out.append(pres)
    return out


def reference_filter(pres: ThreePagePresentation, c: SearchConstraints) -> bool:
    """The component and crossing constraints of c, checked through
    components() and the projected diagram."""
    return ((c.required_components is None
             or len(components(pres)) == c.required_components)
            and project(pres).crossing_count() >= c.min_crossings)


def reference_refute_t33() -> list[ThreePagePresentation]:
    """The forced space of the T(3,3) refutation at nine points, as the
    paper argues it: the canonical 3-component presentations with no split
    pair, found by detect_split_pair on the plain stream, without the
    enumerator's split-pair masks or page-size window."""
    return [pres for pres in enumerate_presentations(
                SearchConstraints(9, required_components=3))
            if detect_split_pair(pres) is None]


def reference_index(target: InvariantProfile, n_max: int
                    ) -> tuple[Optional[int], Optional[ThreePagePresentation], int]:
    """three_page_index without the crossing floor: (index, witness,
    candidates profiled), profiling every candidate with the target's
    component count."""
    profiled = 0
    for n in range(3, n_max + 1):
        for pres in enumerate_presentations(
                SearchConstraints(n, required_components=target.component_count)):
            profiled += 1
            if equal_up_to_mirror(profile(pres), target):
                return n, pres, profiled
    return None, None, profiled


def short_arc_merges(n: int, pages) -> list[PlacedArc]:
    """The arcs that the irreducible rule merges away, found arc by arc: a
    short arc (i, i + 1) or (1, n) on a page holding another arc, whose two
    ends meet two different arcs of one other page."""
    at: dict[int, list[PlacedArc]] = {pt: [] for pt in range(1, n + 1)}
    for page, arcs in enumerate(pages):
        for arc in arcs:
            for pt in arc:
                at[pt].append(PlacedArc(page, arc))
    out = []
    for page, arcs in enumerate(pages):
        for i, j in arcs:
            if len(arcs) < 2 or j - i not in (1, n - 1):
                continue
            placed = PlacedArc(page, (i, j))
            (at_i,) = [pa for pa in at[i] if pa != placed]
            (at_j,) = [pa for pa in at[j] if pa != placed]
            if at_i.page == at_j.page and at_i != at_j:
                out.append(placed)
    return out


def _one_point_obstacle(pages, i: int, z: int) -> Optional[str]:
    """Why the arc at point i on page z does not swing into the page of the
    other arc at i, or None if it does (see ``one_point_merges``)."""
    (arc_z,) = [arc for arc in pages[z] if i in arc]
    ((y, arc_y),) = [(page, arc) for page, arcs in enumerate(pages)
                     for arc in arcs if i in arc and page != z]
    a, b = sum(arc_y) - i, sum(arc_z) - i
    if a == b:
        return f"{arc_y} and {arc_z} form a two-arc component"
    if any(b in arc for arc in pages[y]):
        return f"the other arc at {b} lies on P{y + 1}"
    crossed = [arc for arc in pages[y] if arcs_interleave(arc_z, arc)]
    if crossed:
        return f"{arc_z} crosses {crossed[0]} of P{y + 1}"
    if len(pages[z]) < 2:
        return f"{arc_z} is the only arc of P{z + 1}"
    return None


def one_point_merges(n: int, pages) -> list[tuple[int, PlacedArc]]:
    """The one-point merges, found arc by arc: (i, the placed arc (i, b))
    for each point i whose arcs (a, i) on page Y and (i, b) on page Z have
    a != b, b's other arc not on Y, (i, b) crossing no arc of Y, and Z
    holding another arc (arcs in normal form, so (i, b) may be (b, i))."""
    return [(i, PlacedArc(z, arc)) for z, arcs in enumerate(pages)
            for arc in arcs for i in arc
            if _one_point_obstacle(pages, i, z) is None]


def reducible(n: int, pages) -> bool:
    """Whether the irreducible rule skips the presentation with these pages."""
    return bool(short_arc_merges(n, pages) or one_point_merges(n, pages))


def merge_one_point(p: ThreePagePresentation, i: int, placed: PlacedArc
                    ) -> ThreePagePresentation:
    """Swing the arc (i, b) of ``placed`` through the empty sector between
    its page Z and the page Y of the other arc (a, i) at i, then lift a-i-b
    off the binding as one arc (a, b) of Y, dropping point i: the same link
    on n - 1 points.  Raises ValueError if a guard of ``one_point_merges``
    fails.  The result is built and checked by ``ThreePagePresentation.of``."""
    z, arc_z = placed
    if placed not in set(p.placed_arcs()) or i not in arc_z:
        raise ValueError(f"{placed} not present at point {i}")
    obstacle = _one_point_obstacle(p.pages, i, z)
    if obstacle:
        raise ValueError(obstacle)
    ((y, arc_y),) = [pa for pa in p.placed_arcs() if i in pa.arc and pa != placed]
    pages: list[list[Arc]] = [[], [], []]
    for pa in p.placed_arcs():
        if pa not in (placed, (y, arc_y)):
            pages[pa.page].append(pa.arc)
    pages[y].append((sum(arc_y) - i, sum(arc_z) - i))

    def renumber(x: int) -> int:
        return x - 1 if x > i else x
    return ThreePagePresentation.of(
        p.n - 1, *[[(renumber(x), renumber(w)) for x, w in pg] for pg in pages])


def merge_short_arc(p: ThreePagePresentation, placed: PlacedArc) -> ThreePagePresentation:
    """Push the short arc ``placed`` across the binding segment between its
    ends into the page of the other arcs there, joining the three arcs into
    one and dropping its two points: the same link on n - 2 points.  The arc
    (1, n) is first made (1, 2) by rotating the points, i -> i % n + 1.
    The result is built and checked by ``ThreePagePresentation.of``."""
    n = p.n
    page, (i, j) = placed
    if placed not in set(p.placed_arcs()):
        raise ValueError(f"{placed} not present")
    if j != i + 1:
        if (i, j) != (1, n):
            raise ValueError(f"{placed} is not a short arc")
        rotated = ThreePagePresentation.of(
            n, *[[(a % n + 1, b % n + 1) for a, b in pg] for pg in p.pages])
        return merge_short_arc(rotated, PlacedArc(page, (1, 2)))
    (y, arc_i), (y_j, arc_j) = (
        next(pa for pa in p.placed_arcs() if pt in pa.arc and pa != placed)
        for pt in (i, j))
    if y != y_j:
        raise ValueError(f"the arcs at the ends of {placed} lie on two pages")
    if arc_i == arc_j:
        raise ValueError(f"{placed} and {arc_i} form a two-arc component")
    a, b = sum(arc_i) - i, sum(arc_j) - j
    pages: list[list[Arc]] = [[], [], []]
    for pa in p.placed_arcs():
        if pa not in (placed, (y, arc_i), (y, arc_j)):
            pages[pa.page].append(pa.arc)
    pages[y].append((a, b))

    def renumber(x: int) -> int:
        return x - 2 if x > j else x
    return ThreePagePresentation.of(
        n - 2, *[[(renumber(x), renumber(z)) for x, z in pg] for pg in pages])


def reference_presentations(c: SearchConstraints) -> Iterator[ThreePagePresentation]:
    """The enumeration stream by generate-then-filter, in library order.

    Each page runs over all non-crossing matchings of its points, of any
    size; page 2 is kept only if pages 1 and 2 cover every point, and page
    3 only if it is a perfect matching of the points they cover once.
    Every triple is built as an object and kept only if validate,
    is_canonical and reference_filter accept it, so the page-size window
    the enumerator derives is checked, not shared.
    """
    n = c.n
    points = tuple(range(1, n + 1))
    for m1 in reference_matchings(points):
        used1 = {pt for a in m1 for pt in a}
        for m2 in reference_matchings(points):
            if used1 | {pt for a in m2 for pt in a} != set(points):
                continue
            if c.prune_split_pairs and set(m1) & set(m2):
                continue
            degree = {pt: 0 for pt in points}
            for a in m1 + m2:
                degree[a[0]] += 1
                degree[a[1]] += 1
            deficit = tuple(pt for pt in points if degree[pt] == 1)
            if not deficit or len(m1) + len(m2) + len(deficit) // 2 != n:
                continue
            for m3 in reference_matchings(deficit):
                if 2 * len(m3) != len(deficit):
                    continue
                if c.prune_split_pairs and (set(m3) & set(m1) or set(m3) & set(m2)):
                    continue
                pres = ThreePagePresentation(n, (m1, m2, m3))
                if not validate(pres).ok:
                    continue
                if not is_canonical(pres):
                    continue
                if reference_filter(pres, c):
                    yield pres


# -- braid action on the free group ----------------------------------------------


def _reduce(word: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, s in word:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _substitute(word, images) -> tuple[tuple[int, int], ...]:
    expanded: list[tuple[int, int]] = []
    for g, s in word:
        img = images[g] if s > 0 else [(h, -t) for h, t in reversed(images[g])]
        expanded.extend(img)
    return _reduce(expanded)


def artin_images(strands: int, letters) -> tuple:
    """Images of the free generators under the braid's Artin action.

    This action is faithful, so equal images certify equal braids exactly.
    """
    images: list = [[(g, 1)] for g in range(strands)]
    for i, s in letters:
        a, b = i - 1, i
        xa, xb = images[a], images[b]
        if s > 0:
            images[a] = list(_substitute([(0, 1), (1, 1), (0, -1)], {0: xa, 1: xb}))
            images[b] = list(xa)
        else:
            images[a] = list(xb)
            images[b] = list(_substitute([(1, -1), (0, 1), (1, 1)], {0: xa, 1: xb}))
    return tuple(tuple(_reduce(img)) for img in images)


def braids_exactly_equal(w1, w2) -> bool:
    if w1.strands != w2.strands:
        return False
    return (artin_images(w1.strands, w1.letters)
            == artin_images(w2.strands, w2.letters))


# -- bracket state-sum oracle ------------------------------------------------------


def bracket_statesum(d: PlanarDiagram, limit: int = DEFAULT_CROSSING_LIMIT) -> LaurentPoly:
    """Bracket by direct expansion of all 2^c smoothing states.

    State smoothing of a crossing (t0, t1, t2, t3) joins (t0 t1)(t2 t3) in
    the A state and (t0 t3)(t1 t2) in the B state; each state contributes
    A^(a-b) delta^(loops-1).
    """
    if len(d.crossings) > limit:
        raise CrossingLimitError(
            f"{len(d.crossings)} crossings exceed the limit of {limit}")
    if not d.crossings:
        if d.free_loops == 0:
            raise ValueError("bracket of the empty diagram is undefined")
        return LOOP ** (d.free_loops - 1)
    c = len(d.crossings)
    edges = sorted({e for t in d.crossings for e in t})
    idx = {e: k for k, e in enumerate(edges)}
    m = len(edges)
    counts: dict[tuple[int, int], int] = {}
    for state in range(1 << c):
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        a_count = 0
        for k, t in enumerate(d.crossings):
            if state >> k & 1:
                pairs = ((t[0], t[1]), (t[2], t[3]))
                a_count += 1
            else:
                pairs = ((t[0], t[3]), (t[1], t[2]))
            for u, v in pairs:
                ru, rv = find(idx[u]), find(idx[v])
                if ru != rv:
                    parent[ru] = rv
        loops = len({find(x) for x in range(m)}) + d.free_loops
        key = (2 * a_count - c, loops)
        counts[key] = counts.get(key, 0) + 1
    out = LaurentPoly()
    for (diff, loops), mult in sorted(counts.items()):
        term = LaurentPoly.monomial(diff, mult) * (LOOP ** (loops - 1))
        out = out + term
    return out


def reference_contraction_order(crossings: tuple[CrossingTuple, ...]) -> list[int]:
    """``invariants._contraction_order`` by recounting: at every step each
    remaining crossing's growth is summed again over its edges against the
    set of open edges."""
    open_edges: set[int] = set()

    def growth(k: int) -> int:
        t = crossings[k]
        return sum(-1 if e in open_edges else 1 for e in t if t.count(e) == 1)

    left = list(range(len(crossings)))
    order: list[int] = []
    while left:
        best = min(left, key=growth)
        left.remove(best)
        order.append(best)
        t = crossings[best]
        open_edges.symmetric_difference_update(e for e in t if t.count(e) == 1)
    return order


#: delta^k = (-A^2 - A^-2)^k for the 0, 1 or 2 loops one crossing can close.
_LOOP_POWERS = ({0: 1}, {2: -1, -2: -1}, {4: 1, 0: 2, -4: 1})


def reference_bracket(d: PlanarDiagram, limit: int = DEFAULT_CROSSING_LIMIT) -> LaurentPoly:
    """``bracket_skein`` with each state's polynomial kept as an
    ``{exponent: coeff}`` dict: the same frontier, the same strand-join
    rule and the order of ``reference_contraction_order``, with plain dict
    arithmetic in place of the packed integers."""
    if len(d.crossings) > limit:
        raise CrossingLimitError(
            f"{len(d.crossings)} crossings exceed the limit of {limit}")
    if not d.crossings:
        if d.free_loops == 0:
            raise ValueError("bracket of the empty diagram is undefined")
        return LOOP ** (d.free_loops - 1)
    front: list[int] = []
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    order = reference_contraction_order(d.crossings)
    for k in order:
        t = d.crossings[k]
        uncounted = 1 if k == order[-1] else 0
        index = {e: i for i, e in enumerate(front)}
        new_front = [e for e in front if e not in t]
        for e in t:
            if e not in index:
                index[e] = len(index)
                if t.count(e) == 1:
                    new_front.append(e)
        i0, i1, i2, i3 = (index[e] for e in t)
        smoothings = ((((i0, i1), (i2, i3)), 1), (((i0, i3), (i1, i2)), -1))
        pad = [-1] * (len(index) - len(front))
        survivors = [index[e] for e in new_front]
        place = [-1] * len(index)
        for j, i in enumerate(survivors):
            place[i] = j
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for pairing, poly in states.items():
            for joins, shift in smoothings:
                partner = [*pairing, *pad]
                loops = -uncounted
                for x, y in joins:
                    if x == y or partner[x] == y:
                        loops += 1
                    else:
                        u = partner[x] if partner[x] >= 0 else x
                        v = partner[y] if partner[y] >= 0 else y
                        partner[u], partner[v] = v, u
                acc = nxt.setdefault(tuple([place[partner[i]] for i in survivors]), {})
                for fe, fc in _LOOP_POWERS[loops].items():
                    fe += shift
                    for e, c in poly.items():
                        e += fe
                        acc[e] = acc.get(e, 0) + c * fc
        front = new_front
        states = nxt
    total = LaurentPoly.from_dict(states[()])
    return total * LOOP ** d.free_loops if d.free_loops else total


# -- diagram and presentation helpers -----------------------------------------------


def assert_well_formed(d: PlanarDiagram) -> PlanarDiagram:
    """d, after asserting that every edge label sits at exactly two slots
    and that the free-loop count is not negative."""
    bad = {e: k for e, k in Counter(e for t in d.crossings for e in t).items() if k != 2}
    assert not bad, f"edges must occur exactly twice at crossings: {bad}"
    assert d.free_loops >= 0, f"negative free loop count {d.free_loops}"
    return d


def walk_points(walk: tuple[Step, ...]) -> tuple[int, ...]:
    """The binding points of a component walk, in walk order."""
    return tuple(x for x, _, _ in walk)


def walk_arcs(walk: tuple[Step, ...]) -> list[PlacedArc]:
    """The placed arcs of a component walk, in walk order."""
    return [PlacedArc(page, (min(x, y), max(x, y))) for x, page, y in walk]


def jones(d: PlanarDiagram, flips: tuple[bool, ...],
          limit: int = DEFAULT_CROSSING_LIMIT) -> LaurentPoly:
    """Writhe-normalised bracket f = (-A^3)^(-w) <D>, in the A variable.

    Invariant under all Reidemeister moves, hence an invariant of the
    oriented link presented by the diagram.
    """
    return writhe_unit(-trace(d).writhe(flips)) * bracket_skein(d, limit)


def disjoint_union(d1: PlanarDiagram, d2: PlanarDiagram) -> PlanarDiagram:
    shift = (max((e for t in d1.crossings for e in t), default=-1)) + 1
    moved = tuple(tuple(e + shift for e in t) for t in d2.crossings)
    return assert_well_formed(PlanarDiagram(d1.crossings + moved,  # type: ignore[arg-type]
                                            d1.free_loops + d2.free_loops))


def orientation_from_point_cycles(p: ThreePagePresentation, d: PlanarDiagram,
                                  wanted: Iterable[tuple[int, ...]]) -> tuple[bool, ...]:
    """Translate per-component directions, given as binding-point cycles like
    (1, 3, 5) for 1 -> 3 -> 5 -> 1, into orientation flips for project(p)."""
    if d.walk_heads is None:
        raise ValueError("diagram lacks projection walk data")
    point_cycles = [walk_points(walk) for walk in components(p)]
    tr = trace(d)
    flips = [False] * tr.component_count
    wanted_list = list(wanted)
    if len(wanted_list) != len(point_cycles):
        raise ValueError(f"expected {len(point_cycles)} point cycles")
    for base, want, head in zip(point_cycles, wanted_list, d.walk_heads):
        if set(base) != set(want) or len(base) != len(want):
            raise ValueError(f"cycle {want} does not match component {base}")
        k = want.index(base[0])
        rotated = want[k:] + want[:k]
        if rotated == base:
            reversed_walk = False
        elif rotated == (base[0],) + tuple(reversed(base[1:])):
            reversed_walk = True
        else:
            raise ValueError(f"{want} is not a rotation or reversal of {base}")
        if head is None:  # crossing-free component: direction is immaterial
            continue
        first_edge, walk_head = head
        agrees = tr.edge_direction[first_edge][1] == walk_head
        flips[tr.edge_component[first_edge]] = reversed_walk == agrees
    return tuple(flips)


def insert_kink(p: ThreePagePresentation, placed: PlacedArc) -> ThreePagePresentation:
    """Split one end of an arc through the third page, adding one point.

    The strand heading into the right endpoint of ``placed`` is made to dip
    briefly into the page carrying neither of that endpoint's arcs.  This is
    an isotopy of the presented link, so the result presents the same link
    with n+1 points.
    """
    page, (a, b) = placed
    if placed.arc not in p.pages[page]:
        raise ValueError(f"{placed} not present")
    other = next(pa for pa in p.placed_arcs() if b in pa.arc and pa != placed)
    detour_page = next(k for k in range(3) if k not in (page, other.page))
    # New point sits immediately left of b; old points >= b shift up by one.
    def shift(x: int) -> int:
        return x + 1 if x >= b else x
    new_pages: list[list[Arc]] = [[], [], []]
    for q_page, (i, j) in p.placed_arcs():
        if (q_page, (i, j)) == (page, (a, b)):
            continue
        new_pages[q_page].append((shift(i), shift(j)))
    c = b  # the fresh point, taking b's old position
    new_pages[page].append((shift(a), c) if shift(a) < c else (c, shift(a)))
    new_pages[detour_page].append((c, c + 1))
    return ThreePagePresentation.of(p.n + 1, *new_pages)


def without_component(p: ThreePagePresentation, index: int) -> ThreePagePresentation:
    """Delete one component and renumber the remaining points."""
    dropped = set(walk_arcs(components(p)[index]))
    kept_points = sorted({pt for pa in set(p.placed_arcs()) - dropped for pt in pa.arc})
    renum = {pt: k + 1 for k, pt in enumerate(kept_points)}
    pages: list[list[Arc]] = [[], [], []]
    for pa in p.placed_arcs():
        if pa in dropped:
            continue
        i, j = pa.arc
        pages[pa.page].append((renum[i], renum[j]))
    return ThreePagePresentation.of(len(kept_points), *pages)


def reverse_points(p: ThreePagePresentation) -> ThreePagePresentation:
    """Reverse the point order together with the cyclic page order."""
    return list(symmetry_orbit(p))[3]


def canonicalize(p: ThreePagePresentation) -> ThreePagePresentation:
    """Lexicographically smallest member of the order-6 symmetry orbit."""
    return ThreePagePresentation(p.n, min(q.pages for q in symmetry_orbit(p)))


def trivial_profile(k: int) -> InvariantProfile:
    """Profile of the k-component unlink."""
    return InvariantProfile(k, (0,) * (k * (k - 1) // 2), frozenset({LOOP ** (k - 1)}))


#: The zero polynomial.
ZERO = LaurentPoly()
