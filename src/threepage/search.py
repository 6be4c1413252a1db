"""Exhaustive enumeration of canonical presentations, census and index search.

The enumeration is orderly generation in the sense of Read and Faradzev
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  It
fixes page 1, then page 2; the degree-two constraint then forces the
endpoint set of page 3, leaving only its non-crossing perfect matchings to
enumerate.  A canonical page triple is lexicographically no larger than any
of its six images under the order-6 symmetry group, so page 1 must not
exceed its own point-reversed copy, nor page 2 or its reversed copy.
Prefixes that fail these tests are cut before page 3 is enumerated.  Pages
are compared by rank in a sorted page table, so these tests compare ints
and the full orbit comparison runs on rank triples.  Streams are
deterministic and contain exactly one representative per orbit; pruning
only skips candidates, so the emission order is that of the plain
generate-and-filter pass.

The engine runs a search of any size it is given, and the count of
canonical presentations grows roughly eightfold per point.  Capping the
size is a policy of the command line (``threepage.cli``), which checks its
search limit before it starts a search.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .diagram import abs_linking_multiset, project
from .invariants import InvariantProfile, equal_up_to_mirror, profile
from .presentation import Arc, ThreePagePresentation, flip_page, orbit_images
from .torus import closure_profile


@dataclass(frozen=True)
class SearchConstraints:
    """Restrictions applied during enumeration, keyword-only after ``n``.

    ``prune_split_pairs`` discards presentations with a repeated arc (a
    split pair: the same endpoints on two pages, which certify
    splittability), that is, with fewer than n distinct arcs.  Only
    ``refute_t33_at_9`` sets it, which is sound because T(3,3) is non-split;
    ``census`` and ``three_page_index`` leave it off.  ``min_crossings``
    discards presentations whose projection has fewer crossings, counted as
    P1/P3 interleavings (``_crossing_count``) before any diagram is built;
    ``three_page_index`` sets it to ``crossing_floor`` of its target, which
    says why that is sound.  ``irreducible`` discards presentations that
    merge into one on fewer points.  A two-point merge takes a short arc
    (two points adjacent on the binding circle, so (1, n) counts too) on a
    page that holds another arc, whose ends meet two different arcs of one
    other page.  A one-point merge takes an arc (i, b) on a page Z that
    holds another arc, where a page Y covers i but not b and (i, b) crosses
    no arc of Y.  Only ``three_page_index`` sets it, and says why that is
    sound.  ``enumerate_presentations`` says where each rule runs, and which
    page sizes they leave.
    """

    n: int
    _: KW_ONLY
    required_components: Optional[int] = None
    prune_split_pairs: bool = False
    min_crossings: int = 0
    irreducible: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")


#: one shared tuple per arc, filled as ``noncrossing_matchings`` meets it,
#: so that every page holding an arc refers to the same object; an entry
#: depends only on its arc, so sharing it across searches changes no result
_ARCS: dict[Arc, Arc] = {}


def noncrossing_matchings(points: Sequence[int]) -> list[tuple[Arc, ...]]:
    """All non-crossing partial matchings of an increasing point sequence.

    Those of a run leave its first point free or join it to a later point,
    then match inside and after that arc.  ``runs[lo, hi]`` holds those of
    ``points[lo:hi]``, built once per call from the shorter runs."""
    runs: dict[tuple[int, int], list[tuple[Arc, ...]]] = {}
    for lo in range(len(points), -1, -1):
        runs[lo, lo] = [()]
        for hi in range(lo + 1, len(points) + 1):
            found = runs[lo + 1, hi][:]
            for j in range(lo + 1, hi):
                arc = (points[lo], points[j])
                head = (_ARCS.setdefault(arc, arc),)
                found += [head + m_in + m_out for m_in in runs[lo + 1, j]
                          for m_out in runs[j + 1, hi]]
            runs[lo, hi] = found
    return runs[0, len(points)]


def _join(ends: list[int], page: Sequence[Arc]) -> int:
    """Join the arcs of page onto the paths built so far, updating in place
    ``ends``: ends[x] is the other end of the path ending at x, or x itself
    before any arc meets x (after two arcs it is never read again).  Return
    the number of components closed, by arcs joining two ends of one path."""
    count = 0
    for i, j in page:
        a, b = ends[i], ends[j]
        if a == j:
            count += 1
        else:
            ends[a], ends[b] = b, a
    return count


def _component_count(pages: Sequence[tuple[Arc, ...]]) -> int:
    """Number of link components of a valid presentation."""
    ends = list(range(sum(map(len, pages)) + 1))  # n arcs on n points
    return sum(_join(ends, page) for page in pages)


def _crossing_count(pages: Sequence[Sequence[Arc]]) -> int:
    """Crossing count of the projection (``project``): the interleavings of
    page-1 arcs with page-3 arcs."""
    return sum(i < k < j < l or k < i < l < j
               for i, j in pages[0] for k, l in pages[2])


def _clear_chords(n: int, page: Sequence[Arc]) -> int:
    """Bit u * (n + 1) + v for each chord from a point u that page covers to
    a point v that it leaves free, if the chord crosses no arc of page.

    The arcs cut the half-plane into disk regions, and two points lie on a
    common region exactly when their chord crosses no arc.  A free point
    lies on one region, a covered one on the regions inside and around its
    arc.  One walk along the points, with a stack of the regions open
    there, finds them."""
    other = [0] * (n + 1)
    for i, j in page:
        other[i], other[j] = j, i
    free = [0]  # the mask of the free points on each region, 0 the outer one
    open_regions = [0]
    sides = []  # each covered point with the regions inside and around its arc
    for x in range(1, n + 1):
        y = other[x]
        if not y:
            free[open_regions[-1]] |= 1 << x
        elif y > x:  # x opens the region inside its arc
            sides.append((x, len(free), open_regions[-1]))
            open_regions.append(len(free))
            free.append(0)
        else:
            inside = open_regions.pop()
            sides.append((x, inside, open_regions[-1]))
    return sum((free[inside] | free[around]) << x * (n + 1)
               for x, inside, around in sides)


def _page_table(n: int, min_page: int, irreducible: bool) -> list[tuple]:
    """Every non-crossing matching of 1..n with between min_page and
    n - 2 * min_page arcs, in the order ``noncrossing_matchings`` gives:
    the pages in the window ``enumerate_presentations`` derives for them.

    An entry holds the matching, its rank (its place in tuple order), the
    rank of its point reversal (of the same size, so in the table too), the
    smaller of the two, the bitmask of the points it covers, the bitmask of
    its arcs (bit i * (n + 1) + j for arc (i, j)) and two masks of merge
    sites, 0 without the irreducible rule.  A merge moves an arc out of one
    page into another, so it needs a bit in the ``give`` mask of the one and
    in the ``take`` mask of the other.  Bit i, for i < n, is the adjacent
    pair (i, i + 1) of the binding circle, bit 0 the pair (n, 1): ``give``
    holds a page's short arcs if it has another arc, ``take`` the pairs it
    covers with two different arcs.  Bit u * (n + 1) + v is the chord from
    u to v: ``give`` holds a page's arcs, both ways round, if it has another
    arc, ``take`` the chords from a point it covers to one it leaves free
    that cross none of its arcs (``_clear_chords``)."""
    pages = [m for m in noncrossing_matchings(range(1, n + 1))
             if min_page <= len(m) <= n - 2 * min_page]
    rank = {m: r for r, m in enumerate(sorted(pages))}
    table = []
    for m in pages:
        r, rf = rank[m], rank[flip_page(n, m)]
        cover = sum(1 << i | 1 << j for i, j in m)
        arcs = sum(1 << i * (n + 1) + j for i, j in m)
        give = take = 0
        if irreducible:
            short = sum(1 << (i if j == i + 1 else 0) for i, j in m
                        if j - i in (1, n - 1))
            pairs = (cover & cover >> 1) | (cover >> n & cover >> 1 & 1)
            if len(m) > 1:
                give = short | arcs | sum(1 << j * (n + 1) + i for i, j in m)
            take = pairs & ~short | _clear_chords(n, m)
        table.append((m, r, rf, min(r, rf), cover, arcs, give, take))
    return table


def enumerate_presentations(c: SearchConstraints) -> Iterator[ThreePagePresentation]:
    """Canonical valid presentations on c.n points satisfying c, exactly one
    per symmetry orbit, in deterministic order.

    Every candidate is valid by construction: each page is a non-crossing
    matching, page 2 covers every point page 1 leaves free, and page 3 is a
    perfect matching of the points that still meet one arc.  Pages come from
    ``_page_table`` (in the window below), in order, and are compared by
    rank.  Page 2 runs over an index, built once per cover of page 1, of the
    entries that cover the points page 1 leaves free and leave page 3 at
    least min_page arcs.  A prefix (pages 1 and 2) is cut when the pages
    share an arc under the split-pair rule, or under the irreducible rule
    when an arc of page 1 merges into page 2 or one of page 2 into page 1,
    whatever page 3 is: a short arc across its binding segment, or an arc
    swung about one end.  Page 3 runs over a list: the entries of its cover
    that close exactly the missing components, kept per pairing of the path
    ends pages 1 and 2 leave.  Each leaf then meets the rest of the
    split-pair rule (an arc of page 3 on page 1 or 2), the rest of the
    irreducible rule (an arc of page 1 or 2 merging into page 3, or one of
    page 3 into page 1 or 2), the crossing floor (``_crossing_count``
    against ``min_crossings``) and the orbit test on the ranks.  The floor
    runs after the merge masks, which are cheaper and reject most of what it
    would.

    Every page holds min_page arcs or more: 1, or max(1, 4k - n) when
    split pairs are pruned and k components are required.  Then every
    component has 3 arcs or more (two would be a split pair); if t have
    exactly 3, n >= 3t + 4(k - t) gives t >= 4k - n, and any two arcs of a
    3-arc component meet at a point, so lie on different pages: one a page.
    """
    n = c.n
    floor = c.min_crossings
    split = c.prune_split_pairs
    required = c.required_components
    min_page = max(1, 4 * required - n) if split and required else 1
    table = _page_table(n, min_page, c.irreducible)
    by_cover: dict[int, list] = {}  # page 3 matches the points covered once
    for entry in table:
        by_cover.setdefault(entry[4], []).append(entry)
    partners = {x: itemgetter(*[i for i in range(n + 1) if x >> i & 1])
                for x in by_cover if x}  # reads the path ends of cover x
    page2: dict[int, list] = {}  # page 1's cover -> its page-2 candidates
    closing: dict[tuple, list] = {}  # (missing, end partners) -> page 3s
    for m1, r1, rf1, _, used1, arcs1, give1, take1 in table:
        if rf1 < r1 or not used1 & 2:  # else page 2 covers point 1: m2 < m1
            continue
        if used1 not in page2:
            free, most = ~used1 & (1 << n + 1) - 2, n - len(m1) - min_page
            page2[used1] = [e for e in table
                            if e[4] & free == free and len(e[0]) <= most]
        ends1 = list(range(n + 1))
        _join(ends1, m1)
        for m2, r2, rf2, low2, used2, arcs2, give2, take2 in page2[used1]:
            if low2 < r1:
                continue
            if split and arcs1 & arcs2 or give1 & take2 or give2 & take1:
                continue
            give12, take12 = give1 | give2, take1 | take2
            cover = used1 ^ used2
            page3 = by_cover[cover]
            if required is not None:
                ends = ends1[:]
                missing = required - _join(ends, m2)
                if missing < 1:  # the last arc of page 3 closes one
                    continue
                key = (missing, partners[cover](ends))
                page3 = closing.get(key)
                if page3 is None:
                    page3 = closing[key] = [p for p in by_cover[cover]
                                            if _join(ends[:], p[0]) == missing]
            for m3, r3, rf3, _, _, arcs3, give3, take3 in page3:
                if split and arcs3 & (arcs1 | arcs2):
                    continue
                if give12 & take3 or give3 & take12:
                    continue
                if floor and _crossing_count((m1, m2, m3)) < floor:
                    continue
                ranks = (r1, r2, r3)
                if min(orbit_images(ranks, (rf1, rf2, rf3))) == ranks:
                    yield ThreePagePresentation(n, (m1, m2, m3))


@dataclass(frozen=True)
class CensusEntry:
    presentation: ThreePagePresentation
    profile: InvariantProfile

    def line(self) -> str:
        prof = self.profile
        return (f"{self.presentation.serialize()} | "
                f"components={prof.component_count} | "
                f"jones={{{'; '.join(prof.jones_strings())}}}")


def census(n: int) -> list[CensusEntry]:
    """Full table of canonical presentations on n points, grouped by profile.

    Regeneration is deterministic down to the byte: entries are sorted by
    profile and serialisation, and all polynomial printing is canonical.
    Entries with equal profiles share one profile object.
    """
    shared: dict[InvariantProfile, InvariantProfile] = {}
    entries = []
    for pres in enumerate_presentations(SearchConstraints(n)):
        prof = profile(pres)
        entries.append(CensusEntry(pres, shared.setdefault(prof, prof)))
    entries.sort(key=lambda e: (e.profile.sort_key(), e.presentation.sort_key()))
    return entries


def census_text(entries: Sequence[CensusEntry]) -> str:
    return "".join(entry.line() + "\n" for entry in entries)


@dataclass(frozen=True, slots=True)
class IndexSearchResult:
    found: bool
    n: Optional[int]
    witness: Optional[ThreePagePresentation]
    searched_max: int
    #: candidates profiled, over every n searched
    profiled: int

    def __str__(self) -> str:
        if self.found:
            return f"index={self.n} witness: {self.witness}"
        return f"not found for n <= {self.searched_max}"


def crossing_floor(target: InvariantProfile) -> int:
    """A lower bound on the crossing count of every diagram of a link with
    this profile: max(span_t V - (k - 1), 2 * sum |lk|, 0) for k components.

    A diagram with c crossings in p split pieces (free loops included) has
    bracket span at most 4c + 4(p - 1) in A (Kauffman-Murasugi-Thistlethwaite
    for each connected piece, one loop factor per extra piece), and p <= k.
    With t = A^-4 that gives span_t V <= c + k - 1.  Components i and j
    cross each other at least 2 |lk(i, j)| times.  Both terms depend only on
    the profile up to mirror, so every candidate that matches the target has
    at least this many crossings.
    """
    span = max(p.terms[0][0] - p.terms[-1][0] for p in target.jones)
    k = target.component_count
    return max(-(-span // 4) - (k - 1), 2 * sum(target.abs_linking), 0)


def three_page_index(target: InvariantProfile, n_max: int) -> IndexSearchResult:
    """Smallest n <= n_max carrying a presentation whose profile matches the
    target up to mirror, by exhaustive canonical search.

    Only irreducible candidates with the target's component count and at
    least ``crossing_floor(target)`` crossings are profiled; no
    presentation of the target link or its mirror falls below that floor
    (see there).  A reducible presentation has a short arc (i, i + 1), or
    (1, n), on a page X that holds another arc, and the other arcs at its
    ends are two different arcs (a, i) and (i + 1, b) of one page Y.  The
    binding segment between i and i + 1 meets no other arc, so the short
    arc can be pushed across it into Y, where the three arcs become one
    arc (a, b) (Dynnikov, "Three-page approach to knot theory. Encoding and
    local moves", Funct. Anal. Appl. 33, 1999).  The arc (a, b) crosses no
    arc of Y, since the three arcs formed one curve in Y, and X and Y keep
    an arc each, so this is a presentation of the same link on n - 2 >= 3
    points.  For (1, n), a cyclic rotation of the points, which keeps
    every page non-crossing, makes the arc short first.  If the two arcs
    were one, the pair would be a split unknot; merging would lose a
    component, so that pair is left in the search.  Reducibility is the
    same for every symmetry image, so the canonical representative stands
    for its orbit.

    A presentation is also reducible when a point i meets an arc (a, i) on
    a page Y and an arc (i, b) on a page Z that holds another arc, where
    a != b, the other arc at b is not on Y, and (i, b) crosses no arc of Y
    (Dynnikov's one-point move, same reference).  Any two pages are
    adjacent around the binding, so the sector between Y and Z holds no
    arc, and (i, b) swings through it into Y without meeting anything.
    There a-i-b is one curve that meets no other arc of Y, so it lies in
    one disk region of Y, whose boundary holds a and b; lifting it off the
    binding at i gives an arc (a, b) inside that region.  It crosses no
    arc of Y and shares no end with one, since the other arcs at a and b
    lie off Y.  Z keeps an arc, and so does Y, so this is a presentation of
    the same link on n - 1 >= 3 points with three non-empty pages (Z holds
    two arcs and the other pages one each, so n >= 4).  These conditions
    too are the same for every symmetry image.

    By induction on n, the search therefore stops at n or before for any
    presentation on n <= n_max points whose profile matches the target.
    Such a presentation has the target's component count and, as a
    diagram of a link with that profile, at least the floor of crossings.
    If it is irreducible, its canonical image is profiled and matches.  If
    not, it merges into a presentation of the same link on n - 2 or n - 1
    points.  That one has the target's component count and at least the
    floor of crossings too, both being properties of the link, and its
    profile matches.  So a not-found result is unconditional: a
    presentation of the target link or its mirror would match, since the
    profile is an invariant of the link up to mirror, and the index
    exceeds n_max.  And no match on the n found can merge, or the search
    would have stopped before n.  So the rule skips no match there, and the
    witness, the first match in stream order, is the one the search finds
    without the rule.  A found witness only matches the profile, so it is
    no stronger than the profile oracle.
    """
    floor = crossing_floor(target)
    profiled = 0
    for n in range(3, n_max + 1):
        constraints = SearchConstraints(
            n, required_components=target.component_count, min_crossings=floor,
            irreducible=True)
        for pres in enumerate_presentations(constraints):
            profiled += 1
            if equal_up_to_mirror(profile(pres), target):
                return IndexSearchResult(True, n, pres, n_max, profiled)
    return IndexSearchResult(False, None, None, n_max, profiled)


@dataclass(frozen=True)
class RefutationReport:
    """Outcome of the exhaustive n=9 check against the (3,3)-torus link."""

    examined: int
    witnesses: tuple[ThreePagePresentation, ...]
    linking_candidates: int

    @property
    def refuted(self) -> bool:
        return not self.witnesses


def refute_t33_at_9() -> RefutationReport:
    """Show no 9-point presentation realises the (3,3)-torus link.

    The link has three components and is non-split, so a repeated arc (two
    arcs on different pages with the same endpoints) would certify
    splittability, and the search prunes repeats.  Three components on
    nine points then force three arcs on every page (the page-size window
    of ``enumerate_presentations`` says why), and every candidate of that
    forced space is examined against the closed torus braid.

    A candidate is a linking candidate when its |lk| multiset is the
    target's, (1, 1, 1), and only those are profiled.  Components i and j
    of a diagram cross at least 2 |lk(i, j)| times, so a linking candidate
    has at least 2 * sum |lk| = 6 crossings.  The crossings are the P1/P3
    interleavings, counted on the pages, so a candidate with fewer is
    decided without building its diagram, and ``linking_candidates`` stays
    the exact count.  No 9-point candidate has more than two crossings, so
    none is projected.  The full ``crossing_floor`` is not applied (it is 6
    here too, but its Jones-span term could skip a candidate with the
    target's |lk|), and neither is the enumerator's ``min_crossings``, on
    purpose: the count of examined candidates stays that of the whole
    forced space, 500.  The size is fixed at nine points and no search
    limit is read here; the command line checks its limit before it calls
    this.
    """
    target = closure_profile(3, 3)
    bound = 2 * sum(target.abs_linking)
    constraints = SearchConstraints(9, required_components=3, prune_split_pairs=True)
    examined = 0
    linking_candidates = 0
    witnesses: list[ThreePagePresentation] = []
    for pres in enumerate_presentations(constraints):
        examined += 1
        if _crossing_count(pres.pages) < bound:
            continue
        if abs_linking_multiset(project(pres)) != target.abs_linking:
            continue
        linking_candidates += 1
        if equal_up_to_mirror(profile(pres), target):
            witnesses.append(pres)
    return RefutationReport(examined, tuple(witnesses), linking_candidates)
