"""Exhaustive enumeration of canonical presentations, census and index search.

The enumeration is orderly generation in the sense of Read and Faradzev
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  It
fixes page 1, then page 2; the degree-two constraint then forces the
endpoint set of page 3, leaving only its non-crossing perfect matchings to
enumerate.  A canonical page triple is lexicographically no larger than any
of its six images under the order-6 symmetry group, so page 1 must not
exceed its own point-reversed copy, nor page 2 or its reversed copy.
Prefixes that fail these tests are cut before page 3 is enumerated, and the
full orbit comparison runs on int tuples.  Streams are deterministic and
contain exactly one representative per orbit; pruning only skips
candidates, so the emission order is that of the plain generate-and-filter
pass.

The engine runs a search of any size it is given, and the count of
canonical presentations grows roughly eightfold per point.  Capping the
size is a policy of the command line (``threepage.cli``), which checks its
search limit before it starts a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .invariants import InvariantProfile, equal_up_to_mirror, profile
from .presentation import Arc, ThreePagePresentation, flip_page, orbit_images


@dataclass(frozen=True)
class SearchConstraints:
    """Restrictions applied during enumeration.

    ``prune_split_pairs`` discards presentations containing two arcs with
    identical endpoints on different pages; sound when the search target is
    a non-split link, since such a pair certifies splittability.
    ``min_arcs_per_page`` encodes the bridge-number bound (every page of a
    presentation of L carries at least br(L) arcs).
    """

    n: int
    required_components: Optional[int] = None
    prune_split_pairs: bool = False
    min_arcs_per_page: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")


def noncrossing_matchings(points: Sequence[int],
                          must_cover: frozenset[int] = frozenset(),
                          ) -> Iterator[tuple[Arc, ...]]:
    """All non-crossing partial matchings of an increasing point sequence,
    required to cover every point of ``must_cover``; covering every point
    gives the perfect matchings (none for an odd count)."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    if first not in must_cover:
        yield from noncrossing_matchings(rest, must_cover)
    for k, other in enumerate(rest):
        inside, outside = rest[:k], rest[k + 1:]
        for m_in in noncrossing_matchings(inside, must_cover):
            for m_out in noncrossing_matchings(outside, must_cover):
                yield ((first, other),) + m_in + m_out


def _component_count(pages: Sequence[tuple[Arc, ...]]) -> int:
    """Number of link components of a valid presentation.

    The walk leaves each point by the neighbour it did not come from; only a
    two-arc component has equal neighbours, and it closes either way.
    """
    neighbours: dict[int, list[int]] = {}
    for page in pages:
        for i, j in page:
            neighbours.setdefault(i, []).append(j)
            neighbours.setdefault(j, []).append(i)
    count = 0
    while neighbours:
        start, (point, _) = neighbours.popitem()
        previous = start
        while point != start:
            a, b = neighbours.pop(point)
            previous, point = point, (b if a == previous else a)
        count += 1
    return count


def enumerate_presentations(c: SearchConstraints) -> Iterator[ThreePagePresentation]:
    """Canonical valid presentations on c.n points satisfying c, exactly one
    per symmetry orbit, in deterministic order.

    Every candidate is valid by construction: each page is a non-crossing
    matching, page 2 covers every point page 1 leaves free, and page 3 is a
    perfect matching of the points that still meet one arc.  The page-size
    bounds leave page 3 with at least ``min_arcs_per_page`` arcs.
    """
    n = c.n
    points = tuple(range(1, n + 1))
    min_page = c.min_arcs_per_page or 1
    # page 3 is fixed by its point set, so each set is matched only once
    page3_options: dict[tuple[int, ...], list] = {}
    for m1 in noncrossing_matchings(points):
        if not min_page <= len(m1) <= n - 2 * min_page:
            continue
        f1 = flip_page(n, m1)
        if f1 < m1:
            continue
        used1 = {pt for a in m1 for pt in a}
        for m2 in noncrossing_matchings(points, frozenset(points) - frozenset(used1)):
            if not min_page <= len(m2) <= n - len(m1) - min_page:
                continue
            if m2 < m1:
                continue
            f2 = flip_page(n, m2)
            if f2 < m1:
                continue
            if c.prune_split_pairs and set(m1) & set(m2):
                continue
            used2 = {pt for a in m2 for pt in a}
            deficit = tuple(pt for pt in points if (pt in used1) != (pt in used2))
            options3 = page3_options.get(deficit)
            if options3 is None:
                options3 = page3_options[deficit] = [
                    (m3, flip_page(n, m3))
                    for m3 in noncrossing_matchings(deficit, frozenset(deficit))]
            for m3, f3 in options3:
                if c.prune_split_pairs and (set(m3) & set(m1) or set(m3) & set(m2)):
                    continue
                pages = (m1, m2, m3)
                if min(orbit_images(pages, (f1, f2, f3))) != pages:
                    continue
                if (c.required_components is not None
                        and _component_count(pages) != c.required_components):
                    continue
                yield ThreePagePresentation(n, pages)


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
    """
    entries = [CensusEntry(pres, profile(pres))
               for pres in enumerate_presentations(SearchConstraints(n))]
    entries.sort(key=lambda e: (e.profile.sort_key(), e.presentation.sort_key()))
    return entries


def census_text(entries: Sequence[CensusEntry]) -> str:
    return "".join(entry.line() + "\n" for entry in entries)


@dataclass(frozen=True)
class IndexSearchResult:
    found: bool
    n: Optional[int]
    witness: Optional[ThreePagePresentation]
    searched_max: int

    def __str__(self) -> str:
        if self.found:
            return f"index={self.n} witness: {self.witness}"
        return f"not found for n <= {self.searched_max}"


def three_page_index(target: InvariantProfile, n_max: int,
                     prune_split_pairs: bool = False) -> IndexSearchResult:
    """Smallest n <= n_max carrying a presentation whose profile matches the
    target up to mirror, by exhaustive canonical search.

    A not-found result is unconditional: the profile is an invariant of the
    link up to mirror, so any presentation of the target link would have
    matched, and the index exceeds n_max.  ``prune_split_pairs`` needs a
    non-split target for this, and nothing here checks that: on a split
    target it may skip every match and report a larger index.  A found
    witness only matches the profile, so it is no stronger than the profile
    oracle.
    """
    for n in range(3, n_max + 1):
        constraints = SearchConstraints(
            n, required_components=target.component_count,
            prune_split_pairs=prune_split_pairs)
        for pres in enumerate_presentations(constraints):
            cand = profile(pres)
            if equal_up_to_mirror(cand, target):
                return IndexSearchResult(True, n, pres, n_max)
    return IndexSearchResult(False, None, None, n_max)


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

    The link has three components and is non-split, so two arcs sharing both
    endpoints would certify splittability.  Pruning such split pairs also
    removes every two-arc component (two arcs on different pages with the
    same endpoints), so every component has at least three arcs, hence
    exactly three at n = 9.  A three-arc component occupies each page once
    (its page sequence must be adjacent-distinct around a 3-cycle), so all
    pages hold exactly three arcs; with bridge number 3 that matches the
    three-arcs-per-page lower bound.  The search space is enumerated under
    those forced constraints and every candidate is profiled against the
    closed torus braid.  The size is fixed at nine points and no search
    limit is read here; the command line checks its limit before it calls
    this.
    """
    from .torus import closure_profile

    from .diagram import abs_linking_multiset, project

    target = closure_profile(3, 3)
    constraints = SearchConstraints(
        9, required_components=3, prune_split_pairs=True, min_arcs_per_page=3)
    examined = 0
    linking_candidates = 0
    witnesses: list[ThreePagePresentation] = []
    for pres in enumerate_presentations(constraints):
        examined += 1
        if abs_linking_multiset(project(pres)) != target.abs_linking:
            continue
        linking_candidates += 1
        if equal_up_to_mirror(profile(pres), target):
            witnesses.append(pres)
    return RefutationReport(examined, tuple(witnesses), linking_candidates)
