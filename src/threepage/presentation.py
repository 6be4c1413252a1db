"""Three-page presentations of links.

A presentation consists of n binding points on an axis and three pages
arranged around it, each page holding disjoint, mutually non-crossing arcs
between binding points.  A valid presentation satisfies:

* every binding point meets exactly two arcs, lying on two distinct pages;
* no two arcs on one page share an endpoint or interleave;
* all three pages hold at least one arc.

It follows that the number of arcs equals the number of binding points.

Validity is checked once, where a presentation enters the program:
``ThreePagePresentation.of`` (and so ``parse`` and the torus constructors)
rejects an invalid one.  The plain constructor trusts its caller, and
everything downstream (components, projection, rendering) assumes a valid
presentation without checking again.

Everything here is an immutable value; operations return new objects.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

Arc = tuple[int, int]
PageTriple = tuple[tuple[Arc, ...], tuple[Arc, ...], tuple[Arc, ...]]


class ParseError(ValueError):
    """Raised for malformed presentation text or out-of-range indices."""


class InvalidPresentationError(ValueError):
    """Raised by ``ThreePagePresentation.of`` for an invalid presentation."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


def _normalize_arc(i: int, j: int) -> Arc:
    if i == j:
        raise ParseError(f"degenerate arc {i}-{j}")
    return (i, j) if i < j else (j, i)


def _page(arcs: Iterable[tuple[int, int]]) -> tuple[Arc, ...]:
    """One page as a sorted tuple of normalised arcs; a repeated arc is kept,
    so that validation reports the points it shares."""
    return tuple(sorted(_normalize_arc(i, j) for i, j in arcs))


def arcs_interleave(a: Arc, b: Arc) -> bool:
    """True iff the chords a, b interleave (cross when drawn in a half-plane)."""
    (i, j), (k, l) = a, b
    return i < k < j < l or k < i < l < j


class PlacedArc(NamedTuple):
    """An arc together with the page (0, 1 or 2) carrying it."""

    page: int
    arc: Arc


@dataclass(frozen=True, slots=True)
class ThreePagePresentation:
    """n binding points plus an ordered triple of pages, each a sorted tuple
    of arcs (i, j) with i < j.

    ``of`` normalises its input and rejects an invalid presentation.  The
    constructor is the trusted path: it takes pages in normal form as they
    are and checks nothing, so its caller must build a valid triple (the
    enumerator and the symmetry images do so by construction).  Page order
    is the cyclic order of the half-planes around the binding axis; points
    are 1-indexed along the axis.
    """

    n: int
    pages: PageTriple

    @staticmethod
    def of(n: int,
           p1: Iterable[tuple[int, int]],
           p2: Iterable[tuple[int, int]],
           p3: Iterable[tuple[int, int]]) -> "ThreePagePresentation":
        if n < 1:
            raise ParseError(f"point count must be positive, got {n}")
        pages = (_page(p1), _page(p2), _page(p3))
        for pg in pages:
            for i, j in pg:
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ParseError(f"arc {i}-{j} out of range for n={n}")
        arcs = sum(map(len, pages))
        if n > 2 * arcs:
            raise ParseError(f"n={n} exceeds twice the arc count {arcs}, "
                             "so some point meets no arc")
        p = ThreePagePresentation(n, pages)
        report = validate(p)
        if not report.ok:
            raise InvalidPresentationError(report)
        return p

    def placed_arcs(self) -> Iterator[PlacedArc]:
        for page, matching in enumerate(self.pages):
            for arc in matching:
                yield PlacedArc(page, arc)

    def arc_count(self) -> int:
        return sum(len(pg) for pg in self.pages)

    def page_sizes(self) -> tuple[int, int, int]:
        return tuple(len(pg) for pg in self.pages)  # type: ignore[return-value]

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        """Native one-line text form, e.g. ``n=3; P1:1-2; P2:2-3; P3:1-3``."""
        chunks = [f"n={self.n}"]
        for k, pg in enumerate(self.pages, start=1):
            body = ",".join(f"{i}-{j}" for i, j in pg)
            chunks.append(f"P{k}:{body}")
        return "; ".join(chunks)

    def to_json(self) -> str:
        return json.dumps({"n": self.n,
                           "pages": [[[i, j] for i, j in pg] for pg in self.pages]},
                          separators=(",", ":"))

    def __str__(self) -> str:
        return self.serialize()

    def sort_key(self) -> tuple:
        return (self.n, self.pages)


def _json_arcs(page: object) -> list[tuple[int, int]]:
    """The arcs of one JSON page, a list of [int, int] pairs."""
    if not isinstance(page, list) or not all(
            isinstance(a, list) and len(a) == 2 and all(type(x) is int for x in a)
            for a in page):
        raise ParseError(f"bad JSON page {json.dumps(page)}: expected a list "
                         "of [int, int] arcs")
    return [(i, j) for i, j in page]


def parse(text: str) -> ThreePagePresentation:
    """Parse the native text format or its JSON mirror (auto-detected)."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if s.startswith("{"):
        try:
            obj = json.loads(s)
            n = obj["n"]
            p1, p2, p3 = obj["pages"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON presentation: {exc}") from exc
        if type(n) is not int:  # bool is an int subclass; reject it too
            raise ParseError(f"n must be an integer, got {json.dumps(n)}")
        return ThreePagePresentation.of(n, *map(_json_arcs, (p1, p2, p3)))
    s = re.sub(r"\s+", "", s)
    fields = [f for f in s.split(";") if f]
    if len(fields) != 4:
        raise ParseError("expected 'n=<int>; P1:...; P2:...; P3:...'")
    m = re.fullmatch(r"n=(\d+)", fields[0])
    if not m:
        raise ParseError(f"bad point count field {fields[0]!r}")
    n = int(m.group(1))
    pages: list[list[tuple[int, int]]] = []
    for k, field in enumerate(fields[1:], start=1):
        m = re.fullmatch(rf"P{k}:(.*)", field)
        if m is None:
            raise ParseError(f"expected page P{k}, got {field!r}")
        body = m.group(1)
        arcs: list[tuple[int, int]] = []
        if body:
            for chunk in body.split(","):
                am = re.fullmatch(r"(\d+)-(\d+)", chunk)
                if not am:
                    raise ParseError(f"bad arc {chunk!r} on page P{k}")
                arcs.append((int(am.group(1)), int(am.group(2))))
        pages.append(arcs)
    return ThreePagePresentation.of(n, *pages)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(p: ThreePagePresentation) -> ValidationReport:
    """Check all presentation invariants; violations are data, not failures.

    Two arcs on *different* pages with identical endpoints are legal (they
    certify a splittable sublink, see detect_split_pair) and are not
    reported here.
    """
    violations: list[str] = []
    for page, matching in enumerate(p.pages, start=1):
        if not matching:
            violations.append(f"page P{page} holds no arcs")
        for x, a in enumerate(matching):
            for b in matching[x + 1:]:
                shared = set(a) & set(b)
                if shared:
                    violations.append(f"arcs {a} and {b} share point "
                                      f"{min(shared)} on page P{page}")
                elif arcs_interleave(a, b):
                    violations.append(f"arcs {a} and {b} interleave on page P{page}")
    degree = {pt: 0 for pt in range(1, p.n + 1)}
    for _, (i, j) in p.placed_arcs():
        degree[i] += 1
        degree[j] += 1
    for pt in range(1, p.n + 1):
        if degree[pt] != 2:
            violations.append(f"point {pt} meets {degree[pt]} arcs (expected 2)")
    return ValidationReport(not violations, tuple(violations))


# -- components ------------------------------------------------------------


Step = tuple[int, int, int]  # (point, page, next point)


def components(p: ThreePagePresentation) -> list[tuple[Step, ...]]:
    """The link components of a valid presentation as walks along its arcs.

    Each walk starts at its smallest binding point, leaves it on the lower
    of its two pages and, at every later point, leaves on the page it did
    not arrive on.  Walks come in the order of their starting points.
    """
    n = p.n
    ends: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for page, arcs in enumerate(p.pages):
        for i, j in arcs:
            ends[i].append((page, j))
            ends[j].append((page, i))
    seen = [False] * (n + 1)
    walks: list[tuple[Step, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        walk: list[Step] = []
        point, (page, nxt) = start, ends[start][0]
        while True:
            seen[point] = True
            walk.append((point, page, nxt))
            if nxt == start:
                break
            a, b = ends[nxt]
            point, (page, nxt) = nxt, (b if a[0] == page else a)
        walks.append(tuple(walk))
    return walks


def detect_split_pair(p: ThreePagePresentation) -> Optional[tuple[PlacedArc, PlacedArc]]:
    """Find two arcs on different pages with identical endpoints, if any.

    Such a pair bounds a disk that can be pushed off the rest of the link,
    so its presence certifies that the presented link is splittable.  The
    check is sound but not complete: absence proves nothing.  It reads the
    arcs only, so the presentation need not be valid.  The pair returned is
    the smallest (page, arc) with a copy on a later page, with its first
    such copy.
    """
    for i in range(2):
        shared = [(arc, j) for j in range(i + 1, 3)
                  for arc in set(p.pages[i]).intersection(p.pages[j])]
        if shared:
            arc, j = min(shared)
            return PlacedArc(i, arc), PlacedArc(j, arc)
    return None


# -- canonical form ----------------------------------------------------------


def flip_page(n: int, arcs: tuple[Arc, ...]) -> tuple[Arc, ...]:
    """Sorted arcs of one page after reversing the points, i -> n + 1 - i."""
    return tuple(sorted((n + 1 - j, n + 1 - i) for i, j in arcs))


def orbit_images(pages: PageTriple, flipped: PageTriple) -> tuple[PageTriple, ...]:
    """The six images of a page triple under page rotation and point reversal.

    ``flipped`` holds ``flip_page`` of each page.  The first image is
    ``pages`` itself, the next two rotate the pages, and the last three
    reverse the points together with the cyclic page order, which is a rigid
    rotation of the open book (orientation-preserving).  Swapping exactly
    two pages is a reflection and may mirror the link, so it is deliberately
    not part of this group.
    """
    m1, m2, m3 = pages
    f1, f2, f3 = flipped
    return ((m1, m2, m3), (m2, m3, m1), (m3, m1, m2),
            (f3, f2, f1), (f2, f1, f3), (f1, f3, f2))


def _images(p: ThreePagePresentation) -> tuple[PageTriple, ...]:
    return orbit_images(p.pages, tuple(flip_page(p.n, a) for a in p.pages))  # type: ignore[arg-type]


def symmetry_orbit(p: ThreePagePresentation) -> Iterator[ThreePagePresentation]:
    """The six images of p, in the order of ``orbit_images``."""
    for pages in _images(p):
        yield ThreePagePresentation(p.n, pages)


def is_canonical(p: ThreePagePresentation) -> bool:
    images = _images(p)
    return min(images) == images[0]
