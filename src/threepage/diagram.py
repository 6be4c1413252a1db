"""Planar link diagrams with combinatorial crossing data.

A diagram is a list of crossings, each a 4-tuple of edge labels read
counterclockwise with the under-strand occupying slots 0 and 2 and the
over-strand slots 1 and 3.  Closed curves without crossings are tracked by a
count of free loops.  Diagrams store the combinatorial embedding only; no
coordinates (rendering recomputes semicircle geometry).  The producers,
``project`` and ``braid_closure_diagram``, build well-formed diagrams (each
edge label at exactly two slots) by construction; the tests check them.

Projection convention for three-page presentations (fixed globally):

* the binding axis is horizontal with points 1..n;
* page 2 arcs are semicircles in the lower half-plane and never cross;
* page 1 and page 3 arcs are semicircles in the upper half-plane;
* a page-1 arc (a,b) and a page-3 arc (c,d) cross exactly when their
  endpoints interleave, and the page-3 arc is always the over-strand.

Crossing sign convention (right-hand rule, over-strand first): a crossing is
positive when rotating the over-strand's direction a quarter turn
counterclockwise yields the under-strand's direction::

        ^ under                    over ^
         \\   ^ over                 \\   ^ under
          \\ /                        \\ /
           \\            vs            /
          / \\                        / \\
    positive crossing          negative crossing
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .braids import BraidWord
from .presentation import ThreePagePresentation, arcs_interleave, components

CrossingTuple = tuple[int, int, int, int]


@dataclass(frozen=True)
class PlanarDiagram:
    """Crossings as ccw edge 4-tuples (under at slots 0/2, over at 1/3),
    unchecked: producers build well-formed diagrams and the tests check them."""

    crossings: tuple[CrossingTuple, ...]
    free_loops: int = 0
    #: optional provenance for projections: per component walk, (first edge
    #: id, head incidence of that edge along the walk), or None without crossings
    walk_heads: Optional[tuple[Optional[tuple[int, Incidence]], ...]] = None

    def crossing_count(self) -> int:
        return len(self.crossings)


# -- strand tracing ----------------------------------------------------------

Incidence = tuple[int, int]  # (crossing index, slot)


@dataclass(frozen=True)
class Trace:
    """Base traversal data: components, edge directions and crossing signs.
    An orientation is a tuple of per-component flips of the base direction."""

    #: total component count including free loops
    component_count: int
    #: edge -> component index
    edge_component: dict[int, int] = field(hash=False)
    #: edge -> (tail incidence, head incidence) along the base direction
    edge_direction: dict[int, tuple[Incidence, Incidence]] = field(hash=False)
    #: under the base orientation: [i][i] is the signed sum of component i's
    #: self-crossings, [i][j] is lk(i, j)
    matrix: tuple[tuple[int, ...], ...]

    def orientations(self) -> Iterator[tuple[bool, ...]]:
        return itertools.product((False, True), repeat=self.component_count)

    def _signs(self, flips: tuple[bool, ...]) -> list[int]:
        """+1 or -1 per component: its direction under flips against the base."""
        if len(flips) != self.component_count:
            raise ValueError(f"orientation has {len(flips)} flips for "
                             f"{self.component_count} components")
        return [-1 if f else 1 for f in flips]

    def writhe(self, flips: tuple[bool, ...]) -> int:
        """Signed crossing sum under the stated right-hand sign rule."""
        # a crossing's sign flips with each of its two strands' components
        e = self._signs(flips)
        return sum(ei * ej * w for ei, row in zip(e, self.matrix)
                   for ej, w in zip(e, row))

    def linking_matrix(self, flips: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
        """lk(i, j) = half the signed sum of crossings between components i and j."""
        e = self._signs(flips)
        return tuple(tuple(0 if i == j else ei * ej * w
                           for j, (ej, w) in enumerate(zip(e, row)))
                     for i, (ei, row) in enumerate(zip(e, self.matrix)))

    def abs_linking(self) -> tuple[int, ...]:
        k = self.component_count
        return tuple(sorted(abs(self.matrix[i][j])
                            for i in range(k) for j in range(i + 1, k)))


def _incidences(d: PlanarDiagram) -> dict[int, list[Incidence]]:
    out: dict[int, list[Incidence]] = {}
    for c, t in enumerate(d.crossings):
        for s, e in enumerate(t):
            out.setdefault(e, []).append((c, s))
    return out


def trace(d: PlanarDiagram) -> Trace:
    inc = _incidences(d)
    edge_component: dict[int, int] = {}
    edge_direction: dict[int, tuple[Incidence, Incidence]] = {}
    traced = 0  # components met by the walk (free loops excluded)
    for e0 in sorted(inc):
        if e0 in edge_component:
            continue
        tail, head = inc[e0]
        e = e0
        while True:
            edge_component[e] = traced
            edge_direction[e] = (tail, head)
            c, s = head
            exit_inc = (c, (s + 2) % 4)
            e = d.crossings[c][exit_inc[1]]
            a, b = inc[e]
            tail = exit_inc
            head = b if a == exit_inc else a
            if e == e0 and tail == inc[e0][0]:
                break
        traced += 1
    k = traced + d.free_loops
    matrix = [[0] * k for _ in range(k)]  # [under][over] signed crossing sums
    for c, t in enumerate(d.crossings):
        under_in_0 = edge_direction[t[0]][1] == (c, 0)
        over_in_3 = edge_direction[t[3]][1] == (c, 3)
        matrix[edge_component[t[0]]][edge_component[t[1]]] += (
            1 if under_in_0 == over_in_3 else -1)
    for i, j in itertools.combinations(range(k), 2):
        between = matrix[i][j] + matrix[j][i]
        if between % 2 != 0:
            raise AssertionError("inter-component crossings must pair up")
        matrix[i][j] = matrix[j][i] = between // 2
    return Trace(k, edge_component, edge_direction, tuple(map(tuple, matrix)))


def abs_linking_multiset(d: PlanarDiagram) -> tuple[int, ...]:
    """Sorted |lk| values over unordered component pairs (orientation-free)."""
    return trace(d).abs_linking()


# -- projection of a three-page presentation ---------------------------------


def project(p: ThreePagePresentation) -> PlanarDiagram:
    """Project a presentation to a diagram under the fixed page convention.

    Page-2 arcs stay crossing-free below the axis; every interleaving
    (page-1, page-3) pair contributes one crossing with page 3 on top.
    The page-3 arcs crossing one page-1 arc bound nested or disjoint
    half-disks, so they do not cross each other and each has exactly one
    endpoint inside it; along the page-1 arc they come in the order of
    those inner endpoints.  The same holds with the pages swapped.
    """
    pairs = [(u, v) for u in p.pages[0] for v in p.pages[2] if arcs_interleave(u, v)]
    # per arc: (inner endpoint of the crossing arc, crossing, slot toward the
    # left end, slot toward the right end).  The ccw slot order at a crossing
    # of (a,b) under (c,d) is under-left, over-left, under-right, over-right
    # when a < c, with the over slots swapped when c < a.
    along: dict[tuple[int, tuple[int, int]], list[tuple[int, int, int, int]]] = {}
    for k, (u, v) in enumerate(pairs):
        if u[0] < v[0]:
            along.setdefault((0, u), []).append((v[0], k, 0, 2))
            along.setdefault((2, v), []).append((u[1], k, 1, 3))
        else:
            along.setdefault((0, u), []).append((v[1], k, 0, 2))
            along.setdefault((2, v), []).append((u[0], k, 3, 1))
    # per walk step (point, page, next point): (crossing, slot) in walk
    # order, alternating incoming and outgoing slots
    attach: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for (page, (a, b)), ev in along.items():
        ev.sort()
        attach[(a, page, b)] = [(k, s) for _, k, left, right in ev for s in (left, right)]
        attach[(b, page, a)] = [(k, s) for _, k, left, right in reversed(ev)
                                for s in (right, left)]

    slots = [[0] * 4 for _ in pairs]
    free_loops = 0
    next_edge = 0
    walk_heads: list[Optional[tuple[int, Incidence]]] = []
    for walk in components(p):
        attachments = [a for step in walk for a in attach.get(step, ())]
        if not attachments:
            free_loops += 1
            walk_heads.append(None)
            continue
        # the edge between event t and event t+1 joins the outgoing slot of
        # t with the incoming slot of t+1, cyclically
        m = len(attachments) // 2
        walk_heads.append((next_edge, attachments[2 % (2 * m)]))
        for t in range(m):
            for c, s in (attachments[2 * t + 1], attachments[(2 * t + 2) % (2 * m)]):
                slots[c][s] = next_edge
            next_edge += 1
    return PlanarDiagram(tuple(map(tuple, slots)), free_loops,  # type: ignore[arg-type]
                         tuple(walk_heads) or None)


# -- braid closures -----------------------------------------------------------


def braid_closure_diagram(w: BraidWord) -> PlanarDiagram:
    """Diagram of the closed braid; crossing count equals the word length.

    A positive generator makes the higher-numbered strand cross over the
    lower one, which comes out as a positive crossing for every orientation
    of the closure.
    """
    s = w.strands
    cur = list(range(s))
    nxt = s
    provisional: list[CrossingTuple] = []
    for i, sign in w.letters:
        li, ri = cur[i - 1], cur[i]
        a, b = nxt, nxt + 1
        nxt += 2
        provisional.append((li, a, b, ri) if sign > 0 else (ri, li, a, b))
        cur[i - 1], cur[i] = a, b
    # closing position k joins its top edge cur[k] to its bottom edge k;
    # cur[k] is k itself (an untouched strand, a free loop) or a fresh edge
    # that no other position holds
    close = {cur[k]: k for k in range(s)}
    rename: dict[int, int] = {}
    crossings = tuple(tuple(rename.setdefault(close.get(e, e), len(rename)) for e in t)
                      for t in provisional)
    free_loops = sum(1 for k in range(s) if cur[k] == k)
    return PlanarDiagram(crossings, free_loops)  # type: ignore[arg-type]


# -- PD export -----------------------------------------------------------------


def pd_export(d: PlanarDiagram) -> str:
    """Interchange text: header plus one ``X a b c d`` line per crossing.

    Edges are listed counterclockwise starting from the incoming under-edge
    with respect to the base orientation (1-based labels).
    """
    tr = trace(d)
    lines = [f"components={tr.component_count} crossings={len(d.crossings)}"]
    for c, t in enumerate(d.crossings):
        if tr.edge_direction[t[0]][1] == (c, 0):
            rot = t
        else:
            rot = (t[2], t[3], t[0], t[1])
        lines.append("X " + " ".join(str(e + 1) for e in rot))
    return "\n".join(lines) + "\n"
