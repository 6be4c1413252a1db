"""Reidemeister perturbations of diagrams, used by the invariance test suite.

Sites are discovered from the combinatorial embedding (faces of the
4-valent graph); applying a move rewires crossings locally.  Where a gadget
has two chiral embeddings, both are built and the planar one is kept, so
every produced diagram embeds in the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from threepage.diagram import CrossingTuple, PlanarDiagram, _incidences

from util import assert_well_formed

# -- faces and planarity -------------------------------------------------------

Dart = tuple[int, int]  # (crossing, slot): the half-edge leaving that slot


def faces(d: PlanarDiagram) -> list[tuple[Dart, ...]]:
    """Face boundaries of the embedded 4-valent graph (free loops ignored).

    A dart (c, s) walks away from crossing c along the edge in slot s; the
    next dart turns to slot (s'-1) mod 4 at the far incidence (c', s'),
    keeping the face on the walker's left for ccw vertex rotations.
    """
    inc = _incidences(d)
    darts = [(c, s) for c in range(len(d.crossings)) for s in range(4)]
    seen: set[Dart] = set()
    out: list[tuple[Dart, ...]] = []
    for start in darts:
        if start in seen:
            continue
        cycle: list[Dart] = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur)
            c, s = cur
            e = d.crossings[c][s]
            a, b = inc[e]
            far = b if a == (c, s) else a
            cur = (far[0], (far[1] - 1) % 4)
        out.append(tuple(cycle))
    return out


def _connected_parts(d: PlanarDiagram) -> list[set[int]]:
    adj: dict[int, set[int]] = {c: set() for c in range(len(d.crossings))}
    owner: dict[int, int] = {}
    for c, t in enumerate(d.crossings):
        for e in t:
            if e in owner and owner[e] != c:
                adj[c].add(owner[e])
                adj[owner[e]].add(c)
            owner[e] = c
    parts: list[set[int]] = []
    left = set(adj)
    while left:
        stack = [min(left)]
        part: set[int] = set()
        while stack:
            x = stack.pop()
            if x in part:
                continue
            part.add(x)
            stack.extend(adj[x] - part)
        parts.append(part)
        left -= part
    return parts


def is_planar(d: PlanarDiagram) -> bool:
    """Euler check V - E + F = 2 on every connected part of the 4-valent graph."""
    if not d.crossings:
        return True
    face_list = faces(d)
    for part in _connected_parts(d):
        v = len(part)
        e = 2 * v
        f = sum(1 for face in face_list if face and face[0][0] in part)
        if v - e + f != 2:
            return False
    return True


# -- moves -----------------------------------------------------------------------


@dataclass(frozen=True)
class R1Insert:
    """Kink insertion on an edge, or on a free loop when edge is None."""

    edge: Optional[int]
    positive: bool


@dataclass(frozen=True)
class R1Remove:
    crossing: int


@dataclass(frozen=True)
class R2Insert:
    """Poke the edge under over_dart across their shared face, over the
    edge under under_dart."""

    over_dart: Dart
    under_dart: Dart


@dataclass(frozen=True)
class R2Remove:
    """A bigon face whose sides are uniformly over / uniformly under."""

    darts: tuple[Dart, Dart]


@dataclass(frozen=True)
class R3Slide:
    """Triangle face; the side starting at darts[slide] passes uniformly
    over or under at both of its end crossings and slides across the
    opposite crossing."""

    darts: tuple[Dart, Dart, Dart]
    slide: int


Site = Union[R1Insert, R1Remove, R2Insert, R2Remove, R3Slide]

_CURL_SLOTS = ((0, 1), (1, 2), (2, 3), (0, 3))


def _diagram(crossings: tuple[CrossingTuple, ...], free_loops: int) -> PlanarDiagram:
    """A diagram built by a move, asserted well-formed as it is built."""
    return assert_well_formed(PlanarDiagram(crossings, free_loops))


def _fresh_edges(d: PlanarDiagram, k: int) -> list[int]:
    top = max((e for t in d.crossings for e in t), default=-1)
    return list(range(top + 1, top + 1 + k))


def _replace_at(crossings: list[CrossingTuple], inc: tuple[int, int],
                new_edge: int) -> None:
    c, s = inc
    t = list(crossings[c])
    t[s] = new_edge
    crossings[c] = tuple(t)  # type: ignore[assignment]


def _rewire(crossings: list[CrossingTuple], drop: set[int]) -> tuple[
        tuple[CrossingTuple, ...], int]:
    """Remove crossings, joining each one's under pair and over pair; strand
    chains that close up entirely are returned as extra free loops."""
    rename: dict[int, int] = {}

    def find(e: int) -> int:
        while e in rename:
            e = rename[e]
        return e

    loops = 0
    for c in sorted(drop):
        t = crossings[c]
        for u, v in ((t[0], t[2]), (t[1], t[3])):
            ru, rv = find(u), find(v)
            if ru == rv:
                loops += 1
            else:
                rename[ru] = rv
    kept = tuple(tuple(find(e) for e in t)
                 for i, t in enumerate(crossings) if i not in drop)
    return kept, loops  # type: ignore[return-value]


# -- R1 ------------------------------------------------------------------------


def r1_insertion_sites(d: PlanarDiagram) -> list[R1Insert]:
    edges = sorted({e for t in d.crossings for e in t})
    sites = [R1Insert(e, pos) for e in edges for pos in (True, False)]
    if d.free_loops:
        sites += [R1Insert(None, True), R1Insert(None, False)]
    return sites


def r1_removal_sites(d: PlanarDiagram) -> list[R1Remove]:
    return [R1Remove(c) for c, t in enumerate(d.crossings)
            if any(t[a] == t[b] for a, b in _CURL_SLOTS)]


def _apply_r1_insert(d: PlanarDiagram, site: R1Insert) -> PlanarDiagram:
    crossings = list(d.crossings)
    if site.edge is None:
        if not d.free_loops:
            raise ValueError("no free loop to kink")
        e, loop = _fresh_edges(d, 2)
        kink = (e, e, loop, loop) if site.positive else (e, loop, loop, e)
        return _diagram(tuple(crossings) + (kink,), d.free_loops - 1)
    inc = _incidences(d).get(site.edge)
    if not inc:
        raise ValueError(f"edge {site.edge} not in diagram")
    tail, loop = _fresh_edges(d, 2)
    _replace_at(crossings, inc[1], tail)
    kink = ((site.edge, tail, loop, loop) if site.positive
            else (site.edge, loop, loop, tail))
    return _diagram(tuple(crossings) + (kink,), d.free_loops)


def _apply_r1_remove(d: PlanarDiagram, site: R1Remove) -> PlanarDiagram:
    t = d.crossings[site.crossing]
    if not any(t[a] == t[b] for a, b in _CURL_SLOTS):
        raise ValueError(f"crossing {site.crossing} is not a curl")
    kept, loops = _rewire(list(d.crossings), {site.crossing})
    return _diagram(kept, d.free_loops + loops)


# -- R2 ------------------------------------------------------------------------


def _other_incidence(d: PlanarDiagram, edge: int, inc: tuple[int, int]) -> tuple[int, int]:
    a, b = _incidences(d)[edge]
    return b if a == inc else a


def r2_insertion_sites(d: PlanarDiagram) -> list[R2Insert]:
    sites = []
    for face in faces(d):
        for i, di in enumerate(face):
            for dj in face[i + 1:]:
                ei = d.crossings[di[0]][di[1]]
                ej = d.crossings[dj[0]][dj[1]]
                if ei != ej:
                    sites.append(R2Insert(di, dj))
                    sites.append(R2Insert(dj, di))
    return sites


def _bigon_exists(d: PlanarDiagram, e1: int, e2: int) -> bool:
    for face in faces(d):
        if len(face) == 2:
            got = {d.crossings[c][s] for c, s in face}
            if got == {e1, e2}:
                return True
    return False


def _apply_r2_insert(d: PlanarDiagram, site: R2Insert) -> PlanarDiagram:
    over_inc, under_inc = site.over_dart, site.under_dart
    e = d.crossings[over_inc[0]][over_inc[1]]
    f = d.crossings[under_inc[0]][under_inc[1]]
    if e == f:
        raise ValueError("cannot poke an edge over itself")
    e_far = _other_incidence(d, e, over_inc)
    f_far = _other_incidence(d, f, under_inc)
    em, e2, fm, f2 = _fresh_edges(d, 4)
    for mirrored in (False, True):
        crossings = list(d.crossings)
        _replace_at(crossings, e_far, e2)
        _replace_at(crossings, f_far, f2)
        x1 = (f, em, fm, e2)
        x2 = (fm, em, f2, e)
        if mirrored:
            x1 = (x1[0], x1[3], x1[2], x1[1])
            x2 = (x2[0], x2[3], x2[2], x2[1])
        cand = _diagram(tuple(crossings) + (x1, x2), d.free_loops)
        if is_planar(cand) and _bigon_exists(cand, em, fm):
            return cand
    raise ValueError("no planar embedding for this poke; not a shared face?")


def r2_removal_sites(d: PlanarDiagram) -> list[R2Remove]:
    sites = []
    for face in faces(d):
        if len(face) != 2:
            continue
        (c1, s1), (c2, s2) = face
        if c1 == c2:
            continue
        e1 = d.crossings[c1][s1]
        e2 = d.crossings[c2][s2]
        if e1 == e2:
            continue
        inc = _incidences(d)
        parities = {e: {s % 2 for _, s in inc[e]} for e in (e1, e2)}
        if ({0} in parities.values()) and ({1} in parities.values()):
            sites.append(R2Remove(((c1, s1), (c2, s2))))
    return sites


def _apply_r2_remove(d: PlanarDiagram, site: R2Remove) -> PlanarDiagram:
    (c1, _), (c2, _) = site.darts
    kept, loops = _rewire(list(d.crossings), {c1, c2})
    return _diagram(kept, d.free_loops + loops)


# -- R3 ------------------------------------------------------------------------


def r3_sites(d: PlanarDiagram) -> list[R3Slide]:
    sites = []
    inc = _incidences(d)
    for face in faces(d):
        if len(face) != 3:
            continue
        crossings_of_face = [c for c, _ in face]
        if len(set(crossings_of_face)) != 3:
            continue
        edges_of_face = [d.crossings[c][s] for c, s in face]
        if len(set(edges_of_face)) != 3:
            continue
        for k, e in enumerate(edges_of_face):
            parities = {s % 2 for _, s in inc[e]}
            if len(parities) == 1:  # uniformly over or uniformly under
                sites.append(R3Slide(tuple(face), k))
    return sites


def _apply_r3(d: PlanarDiagram, site: R3Slide) -> PlanarDiagram:
    """Slide the uniform side of a triangle across the opposite crossing.

    The rewiring swaps the far stubs of the other two strands between the
    opposite crossing and the slid crossings; both chiralities of the new
    local picture are attempted and the planar one kept.
    """
    face = site.darts
    slide = site.slide
    dart_s = face[slide]          # side S: the sliding strand's piece
    dart_n = face[(slide + 1) % 3]  # side from Q to R (strand N)
    dart_m = face[(slide + 2) % 3]  # side from R to P (strand M)
    cp, _ = dart_s                # P: crossing S x M
    cq, sn = dart_n               # Q: crossing S x N
    cr, sm = dart_m               # R: crossing M x N
    e_s = d.crossings[dart_s[0]][dart_s[1]]
    e_n = d.crossings[dart_n[0]][dart_n[1]]
    e_m = d.crossings[dart_m[0]][dart_m[1]]
    inc = _incidences(d)
    s_at_p = next(s for c, s in inc[e_s] if c == cp)
    s_at_q = next(s for c, s in inc[e_s] if c == cq)
    n_at_r = next(s for c, s in inc[e_n] if c == cr)
    s_over = s_at_p % 2 == 1
    if (s_at_q % 2 == 1) != s_over:
        raise ValueError("slide side is not uniformly over or under")
    stub_sp = d.crossings[cp][(s_at_p + 2) % 4]
    stub_sq = d.crossings[cq][(s_at_q + 2) % 4]
    stub_mp = d.crossings[cp][(_mate(s_at_p, d.crossings[cp], e_m) + 2) % 4]
    stub_nq = d.crossings[cq][(_mate(s_at_q, d.crossings[cq], e_n) + 2) % 4]
    stub_mr = d.crossings[cr][(sm + 2) % 4]
    stub_nr = d.crossings[cr][(n_at_r + 2) % 4]
    m_under_n = sm % 2 == 0
    # the slid strand's outer stubs change ends: the stub that met it at Q
    # now meets it at the new S x M crossing and vice versa
    if s_over:
        new_p = (e_m, stub_sq, stub_mr, e_s)
        new_q = (e_n, e_s, stub_nr, stub_sp)
    else:
        new_p = (stub_sq, stub_mr, e_s, e_m)
        new_q = (e_s, stub_nr, stub_sp, e_n)
    if m_under_n:
        new_r = (stub_mp, stub_nq, e_m, e_n)
    else:
        new_r = (stub_nq, e_m, e_n, stub_mp)
    others = tuple(t for c, t in enumerate(d.crossings) if c not in (cp, cq, cr))
    for mirrored in (False, True):
        triple = (new_p, new_q, new_r)
        if mirrored:
            triple = tuple((t[0], t[3], t[2], t[1]) for t in triple)
        cand = _diagram(others + triple, d.free_loops)
        if is_planar(cand):
            return cand
    raise ValueError("no planar embedding after slide")


def _mate(slot: int, t: CrossingTuple, edge: int) -> int:
    """Slot of ``edge`` on the strand transverse to the one through ``slot``."""
    for s in ((slot + 1) % 4, (slot + 3) % 4):
        if t[s] == edge:
            return s
    raise ValueError(f"edge {edge} not transverse at this crossing")


def sites(d: PlanarDiagram, move: str) -> list[Site]:
    """All applicable sites for R1, R2 or R3 (insertions and removals)."""
    if move == "R1":
        return list(r1_insertion_sites(d)) + list(r1_removal_sites(d))
    if move == "R2":
        return list(r2_insertion_sites(d)) + list(r2_removal_sites(d))
    if move == "R3":
        return list(r3_sites(d))
    raise ValueError(f"unknown move {move!r}")


def reidemeister_perturb(d: PlanarDiagram, move: str, site: Site) -> PlanarDiagram:
    """Apply one Reidemeister move at a site discovered by sites()."""
    if move == "R1" and isinstance(site, R1Insert):
        return _apply_r1_insert(d, site)
    if move == "R1" and isinstance(site, R1Remove):
        return _apply_r1_remove(d, site)
    if move == "R2" and isinstance(site, R2Insert):
        return _apply_r2_insert(d, site)
    if move == "R2" and isinstance(site, R2Remove):
        return _apply_r2_remove(d, site)
    if move == "R3" and isinstance(site, R3Slide):
        return _apply_r3(d, site)
    raise ValueError(f"site {site!r} does not match move {move!r}")
