"""Kauffman bracket, Jones polynomial and link identification profiles.

The bracket polynomial <.> is characterised by

    <unknot> = 1
    <L_x>    = A <L_0> + A^-1 <L_inf>
    <L u O>  = (-A^2 - A^-2) <L>

and is computed by frontier contraction, adding one crossing at a time; the
tests keep a brute-force sum over all 2^c smoothing states as its oracle.
The Jones polynomial is the writhe normalisation f = (-A^3)^(-w) <D>, kept
in the A variable.

Links are identified by an orientation-insensitive profile: component
count, the multiset of |lk| over component pairs and the set of Jones
polynomials over all orientation choices.  Profiles are compared up to
mirror (A <-> A^-1) throughout, because the construction conventions fix a
chirality that the identified link types do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .diagram import CrossingTuple, PlanarDiagram, Trace, project, trace
from .laurent import LOOP, LaurentPoly, poly_sort_key, writhe_unit
from .presentation import ThreePagePresentation

DEFAULT_CROSSING_LIMIT = 24


class CrossingLimitError(RuntimeError):
    """Raised when a bracket computation would exceed the crossing limit."""


# -- frontier contraction -----------------------------------------------------

#: delta^k = (-A^2 - A^-2)^k for the 0, 1 or 2 loops one crossing can close.
_LOOP_POWERS = ({0: 1}, {2: -1, -2: -1}, {4: 1, 0: 2, -4: 1})

#: Per smoothing, A = (t0 t1)(t2 t3) and B = (t0 t3)(t1 t2): the slot joined
#: to each slot, and per count of loops closed the terms of A^(+-1) delta^loops.
_SMOOTHINGS = tuple(
    (inner, tuple(tuple((e + shift, c) for e, c in lp.items()) for lp in _LOOP_POWERS))
    for inner, shift in (((1, 0, 3, 2), 1), ((3, 2, 1, 0), -1)))


def _contraction_order(crossings: tuple[CrossingTuple, ...]) -> list[int]:
    """Greedy planar order: next the crossing that adds the fewest open
    edges, ties broken by index.  An edge is open while exactly one of its
    two ends lies at a contracted crossing."""
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


def bracket_skein(d: PlanarDiagram, limit: int = DEFAULT_CROSSING_LIMIT) -> LaurentPoly:
    """Bracket by frontier contraction (Bar-Natan, "Fast Khovanov homology
    computations", JKTR 2007).

    Crossings are added one at a time in ``_contraction_order``.  The state
    maps each pairing of the open edges (which open edge ends are joined
    through the smoothed part) to the sum of A^(a-b) delta^loops over the
    partial smoothing states that induce it.  Each crossing splits every
    state into its A and B smoothings; each loop it closes is a factor of
    delta.  The front is empty after the last crossing, so every state
    closes at least one loop there; counting one loop fewer at that
    crossing leaves the bracket, normalised so one circle evaluates to 1,
    in the single empty pairing.
    """
    if len(d.crossings) > limit:
        raise CrossingLimitError(
            f"{len(d.crossings)} crossings exceed the limit of {limit}")
    if not d.crossings:
        if d.free_loops == 0:
            raise ValueError("bracket of the empty diagram is undefined")
        return LOOP ** (d.free_loops - 1)
    front: list[int] = []  # open edges; a pairing is a partner position per edge
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    order = _contraction_order(d.crossings)
    for k in order:
        t = d.crossings[k]
        uncounted = 1 if k == order[-1] else 0
        pos = {e: i for i, e in enumerate(front)}
        kept = [i for i, e in enumerate(front) if e not in t]
        new_front = [front[i] for i in kept]
        # Where an end leads away from this crossing is coded as a position
        # in new_front (>= 0) or as -1 - slot for another slot of it.
        # route[i]: where open edge i leads out of the contracted part.
        route = [-1] * len(front)
        for j, i in enumerate(kept):
            route[i] = j
        # outer[s]: where slot s leads; for slots on open edges it depends on
        # the pairing and is filled in per state from old_slots
        outer = [0] * 4
        old_slots: list[tuple[int, int]] = []
        for s, e in enumerate(t):
            if e in pos:
                route[pos[e]] = -1 - s
                old_slots.append((s, pos[e]))
            elif t.count(e) == 2:  # a curl: the edge joins two slots here
                outer[s] = -1 - next(r for r in range(4) if r != s and t[r] == e)
            else:
                outer[s] = len(new_front)
                new_front.append(e)
        grow = len(new_front) - len(kept)
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for pairing, poly in states.items():
            for s, i in old_slots:
                outer[s] = route[pairing[i]]
            # kept edges whose partner ends here get rewritten below
            base = [route[pairing[i]] for i in kept] + [0] * grow
            for inner, factors in _SMOOTHINGS:
                out = base[:]
                seen = [False] * 4
                # join each pair of exits the smoothed crossing connects
                for s in range(4):
                    a = outer[s]
                    if a < 0 or seen[s]:
                        continue
                    cur = s
                    while True:
                        seen[cur] = True
                        cur = inner[cur]
                        seen[cur] = True
                        b = outer[cur]
                        if b >= 0:
                            break
                        cur = -1 - b
                    out[a] = b
                    out[b] = a
                # the slots left over lie on closed loops
                loops = 0
                for s in range(4):
                    if not seen[s]:
                        loops += 1
                        cur = s
                        while not seen[cur]:
                            seen[cur] = True
                            cur = inner[cur]
                            seen[cur] = True
                            cur = -1 - outer[cur]
                acc = nxt.setdefault(tuple(out), {})
                for fe, fc in factors[loops - uncounted]:
                    for e, c in poly.items():
                        e += fe
                        acc[e] = acc.get(e, 0) + c * fc
        front = new_front
        states = nxt
    total = LaurentPoly.from_dict(states[()])
    return total * LOOP ** d.free_loops if d.free_loops else total


def jones_set(d: PlanarDiagram, limit: int = DEFAULT_CROSSING_LIMIT) -> frozenset[LaurentPoly]:
    """Jones polynomials over all 2^components orientation assignments.

    The bracket is orientation-free, so it is computed once and only the
    writhe normalisation varies."""
    return _jones_set(d, trace(d), limit)


def _jones_set(d: PlanarDiagram, tr: Trace, limit: int) -> frozenset[LaurentPoly]:
    b = bracket_skein(d, limit)
    return frozenset(writhe_unit(-w) * b for w in {tr.writhe(o) for o in tr.orientations()})


@dataclass(frozen=True)
class InvariantProfile:
    """Orientation-insensitive identification record for a link type.

    Sound for distinguishing the small links handled here; the Jones set is
    not a complete invariant in general, and the census documentation says
    "profile-distinct" rather than "distinct" for that reason.
    """

    component_count: int
    abs_linking: tuple[int, ...]
    jones: frozenset[LaurentPoly]

    def sort_key(self) -> tuple:
        return (self.component_count, self.abs_linking,
                tuple(sorted(poly_sort_key(p) for p in self.jones)))

    def jones_strings(self) -> tuple[str, ...]:
        return tuple(str(p) for p in sorted(self.jones, key=poly_sort_key))

    def __str__(self) -> str:
        return (f"components={self.component_count} "
                f"|lk|={list(self.abs_linking)} "
                f"jones={{{'; '.join(self.jones_strings())}}}")


def profile(obj: Union[ThreePagePresentation, PlanarDiagram],
            limit: int = DEFAULT_CROSSING_LIMIT) -> InvariantProfile:
    """Assemble the identification profile of a presentation or diagram."""
    d = project(obj) if isinstance(obj, ThreePagePresentation) else obj
    tr = trace(d)
    return InvariantProfile(tr.component_count, tr.abs_linking(),
                            _jones_set(d, tr, limit))


def equal_up_to_mirror(a: InvariantProfile, b: InvariantProfile) -> bool:
    """Profile equality allowing one global mirror A <-> A^-1."""
    if a.component_count != b.component_count or a.abs_linking != b.abs_linking:
        return False
    return a.jones == b.jones or a.jones == frozenset(p.mirror() for p in b.jones)


def trivial_profile(k: int) -> InvariantProfile:
    """Profile of the k-component unlink."""
    return InvariantProfile(k, (0,) * (k * (k - 1) // 2), frozenset({LOOP ** (k - 1)}))
