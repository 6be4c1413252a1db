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

    Crossings are added one at a time in ``_contraction_order``.  The open
    edges form the front, and a state is a pairing of the front: for each
    position, the position of the other end of its strand through the
    contracted part.  A state maps to the sum of A^(a-b) delta^loops over
    the partial smoothing states that induce it.

    At each crossing the strand ends meeting there are indexed once: open
    edges by their front position, then the crossing's other edges, a
    curl's two slots sharing one index.  The A smoothing joins slots
    (0,1)(2,3) with a factor A, the B smoothing (0,3)(1,2) with A^-1.  Every
    join of two ends follows one rule: on a curl, or on the two ends of one
    strand, a loop closes, a factor of delta; otherwise the far ends of the
    two strands become partners.  The state count is that of the pairings
    (at most 132 on tnn(6)).  The front is empty after the last crossing,
    so every state closes at least one loop there; counting one loop fewer
    at that crossing leaves the bracket, normalised so one circle evaluates
    to 1, in the single empty pairing.
    """
    if len(d.crossings) > limit:
        raise CrossingLimitError(
            f"{len(d.crossings)} crossings exceed the limit of {limit}")
    if not d.crossings:
        if d.free_loops == 0:
            raise ValueError("bracket of the empty diagram is undefined")
        return LOOP ** (d.free_loops - 1)
    front: list[int] = []
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    order = _contraction_order(d.crossings)
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


def jones_set(d: PlanarDiagram, limit: int = DEFAULT_CROSSING_LIMIT) -> frozenset[LaurentPoly]:
    """Jones polynomials over all 2^components orientation assignments.

    The bracket is orientation-free, so it is computed once and only the
    writhe normalisation varies."""
    return _jones_set(trace(d), bracket_skein(d, limit))


def _jones_set(tr: Trace, bracket: LaurentPoly) -> frozenset[LaurentPoly]:
    return frozenset(writhe_unit(-w) * bracket for w in {tr.writhe(o) for o in tr.orientations()})


@dataclass(frozen=True, slots=True)
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
                            _jones_set(tr, bracket_skein(d, limit)))


def equal_up_to_mirror(a: InvariantProfile, b: InvariantProfile) -> bool:
    """Profile equality allowing one global mirror A <-> A^-1."""
    if a.component_count != b.component_count or a.abs_linking != b.abs_linking:
        return False
    return a.jones == b.jones or a.jones == frozenset(p.mirror() for p in b.jones)

