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


def _contraction_order(crossings: tuple[CrossingTuple, ...]) -> list[int]:
    """Greedy planar order: next the crossing that adds the fewest open
    edges, ties broken by index.  An edge is open while exactly one of its
    two ends lies at a contracted crossing.  Growth starts at the count of
    non-curl slots, 2 len(set(t)) - 4, and contracting crossing k lowers it
    by 2 at ``ends[e] - k``, the other end of each of its edges e."""
    ends: dict[int, int] = {}
    for k, t in enumerate(crossings):
        for e in t:
            ends[e] = ends.get(e, 0) + k
    growth = [2 * len(set(t)) - 4 for t in crossings]
    left = list(range(len(crossings)))
    order: list[int] = []
    while left:
        best = min(left, key=growth.__getitem__)
        left.remove(best)
        order.append(best)
        for e in crossings[best]:
            growth[ends[e] - best] -= 2
    return order


def bracket_skein(d: PlanarDiagram, limit: int = DEFAULT_CROSSING_LIMIT) -> LaurentPoly:
    """Bracket by frontier contraction (Bar-Natan, "Fast Khovanov homology
    computations", JKTR 2007).

    Crossings are added one at a time in ``_contraction_order``.  The open
    edges form the front, and a state is a pairing of the front: for each
    position, the position of the other end of its strand through the
    contracted part.  A state maps to the sum of A^(a-b) delta^loops over
    the partial smoothing states that induce it.

    Each sum is kept as (low, P) for A^low sum_j c_j A^(2j), P = sum_j c_j
    2^(B j), B = 3c + 2.  The exponents of a state share the parity of the
    crossings contracted, and |c_j| <= 8^c (2^c partial smoothings, each
    A^e delta^l with l <= 2c, of absolute coefficient sum 2^l), so signed
    B-bit slots decode exactly.  delta is -(P + (P << 2B)) with low - 2,
    and a merge shifts the state with the higher low.

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
    width = 3 * len(d.crossings) + 2
    front: list[int] = []
    states: dict[tuple[int, ...], tuple[int, int]] = {(): (0, 1)}
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
        nxt: dict[tuple[int, ...], tuple[int, int]] = {}
        for pairing, (low, poly) in states.items():
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
                key = tuple([place[partner[i]] for i in survivors])
                lo, p = low + shift - 2 * loops, poly
                if loops:
                    p = -(p + (p << 2 * width))
                    if loops == 2:
                        p = -(p + (p << 2 * width))
                old = nxt.get(key)
                if old is None:
                    nxt[key] = (lo, p)
                elif old[0] <= lo:
                    nxt[key] = (old[0], old[1] + (p << (lo - old[0]) // 2 * width))
                else:
                    nxt[key] = (lo, p + (old[1] << (old[0] - lo) // 2 * width))
        front = new_front
        states = nxt
    low, poly = states[()]
    terms: dict[int, int] = {}
    half = 1 << (width - 1)
    while poly:
        terms[low] = coeff = ((poly + half) & (2 * half - 1)) - half
        poly = (poly - coeff) >> width
        low += 2
    total = LaurentPoly.from_dict(terms)
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

