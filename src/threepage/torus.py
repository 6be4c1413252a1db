"""Explicit three-page presentations of torus links and the bounds report.

The constructors promise exact arc counts and, where stated, exact page
distributions; each output is validated and its invariant profile is
compared (up to mirror) against the closed torus braid, which serves as the
ground-truth realisation of the same link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .braids import torus_braid
from .diagram import braid_closure_diagram
from .invariants import InvariantProfile, profile
from .presentation import ThreePagePresentation

#: The six-arc presentation of the Hopf link used as a fixture throughout.
HOPF = ThreePagePresentation.of(
    6, [(1, 3), (4, 6)], [(2, 6), (3, 5)], [(1, 5), (2, 4)])

#: The three-arc presentation of the unknot (the smallest valid presentation).
UNKNOT_TRIANGLE = ThreePagePresentation.of(3, [(1, 2)], [(2, 3)], [(1, 3)])


def normalize(p: int, q: int) -> tuple[int, int, bool]:
    """Bring arbitrary nonzero (p, q) into the range 2 <= p <= q using the
    torus-link symmetries: swapping p and q preserves the link, negating one
    parameter mirrors it, negating both preserves it.  Returns the
    normalised p and q and whether a mirror was applied."""
    if p == 0 or q == 0:
        raise ValueError("torus parameters must be nonzero")
    mirrored = (p < 0) != (q < 0)
    p, q = sorted((abs(p), abs(q)))
    if p == 1:
        raise ValueError(f"({p},{q}) is the trivial knot; no torus "
                         "constructor applies")
    return p, q, mirrored


def closure_profile(p: int, q: int) -> InvariantProfile:
    """Profile of the closed torus braid: the identification oracle."""
    return profile(braid_closure_diagram(torus_braid(p, q)))


# -- constructors -------------------------------------------------------------


def tnn(n: int) -> ThreePagePresentation:
    """Presentation of the (n,n)-torus link with 4n-2 arcs.

    Page 1 holds two (n-1)-nests of short arcs, page 2 an n-rainbow hugging
    the right end of the axis, page 3 an n-rainbow hugging the left end;
    the page distribution is exactly (2(n-1), n, n).  The two rainbows
    interleave so that the n components spiral around the binding axis,
    every pair clasping once.  For n = 2 this is the Hopf fixture.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p1 = ([(j, 2 * n - j) for j in range(1, n)]
          + [(2 * n - 1 + j, 4 * n - 1 - j) for j in range(1, n)])
    p2 = [(n - 1 + k, 4 * n - 1 - k) for k in range(1, n + 1)]
    p3 = [(k, 3 * n - k) for k in range(1, n + 1)]
    return ThreePagePresentation.of(4 * n - 2, p1, p2, p3)


def tpq(p: int, q: int) -> ThreePagePresentation:
    """Presentation of the (p,q)-torus link with 2p+2q-2 arcs (2 <= p <= q).

    For p = q this is the tnn construction (the arc counts agree there).
    Otherwise four nested arc families realise the closed torus braid: one
    anchor arc and a (p-1)-nest on page 1, a (p+q-2)-rainbow hugging the
    right end of the axis on page 2, and a q-rainbow hugging the left end
    on page 3.
    """
    if not 2 <= p <= q:
        raise ValueError(f"need 2 <= p <= q, got p={p}, q={q}")
    if p == q:
        return tnn(p)
    n = 2 * p + 2 * q - 2
    p1 = [(1, q + 1)] + [(q + 1 + j, n + 1 - j) for j in range(1, p)]
    p2 = [(1 + k, n + 1 - k) for k in range(1, p + q - 1)]
    p3 = [(k, p + 2 * q - k) for k in range(1, q + 1)]
    return ThreePagePresentation.of(n, p1, p2, p3)


def tpq_tight(p: int, q: int) -> ThreePagePresentation:
    """Presentation of the (p,q)-torus link with 2p+2q-3 arcs for q >= 2p,
    with page distribution (q-1, q-1, 2p-1).

    The bridge page carries two nests (p arcs clasping the left end, p-1
    short arcs around the axis midpoint); the other two pages each carry
    q-1 arcs, one as a rainbow hugging the right end of the axis and one as
    an anchor arc plus a rainbow.  At q = 2p the two bridge nests merge and
    a slightly different degenerate layout is used.
    """
    if p < 2 or q < 2 * p:
        raise ValueError(f"need 2 <= p and 2p <= q, got p={p}, q={q}")
    n = 2 * p + 2 * q - 3
    if q == 2 * p:
        back = [(1, q)] + [(q + j, n + 1 - j) for j in range(1, 2 * p - 1)]
        bottom = [(1 + k, n + 1 - k) for k in range(1, q)]
        front = [(k, 2 * q - k) for k in range(1, q)]
        return ThreePagePresentation.of(n, bottom, front, back)
    front = [(1 + k, n + 1 - k) for k in range(1, q)]
    back = ([(k, q + 2 * p - k) for k in range(1, p + 1)]
            + [(q - p + 1 + j, q + p - 1 - j) for j in range(p - 1)])
    bottom = [(1, p + 1)]
    for j in range(1, q - 1):
        left = p + 1 + j if j <= q - 2 * p - 1 else 2 * p + j
        bottom.append((left, n + 1 - j))
    return ThreePagePresentation.of(n, bottom, front, back)


# -- bounds --------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Arc-count bounds for the (p,q)-torus link.

    ``arc_index`` is p+q (exact for nontrivial torus links).  The bridge
    number min(p, q) is external knowledge (Schubert); every page needs at
    least that many arcs, giving the lower bound 3*min(p, q).
    """

    p: int
    q: int
    arc_index: int
    bridge_bound: int
    upper_general: int
    upper_tight: Optional[int]
    exact: Optional[int]


def bounds(p: int, q: int) -> BoundsReport:
    """All torus bounds for normalised parameters (2 <= p <= q)."""
    if not 2 <= p <= q:
        raise ValueError(f"need 2 <= p <= q, got p={p}, q={q}")
    return BoundsReport(p, q, arc_index=p + q, bridge_bound=3 * p,
                        upper_general=2 * p + 2 * q - 2,
                        upper_tight=2 * p + 2 * q - 3 if q >= 2 * p else None,
                        exact=4 * p - 2 if p == q else None)
