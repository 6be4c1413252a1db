"""Braid words, torus braids and the word manipulations behind the torus bounds.

Generators follow the convention that a positive letter makes the
higher-numbered strand cross over the lower one appearing in the word as
``s1 s2 -s1`` (negative prefix for an inverse).  Braid equality is only ever
certified here at the level of permutations, exponent sums and closure
invariants; a word-problem solver is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class BraidWord:
    """A braid on ``strands`` strands as a sequence of (index, sign) letters."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(strands: int, letters: Iterable[tuple[int, int]]) -> "BraidWord":
        if strands < 1:
            raise ValueError(f"strand count must be positive, got {strands}")
        letters = tuple((int(i), 1 if s > 0 else -1) for i, s in letters)
        for i, _ in letters:
            if not 1 <= i <= strands - 1:
                raise ValueError(f"generator index {i} out of range for "
                                 f"{strands} strands")
        return BraidWord(strands, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse CLI word syntax like ``s1 s2 -s2``."""
    letters: list[tuple[int, int]] = []
    for chunk in text.split():
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        if not chunk.startswith("s") or not chunk[1:].isdigit():
            raise ValueError(f"bad braid letter {chunk!r} (expected e.g. 's2' or '-s2')")
        letters.append((int(chunk[1:]), sign))
    return BraidWord.of(strands, letters)


def format_word(w: BraidWord) -> str:
    return " ".join(("s" if s > 0 else "-s") + str(i) for i, s in w.letters)


def torus_braid(p: int, q: int) -> BraidWord:
    """The q-strand word (s1 s2 ... s_{q-1})^p whose closure is the (p,q)-torus link."""
    if q < 2 or p < 1:
        raise ValueError(f"need q >= 2 and p >= 1, got p={p}, q={q}")
    block = [(i, 1) for i in range(1, q)]
    return BraidWord.of(q, block * p)


def torus_braid_small(p: int, q: int) -> BraidWord:
    """The same torus link on p strands: (s1 s2 ... s_{p-1})^q."""
    if p < 2 or q < 1:
        raise ValueError(f"need p >= 2 and q >= 1, got p={p}, q={q}")
    return torus_braid(q, p)


def _descending_run(top: int, bottom: int) -> list[tuple[int, int]]:
    return [(i, 1) for i in range(top, bottom - 1, -1)]


def torus_braid_lower_twist_form(p: int, q: int) -> BraidWord:
    """Rewriting of torus_braid(p, q) as a full twist on the first p strands
    followed by descending staircases:

        (s1 ... s_{p-1})^p * prod_{j=p}^{q-1} (s_j s_{j-1} ... s_{j-p+1})

    The printed source of this identity garbles the staircase subscripts;
    this is the corrected reading, which tests certify exactly via the braid
    action on a free group.
    """
    if not 2 <= p <= q:
        raise ValueError(f"need 2 <= p <= q, got p={p}, q={q}")
    letters = [(i, 1) for i in range(1, p)] * p
    for j in range(p, q):
        letters += _descending_run(j, j - p + 1)
    return BraidWord.of(q, letters)


def torus_braid_upper_twist_form(p: int, q: int) -> BraidWord:
    """Rewriting of torus_braid(p, q) with the staircases first and the full
    twist on the last p strands:

        prod_{j=p}^{q-1} (s_j ... s_{j-p+1}) * (s_{q-p+1} ... s_{q-1})^p

    Also a corrected reading (the printed form has one factor too wide).
    """
    if not 2 <= p < q:
        raise ValueError(f"need 2 <= p < q, got p={p}, q={q}")
    letters: list[tuple[int, int]] = []
    for j in range(p, q):
        letters += _descending_run(j, j - p + 1)
    letters += [(i, 1) for i in range(q - p + 1, q)] * p
    return BraidWord.of(q, letters)


def permutation(w: BraidWord) -> tuple[int, ...]:
    """Final position of each strand (1-based), ignoring signs."""
    arr = list(range(1, w.strands + 1))  # arr[pos] = strand currently there
    for i, _ in w.letters:
        arr[i - 1], arr[i] = arr[i], arr[i - 1]
    final = [0] * w.strands
    for pos, strand in enumerate(arr):
        final[strand - 1] = pos + 1
    return tuple(final)


def cycle_count(w: BraidWord) -> int:
    """Number of permutation cycles = component count of the closure."""
    perm = permutation(w)
    seen = [False] * w.strands
    cycles = 0
    for start in range(w.strands):
        if seen[start]:
            continue
        cycles += 1
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k] - 1
    return cycles


def exponent_sum(w: BraidWord) -> int:
    return sum(s for _, s in w.letters)


@dataclass(frozen=True)
class FactorizationReport:
    """Evidence-level comparison of two words claimed equal as braids."""

    permutation_equal: bool
    exponent_sum_equal: bool
    closure_profiles_equal: bool

    @property
    def all_passed(self) -> bool:
        return (self.permutation_equal and self.exponent_sum_equal
                and self.closure_profiles_equal)


def verify_factorization(lhs: BraidWord, rhs: BraidWord) -> FactorizationReport:
    """Check equal permutations, equal exponent sums and equal closure
    invariant profiles (up to mirror).  Passing all three is strong evidence
    of braid equality, not a proof."""
    if lhs.strands != rhs.strands:
        raise ValueError(f"strand counts differ: {lhs.strands} vs {rhs.strands}")
    from .diagram import braid_closure_diagram
    from .invariants import equal_up_to_mirror, profile

    perm_ok = permutation(lhs) == permutation(rhs)
    exp_ok = exponent_sum(lhs) == exponent_sum(rhs)
    prof_ok = equal_up_to_mirror(profile(braid_closure_diagram(lhs)),
                                 profile(braid_closure_diagram(rhs)))
    return FactorizationReport(perm_ok, exp_ok, prof_ok)
