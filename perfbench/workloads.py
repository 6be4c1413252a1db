"""The benchmark's workloads: seeded inputs, one closed-loop pass, known answers.

Each workload is a pool of operations. ``build`` draws the inputs from a
seed (this is set-up), ``call`` runs one operation through threepage's
public functions (this is timed), and ``check`` compares what came back with
an answer that does not come from the code under test: the paper's verdicts
and arc-count formulas, textbook Jones polynomials, the closed form of the
torus-knot Jones polynomial, and the frozen refutation counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import threepage as tp
from threepage.invariants import DEFAULT_CROSSING_LIMIT

# -- known answers -------------------------------------------------------------

#: refute_t33_at_9 examines exactly this many canonical presentations and
#: finds no candidate with the right |lk| multiset (frozen in the test suite).
T33_EXAMINED = 500
T33_LINKING_CANDIDATES = 0

#: Index searches run up to the trefoil's index.
INDEX_N_MAX = 8

#: Jones polynomials in the bracket variable A (t = A^-4), as
#: {exponent: coefficient}, one per orientation class.  Unknot: 1.  Hopf
#: link: -t^1/2 - t^5/2 and its reverse-orientation mirror.  Right-handed
#: trefoil: t + t^3 - t^4.  Compared up to one global mirror.
KNOWN_JONES = {
    "unknot": [{0: 1}],
    "hopf": [{-2: -1, -10: -1}, {2: -1, 10: -1}],
    "trefoil": [{-4: 1, -12: 1, -16: -1}],
}

#: (name, base braid strands, base letters, index, components, |lk| multiset)
INDEX_TARGETS = (
    ("unknot", 2, ((1, 1),), 3, 1, ()),
    ("hopf", 2, ((1, 1),) * 2, 6, 2, (1,)),
    ("trefoil", 2, ((1, 1),) * 3, 8, 1, ()),
)

#: Torus-verify pool: (constructor, p, q).  Its diagrams have 20 to 34
#: crossings; 16 of the 28 profiled per pass exceed DEFAULT_CROSSING_LIMIT,
#: so every call passes TORUS_LIMIT.
TORUS_POOL = (("tnn", 5, 5), ("tnn", 6, 6), ("tpq", 4, 7), ("tpq_tight", 4, 9))
TORUS_LIMIT = 64


def torus_arcs_and_pages(kind: str, p: int, q: int) -> tuple[int, tuple[int, int, int]]:
    """The paper's arc count and page distribution for each constructor."""
    if kind == "tnn":
        return 4 * p - 2, (2 * (p - 1), p, p)
    if kind == "tpq":
        return 2 * p + 2 * q - 2, (p, p + q - 2, q)
    return 2 * p + 2 * q - 3, (q - 1, q - 1, 2 * p - 1)


def torus_knot_jones(p: int, q: int) -> dict[int, int]:
    """Jones polynomial of the (p,q)-torus knot in A, from the closed form
    V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
    (Jones, Ann. Math. 1987), with t = A^-4."""
    num = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quot: dict[int, int] = {}
    # divide by 1 - t^2 from the low end: quot[k] = num[k] + quot[k-2]
    for k in range(p + q - 1):
        quot[k] = num.get(k, 0) + quot.get(k - 2, 0)
    shift = (p - 1) * (q - 1) // 2
    return {-4 * (k + shift): c for k, c in quot.items() if c}


def jones_terms(polys) -> frozenset:
    """A Jones set as a frozenset of sorted (exponent, coefficient) tuples."""
    return frozenset(tuple(sorted(p.terms)) for p in polys)


def known_terms(dicts) -> frozenset:
    return frozenset(tuple(sorted(d.items())) for d in dicts)


def mirror_terms(terms: frozenset) -> frozenset:
    return frozenset(tuple(sorted((-e, c) for e, c in t)) for t in terms)


def jones_mismatch(prof, known: frozenset) -> Optional[str]:
    got = jones_terms(prof.jones)
    if got == known or got == mirror_terms(known):
        return None
    return f"Jones set {prof.jones_strings()} differs from the known one"


def dihedral(triple: tuple[int, int, int]) -> set[tuple[int, int, int]]:
    """Page-size triples reachable by page rotation and point reversal."""
    out = set()
    for t in (triple, triple[::-1]):
        for k in range(3):
            out.add(t[k:] + t[:k])
    return out


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], Optional[str]]

    def run_pass(self, inputs: list, on_op: Callable[[], None] = lambda: None
                 ) -> list[tuple[Any, Any, Optional[BaseException]]]:
        """One closed-loop pass: each operation starts when the last returns.
        An exception is an outcome of the operation, not of the pass."""
        outcomes = []
        for item in inputs:
            on_op()
            try:
                outcomes.append((item, self.call(item), None))
            except Exception as exc:  # counted as a failed operation
                outcomes.append((item, None, exc))
        return outcomes

    def failures(self, outcomes) -> list[str]:
        out = []
        for item, value, exc in outcomes:
            reason = (f"{type(exc).__name__}: {exc}" if exc is not None
                      else self.check(item, value))
            if reason:
                out.append(f"{item.name}: {reason}")
        return out


# refute-t33 ---------------------------------------------------------------------


@dataclass(frozen=True)
class RefuteInput:
    name: str = "refute_t33_at_9"
    examined: int = T33_EXAMINED
    linking_candidates: int = T33_LINKING_CANDIDATES


def build_refute(seed: int) -> list:
    return [RefuteInput()]  # no inputs, so nothing to draw


def call_refute(item: RefuteInput):
    return tp.refute_t33_at_9()


def check_refute(item: RefuteInput, report) -> Optional[str]:
    if not report.refuted:
        return f"not refuted: {len(report.witnesses)} witnesses"
    if report.examined != item.examined:
        return f"examined {report.examined}, expected {item.examined}"
    if report.linking_candidates != item.linking_candidates:
        return (f"{report.linking_candidates} linking candidates, "
                f"expected {item.linking_candidates}")
    return None


# index-search -------------------------------------------------------------------


@dataclass(frozen=True)
class IndexInput:
    name: str
    word: tp.BraidWord
    index: int
    components: int
    abs_linking: tuple[int, ...]
    jones: frozenset


def _draw_word(rng: random.Random, strands: int, letters: tuple) -> tuple[int, tuple]:
    """Three Markov-type moves, none of which changes the link up to mirror:
    conjugate by a generator, stabilise onto a new strand, or mirror."""
    letters = list(letters)
    for _ in range(3):
        move = rng.choice(("conjugate", "stabilise", "mirror")
                          if strands < 4 else ("conjugate", "mirror"))
        if move == "conjugate":
            i, s = rng.randrange(1, strands), rng.choice((1, -1))
            letters = [(i, s)] + letters + [(i, -s)]
        elif move == "stabilise":
            letters.append((strands, rng.choice((1, -1))))
            strands += 1
        else:
            letters = [(i, -s) for i, s in letters]
    return strands, tuple(letters)


def build_index(seed: int, targets=INDEX_TARGETS) -> list:
    rng = random.Random(seed)
    out = []
    for name, strands, letters, index, comps, lk in targets:
        strands, letters = _draw_word(rng, strands, letters)
        out.append(IndexInput(name, tp.BraidWord.of(strands, letters), index,
                              comps, lk, known_terms(KNOWN_JONES[name])))
    return out


def call_index(item: IndexInput):
    target = tp.profile(tp.braid_closure_diagram(item.word))
    return target, tp.three_page_index(target, INDEX_N_MAX)


def _profile_mismatch(prof, components: int, abs_linking: tuple,
                      jones: Optional[frozenset]) -> Optional[str]:
    if prof.component_count != components:
        return f"{prof.component_count} components, expected {components}"
    if prof.abs_linking != abs_linking:
        return f"|lk| {prof.abs_linking}, expected {abs_linking}"
    return jones_mismatch(prof, jones) if jones is not None else None


def check_index(item: IndexInput, value) -> Optional[str]:
    target, result = value
    bad = _profile_mismatch(target, item.components, item.abs_linking, item.jones)
    if bad:
        return f"target: {bad}"
    if not result.found or result.n != item.index:
        return f"search gave {result}, expected index {item.index}"
    witness = result.witness
    if witness.arc_count() != item.index or not tp.validate(witness).ok:
        return f"witness {witness} is not a valid {item.index}-arc presentation"
    wprof = tp.profile(witness)
    if not tp.equal_up_to_mirror(wprof, target):
        return f"witness profile {wprof} does not match the target"
    bad = _profile_mismatch(wprof, item.components, item.abs_linking, item.jones)
    return f"witness: {bad}" if bad else None


# torus-verify -------------------------------------------------------------------


@dataclass(frozen=True)
class TorusInput:
    name: str
    kind: str
    p: int
    q: int
    #: symmetry-orbit images to project, in this order
    images: tuple[int, ...]
    #: the closed torus braid, cyclically rotated
    word: tp.BraidWord


@dataclass(frozen=True)
class ImageVerdict:
    image: int
    arcs: int
    pages: tuple[int, int, int]
    crossings: int
    matches: bool


@dataclass(frozen=True)
class TorusResult:
    oracle: Any
    oracle_crossings: int
    images: tuple[ImageVerdict, ...]

    def crossing_counts(self) -> list[int]:
        return [self.oracle_crossings] + [v.crossings for v in self.images]


def build_torus(seed: int, pool=TORUS_POOL) -> list:
    """Every orbit image is projected on every seed, so a pass does the same
    work whatever the seed; the seed draws the order of the images and the
    cyclic rotation of each braid word."""
    rng = random.Random(seed)
    out = []
    for kind, p, q in pool:
        word = tp.torus_braid_small(p, q)
        r = rng.randrange(len(word))
        rotated = tp.BraidWord.of(word.strands, word.letters[r:] + word.letters[:r])
        out.append(TorusInput(f"{kind}({p},{q})", kind, p, q,
                              tuple(rng.sample(range(6), 6)), rotated))
    return out


def call_torus(item: TorusInput) -> TorusResult:
    construct = getattr(tp, item.kind)
    pres = construct(item.p) if item.kind == "tnn" else construct(item.p, item.q)
    orbit = list(tp.symmetry_orbit(pres))
    closure = tp.braid_closure_diagram(item.word)
    oracle = tp.profile(closure, TORUS_LIMIT)
    verdicts = []
    for k in item.images:
        image = orbit[k]
        d = tp.project(image)
        prof = tp.profile(d, TORUS_LIMIT)
        verdicts.append(ImageVerdict(k, image.arc_count(), image.page_sizes(),
                                     len(d.crossings),
                                     tp.equal_up_to_mirror(prof, oracle)))
    return TorusResult(oracle, len(closure.crossings), tuple(verdicts))


def check_torus(item: TorusInput, result: TorusResult) -> Optional[str]:
    p, q = item.p, item.q
    d = math.gcd(p, q)
    lk = (p * q // (d * d),) * (d * (d - 1) // 2)
    jones = known_terms([torus_knot_jones(p, q)]) if d == 1 else None
    bad = _profile_mismatch(result.oracle, d, lk, jones)
    if bad:
        return f"closed braid: {bad}"
    arcs, pages = torus_arcs_and_pages(item.kind, p, q)
    if sorted(v.image for v in result.images) != list(range(6)):
        return "not every orbit image was verified"
    for v in result.images:
        if v.arcs != arcs or v.pages not in dihedral(pages):
            return (f"image {v.image}: {v.arcs} arcs on pages {v.pages}, "
                    f"expected {arcs} on {pages}")
        if not v.matches:
            return f"image {v.image}: profile differs from the closed braid"
    return None


def default_limit_exceeded(outcomes) -> int:
    """Profiled diagrams with more crossings than DEFAULT_CROSSING_LIMIT:
    every one of them would fail without the explicit limit."""
    return sum(c > DEFAULT_CROSSING_LIMIT
               for _, value, _ in outcomes if isinstance(value, TorusResult)
               for c in value.crossing_counts())


WORKLOADS = {w.name: w for w in (
    Workload("refute-t33",
             "Headline refutation of T(3,3) on 9 arcs; stresses search and "
             "presentation enumeration; bypasses the skein (one bracket) and "
             "laurent. Seed ignored.",
             build_refute, call_refute, check_refute),
    Workload("index-search",
             "Main use: index of unknot, Hopf, trefoil (3, 6, 8) from seeded "
             "braids; stresses the compare loop, enumeration and small "
             "profiles; bypasses big skeins.",
             build_index, call_index, check_index),
    Workload("torus-verify",
             "Constructors vs closed torus braids over all 6 orbit images; "
             "stresses invariants and laurent; bypasses search. Default "
             "crossing limit 24 caps the skein too (defect).",
             build_torus, call_torus, check_torus),
)}
