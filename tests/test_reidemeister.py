import random

import pytest

from threepage.braids import BraidWord
from threepage.diagram import braid_closure_diagram, project
from threepage.invariants import bracket_skein, jones_set
from threepage.laurent import LaurentPoly, writhe_unit

from reidemeister import (R1Insert, R2Insert, is_planar, r1_insertion_sites,
                          r1_removal_sites, r2_insertion_sites, r2_removal_sites,
                          r3_sites, reidemeister_perturb, sites)


def test_r1_on_free_loop_gives_one_crossing_unknot(unknot_triangle):
    d = project(unknot_triangle)
    assert d.free_loops == 1
    kinked = reidemeister_perturb(d, "R1", R1Insert(None, True))
    assert kinked.crossing_count() == 1 and kinked.free_loops == 0
    assert bracket_skein(kinked) == LaurentPoly.monomial(3, -1)


def test_r1_factor_matches_kink_sign(trefoil_diagram):
    base = bracket_skein(trefoil_diagram)
    for site in r1_insertion_sites(trefoil_diagram):
        got = bracket_skein(reidemeister_perturb(trefoil_diagram, "R1", site))
        expected = base * writhe_unit(1 if site.positive else -1)
        assert got == expected


def test_r1_insert_then_remove_restores_bracket(trefoil_diagram):
    site = r1_insertion_sites(trefoil_diagram)[0]
    kinked = reidemeister_perturb(trefoil_diagram, "R1", site)
    removal = r1_removal_sites(kinked)
    assert removal
    back = reidemeister_perturb(kinked, "R1", removal[-1])
    assert bracket_skein(back) == bracket_skein(trefoil_diagram)


def test_r2_insert_then_remove_roundtrip(trefoil_diagram):
    base = bracket_skein(trefoil_diagram)
    applied = 0
    for site in r2_insertion_sites(trefoil_diagram)[:8]:
        try:
            poked = reidemeister_perturb(trefoil_diagram, "R2", site)
        except ValueError:
            continue
        applied += 1
        assert poked.crossing_count() == trefoil_diagram.crossing_count() + 2
        assert bracket_skein(poked) == base
        removals = r2_removal_sites(poked)
        assert removals
        unpoked = reidemeister_perturb(poked, "R2", removals[0])
        assert bracket_skein(unpoked) == base
    assert applied >= 4


def test_r3_preserves_crossing_count_and_bracket():
    d = braid_closure_diagram(BraidWord.of(3, [(1, 1), (2, 1), (1, 1)]))
    base = bracket_skein(d)
    triangles = r3_sites(d)
    assert triangles
    for site in triangles:
        slid = reidemeister_perturb(d, "R3", site)
        assert slid.crossing_count() == d.crossing_count()
        assert is_planar(slid)
        assert bracket_skein(slid) == base


def test_unknown_move_rejected(trefoil_diagram):
    with pytest.raises(ValueError):
        sites(trefoil_diagram, "R4")
    with pytest.raises(ValueError):
        reidemeister_perturb(trefoil_diagram, "R2",
                             r1_insertion_sites(trefoil_diagram)[0])


def test_seeded_walk_preserves_jones(hopf):
    rng = random.Random(99)
    d = project(hopf)
    target = jones_set(d)
    applied = {"R1": 0, "R2": 0, "R3": 0}
    for _ in range(40):
        options = []
        for move in ("R1", "R2", "R3"):
            for site in sites(d, move):
                grow = 1 if isinstance(site, R1Insert) else \
                    2 if isinstance(site, R2Insert) else 0
                if d.crossing_count() + grow <= 9:
                    options.append((move, site))
        move, site = options[rng.randrange(len(options))]
        try:
            d = reidemeister_perturb(d, move, site)
        except ValueError:
            continue
        applied[move] += 1
        assert jones_set(d) == target
    assert sum(applied.values()) >= 30
