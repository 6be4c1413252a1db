"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Every link-type comparison is exact polynomial equality up to one global
mirror, per the package's fixed chirality conventions.
"""

import os
import random
import time

from threepage.braids import (BraidWord, cycle_count, torus_braid,
                              torus_braid_lower_twist_form,
                              torus_braid_upper_twist_form, verify_factorization)
from threepage.diagram import braid_closure_diagram, project
from threepage.invariants import bracket_skein, equal_up_to_mirror, jones_set, profile
from threepage.laurent import writhe_unit
from threepage.presentation import validate
from threepage.render import render
from threepage.search import (SearchConstraints, census, census_text,
                              enumerate_presentations, refute_t33_at_9,
                              three_page_index)
from threepage.torus import (HOPF, UNKNOT_TRIANGLE, closure_profile, tnn, tpq,
                             tpq_tight)

import math

from reidemeister import (R1Insert, R2Insert, r1_insertion_sites,
                          reidemeister_perturb, sites)
from util import bracket_statesum, trivial_profile


def _seed(default):
    """Randomized checks are reproducible; THREEPAGE_TEST_SEED reruns them
    on a different deterministic sample."""
    return int(os.environ.get("THREEPAGE_TEST_SEED", default))


def _report(name, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"
    print(f"{name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_tnn_constructor():
    t0 = time.time()
    for n in range(2, 6):
        pres = tnn(n)
        assert validate(pres).ok
        assert pres.arc_count() == 4 * n - 2
        assert pres.page_sizes() == (2 * (n - 1), n, n)
        oracle = profile(braid_closure_diagram(torus_braid(n, n)))
        assert equal_up_to_mirror(profile(pres), oracle), n
    _report("criterion 1 (tnn constructor, n=2..5)", t0, 120)


def test_criterion_2_tpq_constructor():
    t0 = time.time()
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5)):
        pres = tpq(p, q)
        assert validate(pres).ok
        assert pres.arc_count() == 2 * p + 2 * q - 2
        assert equal_up_to_mirror(profile(pres), closure_profile(p, q)), (p, q)
    _report("criterion 2 (tpq constructor)", t0, 60)


def test_criterion_3_tight_constructor():
    t0 = time.time()
    for p, q in ((2, 4), (2, 5), (2, 6), (3, 6)):
        pres = tpq_tight(p, q)
        assert validate(pres).ok
        assert pres.arc_count() == 2 * p + 2 * q - 3
        assert sorted(pres.page_sizes()) == sorted((q - 1, q - 1, 2 * p - 1))
        assert equal_up_to_mirror(profile(pres), closure_profile(p, q)), (p, q)
    _report("criterion 3 (tight constructor)", t0, 60)


def test_criterion_4_hopf_index_is_six():
    t0 = time.time()
    hopf_profile = profile(HOPF)
    result = three_page_index(hopf_profile, 6)
    assert result.found and result.n == 6
    assert validate(result.witness).ok
    assert equal_up_to_mirror(profile(result.witness), hopf_profile)
    assert not any(equal_up_to_mirror(e.profile, hopf_profile)
                   for e in census(5))
    _report("criterion 4 (three-page index of the Hopf link = 6)", t0, 60)


def test_criterion_5_t33_needs_ten_arcs():
    t0 = time.time()
    report = refute_t33_at_9()
    assert report.examined == 500
    assert report.linking_candidates == 0
    assert report.refuted and not report.witnesses
    witness = tnn(3)
    assert witness.n == 10
    assert equal_up_to_mirror(profile(witness), closure_profile(3, 3))
    _report(f"criterion 5 (no T(3,3) in 9 arcs, {report.examined} examined; "
            f"tnn(3) witnesses 10)", t0, 600)


def test_criterion_6_small_census_only_trivial_profiles():
    t0 = time.time()
    for n in (3, 4, 5):
        for entry in census(n):
            k = entry.profile.component_count
            assert entry.profile == trivial_profile(k), (n, entry)
    _report("criterion 6 (census below 6 arcs is trivial)", t0, 300)


def test_criterion_7_bracket_algorithms_agree():
    t0 = time.time()
    rng = random.Random(_seed(73))
    diagrams = []
    pool = list(enumerate_presentations(SearchConstraints(6)))
    pool += list(enumerate_presentations(
        SearchConstraints(7, required_components=1)))
    rng.shuffle(pool)
    for pres in pool:
        d = project(pres)
        if d.crossing_count() <= 12:
            diagrams.append(d)
        if len(diagrams) >= 100:
            break
    while len(diagrams) < 200:
        strands = rng.randint(2, 5)
        letters = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 10))]
        d = braid_closure_diagram(BraidWord.of(strands, letters))
        if d.crossing_count() <= 12:
            diagrams.append(d)
    assert len(diagrams) == 200
    for d in diagrams:
        assert bracket_statesum(d) == bracket_skein(d)
    _report("criterion 7 (state sum vs skein on 200 seeded diagrams)", t0, 120)


def test_criterion_8_invariance_suite():
    t0 = time.time()
    bases = [project(UNKNOT_TRIANGLE), project(HOPF),
             braid_closure_diagram(BraidWord.of(2, [(1, 1)] * 3))]
    rng = random.Random(_seed(4099))
    for base in bases:
        target = jones_set(base)
        for site in r1_insertion_sites(base)[:4]:
            got = bracket_skein(reidemeister_perturb(base, "R1", site))
            unit = writhe_unit(1 if site.positive else -1)
            assert got == bracket_skein(base) * unit
        d = base
        applied = 0
        while applied < 100:
            options = []
            for move in ("R1", "R2", "R3"):
                for site in sites(d, move):
                    grow = 1 if isinstance(site, R1Insert) else \
                        2 if isinstance(site, R2Insert) else 0
                    if d.crossing_count() + grow <= 10:
                        options.append((move, site))
            move, site = options[rng.randrange(len(options))]
            try:
                d = reidemeister_perturb(d, move, site)
            except ValueError:
                continue
            applied += 1
            assert jones_set(d) == target
    _report("criterion 8 (jones invariant under 3x100 Reidemeister moves)", t0, 60)


def test_criterion_9_braid_bookkeeping():
    t0 = time.time()
    for p in range(2, 8):
        for q in range(p, 8):
            assert cycle_count(torus_braid(p, q)) == math.gcd(p, q)
    lower = verify_factorization(torus_braid(3, 5),
                                 torus_braid_lower_twist_form(3, 5))
    assert lower.all_passed
    upper = verify_factorization(torus_braid(2, 5),
                                 torus_braid_upper_twist_form(2, 5))
    assert upper.all_passed
    _report("criterion 9 (cycle counts and twist factorizations)", t0, 30)


def test_criterion_10_determinism():
    t0 = time.time()
    first = census_text(census(6))
    second = census_text(census(6))
    assert first == second and first
    assert render(HOPF) == render(HOPF)
    _report("criterion 10 (byte-identical census and render)", t0, 120)
