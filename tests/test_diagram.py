import hashlib
import random
from pathlib import Path

import pytest

from threepage.braids import BraidWord, parse_word, torus_braid
from threepage.diagram import (PlanarDiagram, abs_linking_multiset,
                               braid_closure_diagram, pd_export, project, trace)
from threepage.invariants import profile
from threepage.presentation import (ThreePagePresentation, arcs_interleave,
                                    components, symmetry_orbit)
from threepage.render import crossing_position
from threepage.search import SearchConstraints, enumerate_presentations
from threepage.torus import HOPF, tnn, tpq, tpq_tight

from reidemeister import faces, is_planar
from util import (assert_well_formed, disjoint_union, geometric_writhe_and_linking,
                  orientation_from_point_cycles, walk_points)


def test_project_unknot_triangle_no_crossings(unknot_triangle):
    d = project(unknot_triangle)
    assert d.crossing_count() == 0
    assert d.free_loops == 1
    assert trace(d).component_count == 1


def test_project_hopf_two_crossings(hopf):
    d = project(hopf)
    assert d.crossing_count() == 2
    # independent recount of interleavings
    brute = [(u, v) for u in hopf.pages[0] for v in hopf.pages[2]
             if u[0] < v[0] < u[1] < v[1] or v[0] < u[0] < v[1] < u[1]]
    assert brute == [((1, 3), (2, 4)), ((4, 6), (1, 5))]


def test_project_nested_over_disjoint_has_no_crossings():
    p = ThreePagePresentation.of(
        8, [(1, 2), (3, 4)], [(1, 8), (2, 7), (3, 6), (4, 5)], [(5, 8), (6, 7)])
    d = project(p)
    assert d.crossing_count() == 0


def test_project_component_count_matches_model(hopf):
    for pres in (hopf, tnn(3), tnn(4)):
        assert trace(project(pres)).component_count == len(components(pres))


def test_braid_closure_empty_word_is_unknot():
    d = braid_closure_diagram(BraidWord.of(1, []))
    assert d.crossing_count() == 0 and d.free_loops == 1


def test_braid_closure_hopf(hopf_braid_diagram):
    assert hopf_braid_diagram.crossing_count() == 2
    assert trace(hopf_braid_diagram).component_count == 2


def test_braid_closure_torus23():
    d = braid_closure_diagram(torus_braid(2, 3))
    assert d.crossing_count() == 4
    assert trace(d).component_count == 1


def test_braid_generator_range_checked():
    with pytest.raises(ValueError):
        BraidWord.of(2, [(2, 1)])


def test_linking_zero_crossing_unlink():
    p = ThreePagePresentation.of(4, [(1, 2)], [(1, 2), (3, 4)], [(3, 4)])
    d = project(p)
    assert trace(d).linking_matrix((False, False)) == ((0, 0), (0, 0))


def test_hopf_fixture_linking_and_writhe_match_spec(hopf):
    d = project(hopf)
    tr = trace(d)
    o = orientation_from_point_cycles(hopf, d, [(1, 3, 5), (2, 4, 6)])
    assert tr.writhe(o) == -2
    mat = tr.linking_matrix(o)
    assert mat[0][1] == mat[1][0] == -1
    # independent geometric oracle, same orientation
    geo_writhe, geo_lk = geometric_writhe_and_linking(hopf, [(1, 3, 5), (2, 4, 6)])
    assert geo_writhe == -2
    assert list(geo_lk.values()) == [-1]


def test_flipping_one_component_negates_its_rows(hopf):
    tr = trace(project(hopf))
    base = tr.linking_matrix((False, False))
    flipped = tr.linking_matrix((True, False))
    assert flipped[0][1] == -base[0][1]


def test_geometric_oracle_agrees_on_constructions():
    # every orientation: each subset of the point cycles walked backwards
    for pres in (HOPF, tnn(2), tnn(3), tnn(4)):
        cycles = [walk_points(walk) for walk in components(pres)]
        k = len(cycles)
        d = project(pres)
        tr = trace(d)
        # trace's component index of each point cycle
        index = [tr.edge_component[head[0]] for head in d.walk_heads]
        seen = set()
        for mask in range(1 << k):
            wanted = [tuple(reversed(c)) if mask >> i & 1 else c
                      for i, c in enumerate(cycles)]
            o = orientation_from_point_cycles(pres, d, wanted)
            seen.add(o)
            geo_writhe, geo_lk = geometric_writhe_and_linking(pres, wanted)
            assert tr.writhe(o) == geo_writhe
            mat = tr.linking_matrix(o)
            for i in range(k):
                assert mat[index[i]][index[i]] == 0
                for j in range(i + 1, k):
                    lk = geo_lk.get(frozenset((i, j)), 0)
                    assert mat[index[i]][index[j]] == mat[index[j]][index[i]] == lk
        assert len(seen) == 1 << k


def _inner_endpoint(outer, arc):
    return next(x for x in arc if outer[0] < x < outer[1])


def test_crossings_along_arcs_follow_inner_endpoints():
    # the exact semicircle intersections order the crossings along each
    # page-1 and page-3 arc as the crossing arcs' endpoints inside it
    pool = [p for n in range(3, 9)
            for p in enumerate_presentations(SearchConstraints(n))]
    pool += [tnn(n) for n in range(2, 7)]
    checked = 0
    for pres in pool:
        under_arcs, over_arcs = pres.pages[0], pres.pages[2]
        for u in under_arcs:
            crossing = [v for v in over_arcs if arcs_interleave(u, v)]
            by_x = sorted(crossing, key=lambda v: crossing_position(u, v))
            assert by_x == sorted(crossing, key=lambda v: _inner_endpoint(u, v)), (pres, u)
            checked += len(crossing) > 1
        for v in over_arcs:
            crossing = [u for u in under_arcs if arcs_interleave(u, v)]
            by_x = sorted(crossing, key=lambda u: crossing_position(u, v))
            assert by_x == sorted(crossing, key=lambda u: _inner_endpoint(v, u)), (pres, v)
            checked += len(crossing) > 1
    assert checked > 2000  # arcs crossed at least twice


def test_projections_match_golden_digest():
    # pd_export and profile of every canonical presentation on 3..7 points,
    # captured before projection ordered crossings by inner endpoints
    h = hashlib.sha256()
    count = 0
    for n in range(3, 8):
        for pres in enumerate_presentations(SearchConstraints(n)):
            h.update(f"{pres}\n{pd_export(project(pres))}{profile(pres)}\n".encode())
            count += 1
    assert count == 2314
    golden = Path(__file__).parent / "golden" / "projections.sha256"
    assert h.hexdigest() == golden.read_text().split()[0]


def test_tnn3_pairwise_linking():
    assert abs_linking_multiset(project(tnn(3))) == (1, 1, 1)


def test_writhe_zero_crossing(unknot_triangle):
    d = project(unknot_triangle)
    assert trace(d).writhe((False,)) == 0


def test_writhe_trefoil_either_orientation(trefoil_diagram):
    tr = trace(trefoil_diagram)
    for o in tr.orientations():
        assert tr.writhe(o) == 3


def test_writhe_hopf_fixture_orientations(hopf):
    tr = trace(project(hopf))
    assert sorted(tr.writhe(o) for o in tr.orientations()) == [-2, -2, 2, 2]


def test_pd_export_shape(trefoil_diagram):
    text = pd_export(trefoil_diagram)
    lines = text.strip().splitlines()
    assert lines[0] == "components=1 crossings=3"
    assert len(lines) == 4
    assert all(ln.startswith("X ") and len(ln.split()) == 5 for ln in lines[1:])


def test_pd_export_matches_golden_bytes():
    # freezes the edge labels of braid closures and projections
    cases = [
        ("braid 2 strands, empty word", braid_closure_diagram(BraidWord.of(2, []))),
        ("braid 3 strands, s1", braid_closure_diagram(parse_word("s1", 3))),
        ("braid T(3,4)", braid_closure_diagram(torus_braid(3, 4))),
        ("braid 3 strands, s1 -s2 s1 -s2",
         braid_closure_diagram(parse_word("s1 -s2 s1 -s2", 3))),
        ("project HOPF", project(HOPF)),
        ("project tnn(3)", project(tnn(3))),
    ]
    text = "".join(f"# {name}\n{pd_export(d)}" for name, d in cases)
    golden = Path(__file__).parent / "golden" / "pd.txt"
    assert text.encode() == golden.read_bytes()


def test_faces_euler_formula(trefoil_diagram, hopf_braid_diagram):
    for d in (trefoil_diagram, hopf_braid_diagram,
              braid_closure_diagram(torus_braid(3, 4))):
        v = d.crossing_count()
        f = len(faces(d))
        assert v - 2 * v + f == 2
        assert is_planar(d)


def test_projection_is_always_planar():
    from threepage.search import SearchConstraints, enumerate_presentations
    from threepage.torus import tpq_tight
    checked = 0
    for pres in enumerate_presentations(SearchConstraints(6)):
        assert is_planar(project(pres)), pres
        checked += 1
    assert checked > 100
    assert is_planar(project(tnn(5)))
    assert is_planar(project(tpq_tight(3, 7)))


def test_disjoint_union_components(trefoil_diagram, hopf_braid_diagram):
    d = disjoint_union(trefoil_diagram, hopf_braid_diagram)
    assert trace(d).component_count == 3
    assert d.crossing_count() == 5


def test_well_formed_oracle_rejects_malformed_diagrams():
    assert_well_formed(PlanarDiagram(((0, 0, 1, 1),)))
    with pytest.raises(AssertionError, match="exactly twice"):
        assert_well_formed(PlanarDiagram(((0, 1, 2, 3),)))
    with pytest.raises(AssertionError, match="negative free loop"):
        assert_well_formed(PlanarDiagram((), -1))


def test_canonical_projections_are_well_formed():
    for n in range(3, 8):
        for pres in enumerate_presentations(SearchConstraints(n)):
            assert_well_formed(project(pres))


def test_orbit_images_of_constructions_project_well_formed():
    for pres in (*map(tnn, range(2, 6)), tpq(3, 5), tpq_tight(2, 5)):
        for image in symmetry_orbit(pres):
            assert_well_formed(project(image))


def test_braid_closures_are_well_formed():
    rng = random.Random(2024)
    for _ in range(200):
        strands = rng.randint(2, 5)
        letters = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 12))]
        assert_well_formed(braid_closure_diagram(BraidWord.of(strands, letters)))


def test_orientation_size_checked(hopf):
    d = project(hopf)
    with pytest.raises(ValueError):
        trace(d).writhe((False,))
