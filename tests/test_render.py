from pathlib import Path

import pytest

from threepage.presentation import arcs_interleave
from threepage.render import (RenderSpec, crossing_position, render,
                              render_ascii, render_svg)
from threepage.search import SearchConstraints, enumerate_presentations
from threepage.torus import tnn

from util import reference_crossing_position

GOLDEN = Path(__file__).parent / "golden"


def test_unknot_triangle_svg_has_three_arcs_no_gaps(unknot_triangle):
    svg = render(unknot_triangle)
    assert svg.count("<path") == 3


def test_hopf_svg_has_two_gaps(hopf):
    svg = render(hopf)
    # two page-1 arcs each cut once by an over-strand: 4 path segments,
    # plus two uncut arcs on each of pages 2 and 3
    assert svg.count("<path") == 8


def test_render_matches_golden_bytes(hopf):
    assert render(hopf) == (GOLDEN / "hopf.svg").read_text()
    assert render(hopf, RenderSpec(format="ascii")) == (GOLDEN / "hopf.txt").read_text()


def test_render_deterministic(hopf):
    spec = RenderSpec(scale=33.0)
    assert render(hopf, spec) == render(hopf, spec)
    big = render(tnn(4))
    assert big == render(tnn(4))


def test_ascii_contains_axis_and_labels(hopf):
    text = render_ascii(hopf)
    assert "axis" in text
    assert "* * * * * *" in text
    assert text.splitlines()[-1].strip().startswith("|") or "1 2 3 4 5 6" in text


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(format="png")
    for scale in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RenderSpec(scale=scale)


def test_labels_toggle(hopf):
    with_labels = render_svg(hopf, RenderSpec(labels=True))
    without = render_svg(hopf, RenderSpec(labels=False))
    assert "<text" in with_labels and "<text" not in without


def test_crossing_position_is_the_rounded_exact_intersection():
    # every interleaving P1/P3 pair of every canonical presentation on up
    # to eight points
    checked = 0
    for n in range(3, 9):
        for pres in enumerate_presentations(SearchConstraints(n)):
            for u in pres.pages[0]:
                for v in pres.pages[2]:
                    if arcs_interleave(u, v):
                        assert crossing_position(u, v) == float(
                            reference_crossing_position(u, v)), (pres, u, v)
                        checked += 1
    assert checked > 10000
