"""Chart geometry and SVG rendering of 3x3 polytrope images."""

import random
from fractions import Fraction

import pytest

from tropcomm import TropMatrix, TropVector, kleene_star, random_polytrope
from tropcomm.drawing import (
    intersection_region_vertices,
    region_vertices,
    render_polytrope_svg,
    tp2_chart,
    tropical_segment,
)
from tropcomm.polytrope import star_image_contains

from helpers import EX7_A, EX7_B


def test_tp2_chart():
    assert tp2_chart(TropVector.of([1, 3, 6])) == (Fraction(2), Fraction(5))
    with pytest.raises(ValueError):
        tp2_chart(TropVector.of([0, "inf", 1]))


def test_tropical_segment_endpoints_and_bend():
    x = TropVector.of([0, 0, 0])
    y = TropVector.of([0, 1, 3])
    pts = tropical_segment(x, y)
    assert pts[0] == tp2_chart(y) or pts[-1] == tp2_chart(y)
    assert pts[0] == tp2_chart(x) or pts[-1] == tp2_chart(x)
    assert 2 <= len(pts) <= 4


def test_segment_and_region_refuse_what_they_cannot_draw():
    with pytest.raises(ValueError):
        tropical_segment(TropVector.of([0, 0]), TropVector.of([0, 1]))
    with pytest.raises(ValueError):
        tropical_segment(TropVector.of([0, 0, 0]), TropVector.of([0, "inf", 1]))
    with pytest.raises(ValueError):
        region_vertices(TropMatrix.of([[0, 1, "inf"], [1, 0, 1], [1, 1, 0]]))


def test_region_vertices_of_generic_star():
    m = TropMatrix.of([
        ["0", "69/50", "583/100"],
        ["217/25", "0", "411/50"],
        ["783/100", "13/20", "0"],
    ])
    assert kleene_star(m) == m
    poly = region_vertices(m)
    assert len(poly) == 6
    # the region is exactly the fixed set: its vertices are members
    for (u, v) in poly:
        assert star_image_contains(m, TropVector.of([0, u, v]))


def test_intersection_region_is_a_pentagon_for_the_numeric_pair():
    # the two published 3x3 polytropes intersect in a pentagon (exact)
    pts = intersection_region_vertices(EX7_A, EX7_B)
    assert len(pts) == 5
    star = kleene_star(EX7_A + EX7_B)
    astar, bstar = kleene_star(EX7_A), kleene_star(EX7_B)
    for (u, v) in pts:
        x = TropVector.of([0, u, v])
        assert star_image_contains(star, x)
        assert star_image_contains(astar, x) and star_image_contains(bstar, x)


def test_hexagonal_intersection_exists():
    a = TropMatrix.of([
        ["0", "697/100", "109/20"],
        ["219/50", "0", "199/25"],
        ["161/50", "477/100", "0"],
    ])
    b = TropMatrix.of([
        ["0", "6", "473/50"],
        ["93/20", "0", "371/100"],
        ["307/100", "51/20", "0"],
    ])
    assert len(intersection_region_vertices(a, b)) == 6


def test_svg_structure_single_polytrope():
    text = render_polytrope_svg([EX7_A]).text
    assert text.count("<circle") == 3
    assert text.count("<polyline") == 3
    assert 'class="region"' in text
    assert "<svg" in text and 'version="1.1"' in text


def test_svg_two_polytropes_have_distinct_styles():
    doc = render_polytrope_svg([EX7_A, EX7_B])
    text = doc.text
    assert 'class="polytrope-0"' in text and 'class="polytrope-1"' in text
    assert text.count("<circle") == 6
    assert 'class="intersection"' in text
    assert len(doc.intersection_vertices) == 5


def test_svg_deterministic():
    a = render_polytrope_svg([EX7_A, EX7_B])
    b = render_polytrope_svg([EX7_A, EX7_B])
    assert a.text == b.text


def test_svg_rejects_bad_input():
    with pytest.raises(ValueError):
        render_polytrope_svg([])
    with pytest.raises(ValueError):
        render_polytrope_svg([TropMatrix.identity(3)])
    with pytest.raises(ValueError):
        render_polytrope_svg([TropMatrix.of([[0, 1], [1, 0]])])


def test_segments_stay_in_the_image():
    rng = random.Random(79)
    for _ in range(50):
        a = random_polytrope(rng, 3)
        cols = [a.column(j) for j in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                for (u, v) in tropical_segment(cols[i], cols[j]):
                    assert star_image_contains(a, TropVector.of([0, u, v]))
