"""Chart geometry and SVG rendering of 3x3 polytrope images."""

import hashlib
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
from tropcomm.core import NegativeCycleError
from tropcomm.polytrope import is_premetric, star_image_contains

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


def test_region_of_an_empty_image_raises():
    # x1 - x3 <= -3 and x3 - x1 <= 0 leave no point
    with pytest.raises(NegativeCycleError):
        region_vertices(TropMatrix.of([[0, -1, -3], [0, 0, 3], [0, 0, 0]]))


def test_region_of_a_premetric_is_the_region_of_its_star():
    rng = random.Random(23)
    not_stars = 0
    for _ in range(300):
        m = TropMatrix.of([[0 if i == j else Fraction(rng.randint(1, 12), rng.randint(1, 3))
                            for j in range(3)] for i in range(3)])
        assert is_premetric(m)
        star = kleene_star(m)
        not_stars += star != m
        assert region_vertices(m) == region_vertices(star)
    assert not_stars > 100


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def test_region_vertices_of_stars_are_a_convex_counterclockwise_polygon():
    """The closed form against the definition: distinct points of the
    image, each on two of the six constraint lines, and no clockwise turn."""
    rng = random.Random(31)
    sizes = set()
    for _ in range(400):
        r = rng.choice([2, 6, 30])
        star = kleene_star(TropMatrix.of([[0 if i == j else rng.randint(0, r) for j in range(3)]
                                          for i in range(3)]))
        s = [[e.value for e in row] for row in star.rows]
        poly = region_vertices(star)
        sizes.add(len(poly))
        assert len(set(poly)) == len(poly)
        for k, (u, v) in enumerate(poly):
            x = (0, u, v)
            slack = [s[i][j] - (x[i] - x[j]) for i in range(3) for j in range(3) if i != j]
            assert min(slack) >= 0 and slack.count(0) >= 2
            assert _cross(poly[(k - 2) % len(poly)], poly[k - 1], (u, v)) >= 0
    assert sizes == {1, 2, 3, 4, 5, 6}


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


_ZERO = TropMatrix.of([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
_NOT_A_STAR = TropMatrix.of([[0, 5, 1], [1, 0, 7], [2, 1, 0]])


@pytest.mark.parametrize("matrices, digest, counts", [
    ([EX7_A], "2e60a656c312775e05d23a64db94ae59510961b4a4e0965c829148c8fe164904", (5,)),
    ([EX7_A, EX7_B], "ab73f4f5f10f378729427852f03146059b5c7a4497c89152416fdafd05bbc1df", (5, 3)),
    ([_ZERO], "26332b5d1dbe503374cd39831b8032d3b17f5159f906be3ccfba2270b4df2137", (1,)),
    ([_NOT_A_STAR], "723caf3ddaee0d0dd599e78dc64443ab471b5c0873356c902818aec366ab18d5", (3,)),
], ids=["ex7a", "ex7a-ex7b", "zero-one-point", "premetric-not-a-star"])
def test_svg_is_pinned(matrices, digest, counts):
    doc = render_polytrope_svg(matrices)
    assert hashlib.sha256(doc.text.encode()).hexdigest() == digest
    assert doc.point_count == 3 * len(matrices) and doc.region_vertex_counts == counts
