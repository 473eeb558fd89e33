"""The grid-bucketed simplicity test against a plain O(n^2) pair oracle.

The oracle below compares every non-adjacent segment pair with the
textbook closed-segment intersection test (orientation signs, then an
on-segment check for collinear endpoints).  On integer coordinates its
arithmetic is exact, so the verdicts must agree on every input; float
inputs are random walks, where degenerate near-ties do not occur.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfgeo import _chartgeom, paths, surface as sf

PLANE = sf.builtin_surface("plane", {})


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _in_box(p, q, r):
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def _meet(a0, a1, b0, b1):
    d1, d2 = _orient(b0, b1, a0), _orient(b0, b1, a1)
    d3, d4 = _orient(a0, a1, b0), _orient(a0, a1, b1)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return ((d1 == 0 and _in_box(b0, b1, a0)) or (d2 == 0 and _in_box(b0, b1, a1))
            or (d3 == 0 and _in_box(a0, a1, b0)) or (d4 == 0 and _in_box(a0, a1, b1)))


def oracle_is_simple(points, closed):
    """O(n^2) reference: drop repeated samples, then test every
    non-adjacent segment pair for a shared point."""
    pts = [tuple(p) for p in points]
    if closed and len(pts) > 1 and np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    ring = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
    if closed and len(ring) > 1 and ring[-1] == ring[0]:
        ring = ring[:-1]
    n = len(ring)
    if n < 3:
        return True
    segs = [(ring[k], ring[(k + 1) % n]) for k in range(n if closed else n - 1)]
    m = len(segs)
    for i in range(m):
        for j in range(i + 2, m):
            if closed and i == 0 and j == m - 1:
                continue
            if _meet(*segs[i], *segs[j]):
                return False
    return True


def _agree(points):
    for closed in (False, True):
        want = oracle_is_simple(points, closed)
        got = _chartgeom.polyline_is_simple(np.asarray(points, dtype=float), closed=closed)
        assert got == want, (closed, points)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 6).flatmap(lambda g: st.lists(
    st.tuples(st.integers(0, g), st.integers(0, g)), min_size=2, max_size=12)))
def test_integer_polylines_match_oracle(points):
    """Small integer grids force touches, T-contacts, repeated samples and
    collinear runs, all in exact arithmetic; about half are simple."""
    _agree(points)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 80))
def test_random_walk_polylines_match_oracle(seed, n):
    """Float random walks with step lengths spread over three decades, so a
    few long segments set a coarse grid over many short ones."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n - 1, 2)) * 10.0 ** rng.uniform(-2, 1, size=(n - 1, 1))
    pts = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    _agree(pts.tolist())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 150))
def test_star_polygons_match_oracle(seed, n):
    """Star-shaped float polygons with radii over two decades are simple
    when closed; moving one vertex to a random place often breaks that."""
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    r = 10.0 ** rng.uniform(-1, 1, n)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    _agree(pts.tolist())
    pts[rng.integers(n)] = rng.uniform(-5, 5, 2)
    _agree(pts.tolist())


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 4), st.data())
def test_rectangle_edges_with_collinear_spurs(w, h, sub, data):
    """A chart rectangle sampled on a grid is simple; an out-and-back run
    along one of its edges, or a revisit of one of its samples, is not."""
    corners = [(0, 0), (w, 0), (w, h), (0, h), (0, 0)]
    ring = []
    for (x0, y0), (x1, y1) in zip(corners[:-1], corners[1:]):
        k = sub * max(abs(x1 - x0), abs(y1 - y0))
        ring += [(x0 * sub + (x1 - x0) * sub * t // k, y0 * sub + (y1 - y0) * sub * t // k)
                 for t in range(k)]
    ring.append(ring[0])
    _agree(ring)
    assert _chartgeom.polyline_is_simple(np.array(ring, dtype=float), closed=True)
    at = data.draw(st.integers(1, len(ring) - 3))
    back = data.draw(st.integers(1, len(ring) - 2 - at))
    spur = ring[: at + back + 1] + ring[at : at + back][::-1] + ring[at + 1 :]
    _agree(spur)
    assert not _chartgeom.polyline_is_simple(np.array(spur, dtype=float), closed=True)
    revisit = ring[: at + back + 1] + [(ring[at][0], ring[at][1])] + ring[at + back :]
    _agree(revisit)
    assert not _chartgeom.polyline_is_simple(np.array(revisit, dtype=float), closed=True)


@pytest.mark.parametrize(
    "points, simple",
    [
        # T-contact: the last segment's end lies inside the first segment
        ([(0, 0), (4, 0), (4, 2), (2, 2), (2, 0)], False),
        # same shape, stopping short of the first segment
        ([(0, 0), (4, 0), (4, 2), (2, 2), (2, 1)], True),
        # figure eight pinched at a shared sample
        ([(0, 0), (1, 1), (2, 0), (2, 2), (1, 1), (0, 2)], False),
        # collinear overlap of non-adjacent segments
        ([(0, 0), (3, 0), (3, 1), (1, 1), (1, 0), (2, 0)], False),
        # repeated consecutive samples are not a self-contact
        ([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1)], True),
    ],
)
def test_contact_cases(points, simple):
    _agree(points)
    assert _chartgeom.polyline_is_simple(np.array(points, dtype=float)) == simple


def test_closed_first_and_last_segments_are_adjacent():
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    assert _chartgeom.polyline_is_simple(np.array(tri), closed=True)
    _agree(tri)


@pytest.mark.parametrize("max_step", [0.1, 0.2, 0.3])
def test_bowtie_through_a_shared_sample_is_not_a_region(max_step):
    """The diagonals of this bowtie meet at a sample at max_step 0.2, where a
    proper-crossing test sees no crossing at all."""
    loop = paths.loop_from_waypoints(
        PLANE, [[0, 0], [1, 1], [1, 0], [0, 1], [0, 0]], max_step)
    assert not paths.is_simple(loop)
    with pytest.raises(ValueError, match="simple polygon"):
        paths.region_from_loop(loop)


def test_latitude_loop_is_simple_as_an_open_chart_polyline():
    """A loop that closes modulo the v period has no closing chart segment."""
    loop = paths.sample_path(
        sf.builtin_surface("sphere", {"r": 1.0}), "latitude_circle", {"u": 1.0}, 0.02)
    assert not loop.chart_closed and paths.is_simple(loop)
