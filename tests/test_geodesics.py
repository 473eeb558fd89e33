"""Geodesic shooting, connection, relaxation, and variation probes.

Oracles: chart straight lines on the plane and cylinder (their Christoffel
symbols vanish), meridians on the sphere, and the arccos of the embedded dot
product for great-circle distances.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from surfgeo import geodesics, paths, surface as sf

SPHERE = sf.builtin_surface("sphere", {"r": 1.0})
PLANE = sf.builtin_surface("plane", {})
CYL = sf.builtin_surface("cylinder", {"r": 1.3})
HILL = sf.builtin_surface("hill", {"h": 1.0, "sigma": 1.0})
ELLIPSOID = sf.builtin_surface("ellipsoid", {"a": 1.0, "b": 1.3, "c": 0.8})


def _sphere_xyz(p):
    u, v = p
    return np.array([math.sin(u) * math.cos(v), math.sin(u) * math.sin(v), math.cos(u)])


def test_plane_shots_are_straight():
    g = geodesics.shoot_geodesic(PLANE, (0.5, -1.0), (3.0, 4.0), 2.5)
    pts = g.result_path.points
    want = np.array([0.5, -1.0]) + np.outer(g.cumulative, [0.6, 0.8])
    assert np.allclose(pts, want, atol=1e-12)
    assert abs(g.length - 2.5) < 1e-12
    assert not g.exited


def test_sphere_meridian_stays_on_meridian():
    g = geodesics.shoot_geodesic(SPHERE, (0.4, 1.1), (1.0, 0.0), 1.8)
    pts = g.result_path.points
    assert np.allclose(pts[:, 1], 1.1, atol=1e-12)
    assert abs(pts[-1, 0] - (0.4 + 1.8)) < 1e-10


def test_cylinder_shots_are_chart_straight():
    g = geodesics.shoot_geodesic(CYL, (0.2, 1.0), (1.0, 0.7), 2.0)
    pts = g.result_path.points
    d = pts - pts[0]
    # all samples collinear in the chart
    assert np.max(np.abs(d[:, 0] * d[-1, 1] - d[:, 1] * d[-1, 0])) < 1e-12


def test_shot_rotation_rate_is_tiny():
    for s, start, direction in (
        (SPHERE, (1.0, 0.5), (0.3, 1.0)),
        (HILL, (-0.8, 0.3), (1.0, -0.4)),
    ):
        g = geodesics.shoot_geodesic(s, start, direction, 1.2, step=0.01)
        assert np.max(np.abs(geodesics.rotation_rate_profile(s, g))) < 1e-6


def test_latitude_circle_rotation_rate_matches_cot():
    u0 = math.pi / 3
    l = paths.sample_path(SPHERE, "latitude_circle", {"u": u0}, 0.01)
    rates = geodesics.rotation_rate_profile(SPHERE, l)
    # geodesic curvature of a latitude circle is cot(u)/r
    assert np.max(np.abs(np.abs(rates) - math.cos(u0) / math.sin(u0))) < 1e-3


def test_connect_matches_arccos_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        a = (rng.uniform(0.5, 2.6), rng.uniform(0.0, 2 * math.pi))
        b = (rng.uniform(0.5, 2.6), rng.uniform(0.0, 2 * math.pi))
        ang = math.acos(np.clip(np.dot(_sphere_xyz(a), _sphere_xyz(b)), -1, 1))
        if not 0.05 < ang < 2.8:
            continue
        g = geodesics.connect_geodesic(SPHERE, a, b, step=0.01)
        assert abs(g.length - ang) < 5e-7 * max(1.0, ang)
        # endpoint lands on b up to chart period
        dv = (g.result_path.points[-1, 1] - b[1] + math.pi) % (2 * math.pi) - math.pi
        assert abs(g.result_path.points[-1, 0] - b[0]) < 1e-8
        assert abs(dv) < 1e-7


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    r=st.sampled_from([0.5, 1.0, 6.371]),
    u0=st.floats(0.3, math.pi - 0.3),
    v0=st.floats(0.0, 2 * math.pi),
    heading=st.floats(-math.pi, math.pi),
    arc=st.floats(0.05, 2.6),
)
def test_connect_length_matches_great_circle(r, u0, v0, heading, arc):
    # the great-circle arc of the given angle from (u0, v0); the endpoint
    # algebra of the secant solver must reproduce r * arccos(a . b)
    p = _sphere_xyz((u0, v0))
    e_u = np.array([math.cos(u0) * math.cos(v0), math.cos(u0) * math.sin(v0), -math.sin(u0)])
    e_v = np.array([-math.sin(v0), math.cos(v0), 0.0])
    t = math.cos(heading) * e_u + math.sin(heading) * e_v
    ts = np.linspace(0.0, arc, 200)
    arcpts = np.outer(np.cos(ts), p) + np.outer(np.sin(ts), t)
    assume(np.all(np.abs(arcpts[:, 2]) <= math.cos(0.3)))  # 0.3 rad from both poles
    q = arcpts[-1]
    b = (math.acos(q[2]), math.atan2(q[1], q[0]) % (2 * math.pi))
    s = sf.builtin_surface("sphere", {"r": r})
    g = geodesics.connect_geodesic(s, (u0, v0), b)
    want = r * math.acos(np.clip(np.dot(p, _sphere_xyz(b)), -1.0, 1.0))
    assert abs(g.length - want) < 1e-8 * want


@pytest.mark.parametrize("s, a, b, step", [
    (SPHERE, (0.7, 0.2), (1.9, 1.4), 0.01),
    (SPHERE, (1.3, 5.9), (1.1, 0.6), 0.02),
    (HILL, (-0.9, 0.4), (0.8, -0.3), 0.01),
    (ELLIPSOID, (0.6, 0.3), (1.2, 1.0), 0.01),
])
def test_connect_returns_the_converged_shot_exactly(s, a, b, step):
    g = geodesics.connect_geodesic(s, a, b, step=step)
    again = geodesics._shoot_angle(s, a, g.headings[0], g.length, step=step)
    assert np.array_equal(g.result_path.points, again.result_path.points)
    assert np.array_equal(g.headings, again.headings)
    assert np.array_equal(g.velocities, again.velocities)


def test_connect_reports_iterations_and_residual():
    tol, max_iter = 1e-11, 80
    for s, a, b in ((SPHERE, (0.7, 0.2), (1.9, 1.4)), (HILL, (-0.9, 0.4), (0.8, -0.3))):
        g = geodesics.connect_geodesic(s, a, b, tol=tol, max_iter=max_iter)
        assert 0.0 <= g.residual < tol * max(1.0, g.length)
        assert 1 <= g.iterations <= max_iter
    shot = geodesics.shoot_geodesic(SPHERE, (1.0, 0.5), (1.0, 0.0), 1.0)
    assert shot.iterations is None and shot.residual is None


def test_connect_rejects_max_iter_below_one():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            geodesics.connect_geodesic(SPHERE, (0.7, 0.2), (1.9, 1.4), max_iter=bad)
    with pytest.raises(ValueError, match="did not converge"):
        geodesics.connect_geodesic(SPHERE, (0.7, 0.2), (1.9, 1.4), max_iter=1)


def test_connect_cylinder_both_winding_branches():
    a, b = (0.5, 0.3), (1.5, 3.3)
    r = 1.3
    short = geodesics.connect_geodesic(CYL, a, b, step=0.02)
    assert abs(short.length - math.hypot(1.0, r * 3.0)) < 1e-8
    other = geodesics.connect_geodesic(
        CYL, a, b, step=0.02, initial_angle=-math.pi / 2 + 0.25)
    assert abs(other.length - math.hypot(1.0, r * (2 * math.pi - 3.0))) < 1e-6


def test_connect_sphere_long_way_branch():
    a, b = (math.pi / 2, 0.3), (math.pi / 2, 1.3)
    short = geodesics.connect_geodesic(SPHERE, a, b, step=0.01)
    assert abs(short.length - 1.0) < 1e-8
    back = geodesics.connect_geodesic(SPHERE, a, b, step=0.01, initial_angle=-math.pi / 2)
    assert abs(back.length - (2 * math.pi - 1.0)) < 1e-7


def test_connect_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        geodesics.connect_geodesic(SPHERE, (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        geodesics.connect_geodesic(SPHERE, (1.2, 0.5), (math.pi - 1.2, 0.5 + math.pi))
    with pytest.raises(ValueError, match="outside the chart domain"):
        geodesics.connect_geodesic(SPHERE, (-0.5, 1.0), (1.0, 1.0))


def test_connect_on_builtin_sphere_rejects_near_antipodal_endpoints():
    a = (1.0, 0.5)
    for gap in (0.0, 2e-4, 6e-4):
        b = (math.pi - a[0] + gap, a[1] + math.pi - gap)
        with pytest.raises(ValueError, match="antipodal"):
            geodesics.connect_geodesic(SPHERE, a, b)


def test_connect_first_shot_leaving_on_step_one_is_a_chart_exit():
    # the straight-line guess runs off the hill's chart edge at u = 6
    with pytest.raises(geodesics.ChartExitError, match="first step") as info:
        geodesics.connect_geodesic(HILL, (6.0 - 1e-3, 0.0), (0.0, 0.0), initial_angle=0.0)
    assert info.value.traversed == 0.0
    assert tuple(info.value.point) == (6.0 - 1e-3, 0.0)


@pytest.mark.parametrize("s", [
    SPHERE, HILL, ELLIPSOID, sf.builtin_surface("torus", {"R": 2.0, "r": 0.7}),
], ids=["sphere", "hill", "ellipsoid", "torus"])
def test_shoot_batch_lanes_match_scalar_integration(s):
    # the lane kernel and the scalar shot share one RK4 step
    rng = np.random.default_rng(5)
    d = s.domain
    starts = np.column_stack([
        rng.uniform(d.u_min + 0.2 * (d.u_max - d.u_min), d.u_max - 0.2 * (d.u_max - d.u_min), 12),
        rng.uniform(d.v_min + 0.2 * (d.v_max - d.v_min), d.v_max - 0.2 * (d.v_max - d.v_min), 12),
    ])
    psis = rng.uniform(-math.pi, math.pi, 12)
    L = 0.3
    ends, angles = geodesics.shoot_batch(s, starts, psis, L)
    for k in range(len(starts)):
        us, vs, ps, exited = geodesics._integrate(s, starts[k, 0], starts[k, 1], psis[k], L / 8, 8)
        assert not exited
        assert abs(ends[k, 0] - us[-1]) <= 1e-14
        assert abs(ends[k, 1] - vs[-1]) <= 1e-14
        assert abs(angles[k] - ps[-1]) <= 1e-14


def test_shoot_batch_exit_names_the_lane_that_left():
    starts = np.array([[1.0, 0.5], [0.01, 0.5]])
    with pytest.raises(geodesics.ChartExitError) as info:
        geodesics.shoot_batch(SPHERE, starts, np.array([0.0, math.pi]), 0.1)
    assert info.value.point[0] < 0.01


def test_shot_truncates_on_domain_exit():
    g = geodesics.shoot_geodesic(HILL, (2.5, 0.0), (1.0, 0.0), 5.0)
    assert g.exited
    assert g.length < 5.0
    assert len(g.result_path.points) == len(g.cumulative)


def test_shoot_rejects_bad_inputs():
    with pytest.raises(ValueError):
        geodesics.shoot_geodesic(SPHERE, (1.0, 0.0), (0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        geodesics.shoot_geodesic(SPHERE, (1.0, 0.0), (1.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        geodesics.shoot_geodesic(SPHERE, (-0.5, 0.0), (1.0, 0.0), 1.0)


def test_geodesic_polygon_closes_and_sides_are_geodesic():
    verts = [[1.0, 0.2], [1.6, 0.9], [0.9, 1.4]]
    l, shots, idx = geodesics.geodesic_polygon(SPHERE, verts, step=0.02)
    assert isinstance(l, paths.Loop)
    assert np.allclose(l.points[0], l.points[-1])
    assert len(shots) == 3 and idx[0] == 0
    assert np.allclose(l.points[idx[1]], verts[1], atol=1e-9)
    rates = geodesics.rotation_rate_profile(SPHERE, l)
    # rate spikes at the three corners only; elsewhere geodesic-flat
    big = np.abs(rates) > 1e-3
    assert big.sum() <= 9
    with pytest.raises(ValueError):
        geodesics.geodesic_polygon(SPHERE, verts[:2])


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------


def test_relax_plane_detour_to_straight_line():
    way = [[0.0, 0.0], [0.5, 0.4], [1.0, 0.0]]
    p = paths.path_from_waypoints(PLANE, way, 0.08)
    rep = geodesics.relax_to_geodesic(PLANE, p, tol=1e-8)
    assert rep.converged
    assert abs(rep.length_history[-1] - 1.0) < 1e-4
    assert np.max(np.abs(rep.final_path.points[:, 1])) < 1e-4
    lens = np.asarray(rep.length_history)
    assert np.all(np.diff(lens) <= 1e-12)


def test_relax_reports_align_with_iterations():
    p = paths.path_from_waypoints(HILL, [[-0.9, 0.45], [0.9, 0.45]], 0.15)
    rep = geodesics.relax_to_geodesic(HILL, p, tol=1e-6)
    assert rep.converged
    assert rep.final_max_rotation_rate < 1e-6
    assert len(rep.length_history) == rep.iterations + 1
    assert len(rep.rotation_history) == rep.iterations + 1
    assert rep.length_history[-1] <= rep.length_history[0]


def test_relax_requires_interior_samples():
    with pytest.raises(ValueError):
        geodesics.relax_to_geodesic(PLANE, paths.Path([[0.0, 0.0], [1.0, 0.0]], 1.0))


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------


def test_second_variation_plane_is_positive_and_quadratic():
    g = geodesics.shoot_geodesic(PLANE, (0.0, 0.0), (1.0, 0.0), 2.0, step=0.01)
    d1 = geodesics.second_variation_probe(PLANE, g, 0.02)
    d2 = geodesics.second_variation_probe(PLANE, g, 0.01)
    assert min(d1) > 0 and min(d2) > 0
    ratio = (d1[0] + d1[1]) / (d2[0] + d2[1])
    assert 3.8 < ratio < 4.2


def test_second_variation_sphere_quarter_vs_three_quarter():
    quarter = geodesics.shoot_geodesic(
        SPHERE, (math.pi / 2, 0.0), (0.0, 1.0), math.pi / 2, step=0.01)
    d = geodesics.second_variation_probe(SPHERE, quarter, 0.02)
    assert min(d) > 0
    long_arc = geodesics.shoot_geodesic(
        SPHERE, (math.pi / 2, 0.0), (0.0, 1.0), 1.5 * math.pi, step=0.01)
    d = geodesics.second_variation_probe(SPHERE, long_arc, 0.02)
    assert min(d) < 0  # past the conjugate point a shortcut exists
    with pytest.raises(ValueError):
        geodesics.second_variation_probe(SPHERE, quarter, -0.1)
