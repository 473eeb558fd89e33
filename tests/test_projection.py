"""Flat-map scale factors, distortion sampling, and the holonomy obstruction.

Mercator's east-west scale is sec(latitude) and its north-south scale matches
(conformal); equirectangular keeps meridians true but stretches parallels.
Both closed forms pin down local_scales, and pairwise sampling has to expose
the distortion spread no honest flat map can avoid.
"""

import math

import numpy as np
import pytest

from surfgeo import paths, projection, surface as sf

SPHERE = sf.builtin_surface("sphere", {"r": 1.0})
BIG = sf.builtin_surface("sphere", {"r": 6.371})


def _colat(lat_deg):
    return math.pi / 2 - math.radians(lat_deg)


@pytest.mark.parametrize("lat", [0.0, 30.0, 45.0, 60.0])
def test_mercator_scales_are_sec_latitude(lat):
    m = projection.builtin_projection("mercator", SPHERE)
    ew, ns = projection.local_scales(m, SPHERE, (_colat(lat), 1.0))
    want = 1.0 / math.cos(math.radians(lat))
    assert abs(ew - want) < 1e-5 * want
    assert abs(ns - want) < 1e-5 * want  # conformal: both directions agree


@pytest.mark.parametrize("lat", [0.0, 40.0, 70.0])
def test_equirectangular_meridians_true_parallels_stretched(lat):
    m = projection.builtin_projection("equirectangular", SPHERE)
    ew, ns = projection.local_scales(m, SPHERE, (_colat(lat), 0.5))
    assert abs(ns - 1.0) < 1e-6
    assert abs(ew - 1.0 / math.cos(math.radians(lat))) < 1e-5


def test_nominal_scale_divides_out():
    m1 = projection.builtin_projection("mercator", BIG)
    m2 = projection.builtin_projection("mercator", BIG, nominal_scale=1e-3)
    p = (_colat(35.0), 2.0)
    a = projection.local_scales(m1, BIG, p)
    b = projection.local_scales(m2, BIG, p)
    assert np.allclose(a, b, rtol=1e-9)


def test_mercator_pole_cutoff():
    m = projection.builtin_projection("mercator", SPHERE)
    with pytest.raises(ValueError):
        m.forward(0.1, 0.0)
    with pytest.raises(ValueError):
        m.forward(math.pi - 0.1, 0.0)
    m.forward(0.25, 0.0)  # just inside the cutoff band


def test_projection_requires_sphere():
    cyl = sf.builtin_surface("cylinder", {"r": 1.0})
    with pytest.raises(ValueError):
        projection.builtin_projection("mercator", cyl)
    with pytest.raises(ValueError):
        projection.builtin_projection("sinusoidal", SPHERE)
    with pytest.raises(ValueError):
        projection.FlatMap("m", lambda u, v: (u, v), nominal_scale=0.0)


def test_projection_needs_the_builtin_sphere_not_its_name():
    # a user surface named "sphere" carries no radius for the map scale
    lookalike = sf.surface_from_metric(
        "sphere", SPHERE.domain, lambda u, v: (1.0, 0.0, np.sin(u) ** 2)
    )
    for name in ("mercator", "equirectangular"):
        with pytest.raises(ValueError, match="builtin sphere"):
            projection.builtin_projection(name, lookalike)
    # the builtin sphere's radius sets the map scale
    assert projection.builtin_projection("equirectangular", BIG).forward(1.0, 2.0)[0] == 6.371 * 2.0


def test_distortion_report_shape_and_determinism():
    m = projection.builtin_projection("mercator", SPHERE)
    r1 = projection.distortion_report(m, SPHERE, n_pairs=60, seed=4)
    r2 = projection.distortion_report(m, SPHERE, n_pairs=60, seed=4)
    assert len(r1.samples) == 60
    assert r1.min_ratio == r2.min_ratio and r1.max_ratio == r2.max_ratio
    rs = [x.ratio for x in r1.samples]
    assert abs(min(rs) - r1.min_ratio) < 1e-15
    assert abs(max(rs) - r1.max_ratio) < 1e-15
    for x in r1.samples:
        assert abs(x.ratio - x.map_distance / x.true_distance) < 1e-12
    for sk in r1.skipped:
        assert sk.reason


def test_distortion_spread_exceeds_flatness_bound():
    m = projection.builtin_projection("mercator", SPHERE)
    rep = projection.distortion_report(m, SPHERE, n_pairs=200, seed=4)
    assert rep.spread > 1.1  # no flat map of a sphere patch can stay near 1
    # every mercator ratio inflates: the map never shortens a great circle
    assert rep.min_ratio > 0.99


def test_distortion_spread_is_scale_invariant():
    a = projection.distortion_report(
        projection.builtin_projection("equirectangular", BIG), BIG, 80, seed=9)
    b = projection.distortion_report(
        projection.builtin_projection("equirectangular", BIG, nominal_scale=2.5e-2),
        BIG, 80, seed=9)
    assert abs(a.spread - b.spread) < 1e-12


def test_distortion_rejects_tiny_batches():
    m = projection.builtin_projection("mercator", SPHERE)
    with pytest.raises(ValueError):
        projection.distortion_report(m, SPHERE, n_pairs=5, seed=1)


def test_obstruction_certifies_sphere_but_not_flat_surfaces():
    octant = paths.chart_rectangle(SPHERE, 1e-3, 0.0, math.pi / 2, math.pi / 2, 0.02)
    hol, verdict = projection.holonomy_obstruction(SPHERE, octant)
    assert verdict.obstructed
    assert abs(hol - math.pi / 2) < 1e-5
    assert hol == verdict.holonomy
    assert "no distance-preserving flat map" in verdict.explanation

    plane = sf.builtin_surface("plane", {})
    sq = paths.chart_rectangle(plane, 0.0, 0.0, 1.0, 1.0, 0.05)
    hol, verdict = projection.holonomy_obstruction(plane, sq)
    assert not verdict.obstructed and abs(hol) < verdict.threshold

    cyl = sf.builtin_surface("cylinder", {"r": 0.7})
    band = paths.chart_rectangle(cyl, 0.2, 0.0, 1.2, 2.0, 0.05)
    hol, verdict = projection.holonomy_obstruction(cyl, band)
    assert not verdict.obstructed


def test_obstruction_threshold_tracks_tol():
    octant = paths.chart_rectangle(SPHERE, 1e-3, 0.0, math.pi / 2, math.pi / 2, 0.02)
    _, loose = projection.holonomy_obstruction(SPHERE, octant, tol=1e-4)
    assert loose.threshold >= 3e-4
    assert loose.obstructed  # pi/2 dwarfs even the loose bound
