"""Flat maps of the sphere and the two proofs that none is distance-true.

A FlatMap sends chart points to planar coordinates. distortion_report
measures pairwise map-to-geodesic distance ratios; any flat map shows a
spread bounded away from 1. holonomy_obstruction gives the sharper local
argument: a region with nonzero holonomy cannot lie in the domain of any
distance-preserving flat map, since plane holonomy is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import geodesics, paths, transport
from .paths import RegionBoundary
from .surface import Surface


@dataclass(frozen=True)
class FlatMap:
    name: str
    forward: Callable  # chart (u, v) -> (X, Y)
    nominal_scale: float = 1.0

    def __post_init__(self):
        if not self.nominal_scale > 0:
            raise ValueError("nominal_scale must be positive")


class DistortionSample(NamedTuple):
    point_a: tuple
    point_b: tuple
    true_distance: float
    map_distance: float
    ratio: float


class SkippedPair(NamedTuple):
    point_a: tuple
    point_b: tuple
    reason: str


@dataclass(frozen=True)
class DistortionReport:
    samples: list
    min_ratio: float
    max_ratio: float
    skipped: list

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio


class ObstructionVerdict(NamedTuple):
    obstructed: bool
    holonomy: float
    threshold: float
    explanation: str


MERCATOR_POLE_CUTOFF = 0.2  # colatitude kept clear of both poles


def _require_sphere(s: Surface) -> float:
    if s.sphere_radius is None:
        raise ValueError(
            f"flat-map projections are defined for the builtin sphere, not {s.name!r}"
        )
    return s.sphere_radius


def builtin_projection(name: str, s: Surface, nominal_scale: float = 1.0) -> FlatMap:
    """Standard sphere projections; u is colatitude, v longitude.

    mercator: X = r v, Y = -r ln tan(u/2), undefined within
    MERCATOR_POLE_CUTOFF of either pole. equirectangular: X = r v,
    Y = r (pi/2 - u), distance-true along meridians.
    """
    r = _require_sphere(s)
    k = nominal_scale * r  # map coordinates come out at the nominal scale

    if name == "mercator":

        def forward(u, v):
            u = float(u)
            if not MERCATOR_POLE_CUTOFF <= u <= math.pi - MERCATOR_POLE_CUTOFF:
                raise ValueError(
                    f"mercator is undefined within {MERCATOR_POLE_CUTOFF} rad of a pole"
                )
            return k * float(v), -k * math.log(math.tan(0.5 * u))

        return FlatMap("mercator", forward, nominal_scale)

    if name == "equirectangular":

        def forward(u, v):
            return k * float(v), k * (0.5 * math.pi - float(u))

        return FlatMap("equirectangular", forward, nominal_scale)

    raise ValueError(f"unknown projection {name!r}; known: mercator, equirectangular")


def local_scales(m: FlatMap, s: Surface, p, h: float = 1e-6) -> tuple[float, float]:
    """(east-west, north-south) map scale at p against small true segments."""
    u, v = float(p[0]), float(p[1])
    E, _, G = (float(t) for t in s.jet(u, v, math)[:3])
    x0, y0 = m.forward(u, v)
    xe, ye = m.forward(u, v + h)
    xn, yn = m.forward(u - h, v)  # decreasing colatitude heads north
    ew = math.hypot(xe - x0, ye - y0) / (math.sqrt(G) * h)
    ns = math.hypot(xn - x0, yn - y0) / (math.sqrt(E) * h)
    return ew / m.nominal_scale, ns / m.nominal_scale


def _sample_band(s: Surface, m: FlatMap, rng) -> tuple[float, float]:
    lo = MERCATOR_POLE_CUTOFF if m.name == "mercator" else s.domain.margin_u
    u = rng.uniform(lo, math.pi - lo)
    v = rng.uniform(0.0, 2.0 * math.pi)
    return u, v


def distortion_report(m: FlatMap, s: Surface, n_pairs: int, seed: int) -> DistortionReport:
    """Map-vs-geodesic distance ratios over seeded random point pairs.

    The second point of each pair is re-expressed in the longitude sheet
    nearest the first, so the straight-line map distance and the geodesic
    refer to the same image of the pair. Pairs the geodesic solver cannot
    connect are skipped and recorded.
    """
    if n_pairs < 10:
        raise ValueError("n_pairs must be at least 10")
    r = _require_sphere(s)
    rng = np.random.default_rng(seed)
    samples = []
    skipped = []
    attempts = 0
    while len(samples) + len(skipped) < n_pairs:
        attempts += 1
        if attempts > 50 * n_pairs:
            raise RuntimeError("pair sampling failed to find admissible pairs")
        ua, va = _sample_band(s, m, rng)
        ub, vb = _sample_band(s, m, rng)
        vb = va + ((vb - va + math.pi) % (2.0 * math.pi) - math.pi)
        # keep pairs well-posed for the geodesic solver: separated, not
        # near-antipodal
        ca = math.cos(ua) * math.cos(ub) + math.sin(ua) * math.sin(ub) * math.cos(vb - va)
        angle = math.acos(max(-1.0, min(1.0, ca)))
        if angle * r < 0.05 * r or angle > 2.6:
            continue
        pa = (ua, va)
        pb = (ub, vb)
        try:
            shot = geodesics.connect_geodesic(s, pa, pb)
            true_d = shot.length
            xa, ya = m.forward(*pa)
            xb, yb = m.forward(*pb)
        except (ValueError, RuntimeError) as exc:
            skipped.append(SkippedPair(pa, pb, str(exc)))
            continue
        map_d = math.hypot(xb - xa, yb - ya)
        ratio = map_d / (m.nominal_scale * true_d)
        samples.append(DistortionSample(pa, pb, true_d, map_d, ratio))
    if not samples:
        raise RuntimeError("all sampled pairs were skipped")
    ratios = [x.ratio for x in samples]
    return DistortionReport(samples, min(ratios), max(ratios), skipped)


def holonomy_obstruction(s: Surface, r, tol: float = 1e-9):
    """Loop holonomy of a region plus a verdict on flat-map impossibility.

    A distance-preserving flat map would force every loop's holonomy to
    match its plane image's, which is zero; holonomy beyond three times
    the transport error estimate therefore certifies that no neighborhood
    containing the region admits such a map.
    """
    if not isinstance(r, RegionBoundary):
        r = paths.region_from_loop(r)
    res = transport.holonomy_transport(s, r.loop, tol=tol)
    hol = res.total_rotation
    threshold = 3.0 * max(res.refine_gap, tol)
    obstructed = abs(hol) > threshold
    if obstructed:
        explanation = (
            f"holonomy {hol:.9g} exceeds the error bound {threshold:.3g}; "
            "no distance-preserving flat map exists on any neighborhood "
            "containing this region"
        )
    else:
        explanation = (
            f"holonomy {hol:.9g} is within the error bound {threshold:.3g}; "
            "no obstruction from this region"
        )
    return hol, ObstructionVerdict(obstructed, hol, threshold, explanation)
