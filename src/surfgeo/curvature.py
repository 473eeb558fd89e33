"""Gaussian curvature as a holonomy density, and its cross-checks.

Curvature at a point is estimated from shrinking geodesic quadrilaterals as
holonomy over enclosed area, Richardson-extrapolated in the squared scale.
Region-level consistency (boundary holonomy vs integrated curvature), polygon
angle excess, and the extrinsic 4ab quadratic-fit definition give three
independent routes to the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _chartgeom, geodesics, paths, surface, transport
from .paths import RegionBoundary
from .surface import ChartPoint, Surface


class CurvatureSample(NamedTuple):
    scale: float
    holonomy: float
    area: float
    ratio: float


@dataclass(frozen=True)
class CurvatureEstimate:
    point: ChartPoint
    ratios: list
    extrapolated: float
    error_estimate: float


@dataclass(frozen=True)
class QuadraticFit:
    a: float
    b: float
    residual: float  # RMS of the third-order remainder over the stencil

    @property
    def curvature(self) -> float:
        return 4.0 * self.a * self.b


class GaussBonnetResult(NamedTuple):
    holonomy: float
    integral: float
    residual: float


class PolygonExcess(NamedTuple):
    exterior_angle_sum: float
    holonomy: float
    exterior_angles: tuple
    loop: object


class EgregiumRecord(NamedTuple):
    intrinsic: float
    extrinsic: float
    relative_gap: float


def _margin_distance(s: Surface, p) -> float:
    """Metric distance from p to the nearest non-periodic chart edge."""
    dom = s.domain
    u, v = float(p[0]), float(p[1])
    E, F, G = (float(t) for t in s.jet(u, v, math)[:3])
    dists = [math.inf]
    if not dom.periodic_u:
        rE = math.sqrt(E)
        dists.append((u - (dom.u_min + dom.margin_u)) * rE)
        dists.append(((dom.u_max - dom.margin_u) - u) * rE)
    if not dom.periodic_v:
        rG = math.sqrt(G)
        dists.append((v - (dom.v_min + dom.margin_v)) * rG)
        dists.append(((dom.v_max - dom.margin_v) - v) * rG)
    return min(dists)


def default_scales(s: Surface, p, count: int = 3, aspect: float = 1.0) -> list[float]:
    """Shrinking quadrilateral scales at p, capped by the chart margin."""
    base = 0.3 * s.feature_scale
    cap = 0.4 * _margin_distance(s, p) / max(1.0, aspect)
    base = min(base, cap)
    if not base > 1e-5 * s.feature_scale:
        raise ValueError("point too close to the chart margin for a loop family")
    return [base * 0.5 ** k for k in range(count)]


def _quad_loop(s: Surface, p, scale: float, aspect: float, step):
    su, sv = scale, scale * aspect
    u0, v0 = float(p[0]), float(p[1])
    corners = []
    for psi, dist in ((0.0, su), (0.5 * math.pi, sv), (math.pi, su), (-0.5 * math.pi, sv)):
        us, vs, _, exited = geodesics._integrate(s, u0, v0, psi, dist / 8.0, 8)
        if exited:
            raise geodesics.ChartExitError(
                "curvature quadrilateral leaves the chart domain", p
            )
        corners.append([us[-1], vs[-1]])
    loop, _, _ = geodesics.geodesic_polygon(s, corners, step=step)
    return loop


def curvature_at(
    s: Surface,
    p,
    scales=None,
    aspect: float = 1.0,
    transport_tol: float = 1e-10,
    side_steps: int = 16,
) -> CurvatureEstimate:
    """Holonomy-over-area curvature estimate from shrinking quadrilaterals.

    ``scales`` are the quadrilateral half-diagonals (largest first); the
    ratio sequence is Richardson-extrapolated assuming an even-order error
    expansion in the scale.
    """
    pt = ChartPoint(float(p[0]), float(p[1]))
    if not s.domain.strictly_inside(pt.u, pt.v):
        raise ValueError("curvature point must be interior to the chart domain")
    if scales is None:
        scales = default_scales(s, pt, aspect=aspect)
    scales = sorted((float(x) for x in scales), reverse=True)
    if len(scales) < 2:
        raise ValueError("need at least two scales to extrapolate")
    rows = []
    for scale in scales:
        step = scale * max(1.0, aspect) / side_steps
        loop = _quad_loop(s, pt, scale, aspect, step)
        hol = transport.loop_holonomy(s, loop, tol=transport_tol)
        area = surface.area_of_region(s, loop, rel_tol=1e-9)
        rows.append(CurvatureSample(scale, hol, area, hol / area))
    xs = [r.scale ** 2 for r in rows]
    ys = [r.ratio for r in rows]
    m = len(ys)
    R = [[0.0] * m for _ in range(m)]
    for i in range(m):
        R[i][0] = ys[i]
    for j in range(1, m):
        for i in range(j, m):
            R[i][j] = (xs[i - j] * R[i][j - 1] - xs[i] * R[i - 1][j - 1]) / (
                xs[i - j] - xs[i]
            )
    extrapolated = R[m - 1][m - 1]
    prev_diag = R[m - 2][m - 2]
    err = max(abs(extrapolated - prev_diag), abs(extrapolated - ys[-1]) / 10.0)
    return CurvatureEstimate(
        point=pt, ratios=rows, extrapolated=float(extrapolated), error_estimate=float(err)
    )


def gauss_bonnet_check(
    s: Surface,
    r: RegionBoundary,
    grid: int = 12,
    scales=None,
    transport_tol: float = 1e-9,
) -> GaussBonnetResult:
    """Boundary holonomy against the curvature integral over the region.

    The integral is the midpoint sum of K * sqrt(det g) over a grid of cells
    (rectangle regions) or a refined triangulation (general polygons); its
    discretization error is second order, so the residual shrinks by about
    4x per grid doubling.
    """
    if grid < 4:
        raise ValueError("grid must be at least 4 per axis")
    if not isinstance(r, RegionBoundary):
        r = paths.region_from_loop(r)
    hol = transport.loop_holonomy(s, r.loop, tol=transport_tol)
    poly = r.loop.points
    rect = surface._is_axis_rectangle(poly)
    centers = []
    weights = []
    if rect is not None:
        u0, u1, v0, v1 = rect
        du = (u1 - u0) / grid
        dv = (v1 - v0) / grid
        uu = u0 + du * (np.arange(grid) + 0.5)
        vv = v0 + dv * (np.arange(grid) + 0.5)
        for cu in uu:
            for cv in vv:
                centers.append((cu, cv))
                weights.append(du * dv)
    else:
        tris = _chartgeom.triangulate(poly)
        while len(tris) < grid * grid:
            tris = _chartgeom.subdivide_triangles(tris)
        for t in tris:
            centers.append(t.mean(axis=0))
            e1 = t[1] - t[0]
            e2 = t[2] - t[0]
            weights.append(abs(e1[0] * e2[1] - e1[1] * e2[0]) / 2.0)
    total = 0.0
    for (cu, cv), w in zip(centers, weights):
        if scales is not None:
            use = scales
        else:
            # half the standalone default: keeps each point's bias well below
            # the midpoint-rule discretization error at any reasonable grid
            use = [0.5 * x for x in default_scales(s, (cu, cv), count=2)]
        est = curvature_at(s, (cu, cv), scales=use, side_steps=10)
        E, F, G = (float(t) for t in s.jet(float(cu), float(cv), math)[:3])
        total += est.extrapolated * math.sqrt(E * G - F * F) * w
    return GaussBonnetResult(hol, total, abs(hol - total))


def polygon_angle_excess(s: Surface, vertices, step=None) -> PolygonExcess:
    """Exterior angles and holonomy of a geodesic polygon.

    For a positively oriented simple polygon the exterior angle sum equals
    2*pi minus the holonomy; on the plane it is exactly 2*pi.
    """
    loop, shots, _ = geodesics.geodesic_polygon(s, vertices, step=step)
    if not _chartgeom.polyline_is_simple(loop.points, closed=True):
        raise ValueError("polygon sides cross; the angle excess is undefined")
    k = len(shots)
    exts = []
    for i in range(k):
        arriving = shots[(i - 1) % k]
        leaving = shots[i]
        theta_in = surface.frame_angle(
            s, arriving.result_path.points[-1], arriving.velocities[-1]
        )
        theta_out = surface.frame_angle(
            s, leaving.result_path.points[0], leaving.velocities[0]
        )
        ext = (theta_out - theta_in + math.pi) % (2.0 * math.pi) - math.pi
        exts.append(float(ext))
    hol = transport.loop_holonomy(s, loop)
    return PolygonExcess(float(sum(exts)), hol, tuple(exts), loop)


def quadratic_fit_curvature(s: Surface, p, stencil_radius=None) -> QuadraticFit:
    """Extrinsic curvature from the tangent-frame quadratic z = ax^2+cxy+by^2.

    The embedded surface is expressed over its tangent plane at p on a 5x5
    stencil; diagonalizing the fitted form gives (a, b) and the curvature
    4ab.
    """
    if s.embedding is None or s.embedding_frame is None:
        raise ValueError(f"surface {s.name!r} has no embedding")
    radius = float(stencil_radius) if stencil_radius is not None else 0.01 * s.feature_scale
    if not radius > 0:
        raise ValueError("stencil_radius must be positive")
    u0, v0 = float(p[0]), float(p[1])
    E, F, G = (float(t) for t in s.jet(u0, v0, math)[:3])
    g = np.linspace(-1.0, 1.0, 5)
    uu = u0 + (radius / math.sqrt(E)) * g
    vv = v0 + (radius / math.sqrt(G)) * g
    U, V = np.meshgrid(uu, vv, indexing="ij")
    if not np.all(s.domain.contains(U, V)):
        raise ValueError("fit stencil leaves the chart domain")
    pts = np.asarray(s.embedding(U, V), dtype=float).reshape(-1, 3)
    x0, xu, xv = (np.asarray(t, dtype=float) for t in s.embedding_frame(np.asarray(u0), np.asarray(v0)))
    t1 = xu / np.linalg.norm(xu)
    nrm = np.cross(xu, xv)
    nrm = nrm / np.linalg.norm(nrm)
    t2 = np.cross(nrm, t1)
    rel = pts - x0
    xp = rel @ t1
    yp = rel @ t2
    zp = rel @ nrm
    design = np.column_stack([xp * xp, xp * yp, yp * yp])
    coef, _, rank, _ = np.linalg.lstsq(design, zp, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient quadratic fit (degenerate stencil)")
    rms = float(np.sqrt(np.mean((zp - design @ coef) ** 2)))
    M = np.array([[coef[0], 0.5 * coef[1]], [0.5 * coef[1], coef[2]]])
    ev = np.linalg.eigvalsh(M)
    a, b = sorted((float(ev[0]), float(ev[1])), key=abs, reverse=True)
    return QuadraticFit(a=a, b=b, residual=rms)


def egregium_check(s: Surface, points, scales=None, stencil_radius=None) -> list[EgregiumRecord]:
    """Intrinsic (holonomy) vs extrinsic (4ab) curvature at each point."""
    out = []
    for p in points:
        intrinsic = curvature_at(s, p, scales=scales).extrapolated
        extrinsic = quadratic_fit_curvature(s, p, stencil_radius=stencil_radius).curvature
        gap = abs(intrinsic - extrinsic) / max(1.0, abs(extrinsic))
        out.append(EgregiumRecord(intrinsic, extrinsic, gap))
    return out
