"""Flat chart-plane geometry helpers: polygons, triangulation, quadrature grids.

Everything here works on plain (N, 2) float arrays of chart coordinates and
knows nothing about metrics.  Shared by the surface and path modules.  The
simplicity test finds meeting segments through a uniform grid of cells
rather than by comparing every pair, so region checks stay near-linear in
the number of boundary samples.
"""

from __future__ import annotations

import numpy as np


def shoelace_area(points: np.ndarray) -> float:
    """Signed area of a closed polygon (last vertex may repeat the first)."""
    p = np.asarray(points, dtype=float)
    if len(p) > 1 and np.allclose(p[0], p[-1]):
        p = p[:-1]
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorized ray-casting containment test.

    Points exactly on an edge may land on either side; callers that care keep
    their query points away from the boundary.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    if np.allclose(poly[0], poly[-1]):
        poly = poly[:-1]
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x0, y0 = poly[:, 0][None, :], poly[:, 1][None, :]
    x1, y1 = np.roll(poly[:, 0], -1)[None, :], np.roll(poly[:, 1], -1)[None, :]
    straddles = (y0 <= y) != (y1 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    hits = straddles & (x < x_cross)
    return np.sum(hits, axis=1) % 2 == 1


def _cross2(a, b) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _segments_meet(a0, a1, b0, b1) -> np.ndarray:
    """Closed-segment contact test for two batches of segments (broadcasting).

    True where the segments share at least one point: proper crossings,
    an endpoint touching the other segment, and collinear overlaps.  The
    orientation signs admit zero; the bounding-box overlap then settles
    the collinear case.
    """
    d1 = _cross2(a1 - a0, b0 - a0)
    d2 = _cross2(a1 - a0, b1 - a0)
    d3 = _cross2(b1 - b0, a0 - b0)
    d4 = _cross2(b1 - b0, a1 - b0)
    boxes = (np.minimum(a0, a1) <= np.maximum(b0, b1)) & (np.minimum(b0, b1) <= np.maximum(a0, a1))
    return (d1 * d2 <= 0) & (d3 * d4 <= 0) & boxes.all(axis=-1)


def polyline_is_simple(points: np.ndarray, closed: bool = False) -> bool:
    """True when no two non-adjacent segments of the polyline meet.

    Consecutive duplicate samples are dropped first.  Two segments meet
    when they share any point (see ``_segments_meet``), so a loop that
    touches itself at a sample is not simple.  Adjacent segments (index
    difference 1, and the first and last of a closed polyline) share their
    joint and are not compared.

    Candidate pairs come from uniform-grid bucketing (Franklin et al.,
    Auto-Carto 9, 1989): the cell side is the largest segment extent, so
    each segment's bounding box covers at most 2x2 cells, and two segments
    that meet share a cell.  Entries are sorted by cell; entries ``d``
    apart in that order are tested together for d = 1, 2, ... until no
    two entries ``d`` apart share a cell.  The cost is O(m log m) for m
    segments of similar length, and degrades to the plain O(m^2) pair
    count, in O(m) memory per step, when most segments crowd one cell.
    """
    p = np.asarray(points, dtype=float)
    if closed and np.allclose(p[0], p[-1]):
        p = p[:-1]
    repeat = np.all(p == np.roll(p, 1, axis=0), axis=1)
    if not closed:
        repeat[0] = False
    p = p[~repeat]
    n = len(p)
    if n < 3:
        return True
    nxt = np.arange(1, n + 1) % n if closed else np.arange(1, n)
    a = p[: len(nxt)]
    b = p[nxt]
    m = len(a)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    h = float(np.max(hi - lo))
    origin = lo.min(axis=0)
    c0 = np.floor((lo - origin) / h).astype(np.int64)
    c1 = np.floor((hi - origin) / h).astype(np.int64)
    # one entry per (segment, covered cell); rounding may rarely add a column
    span = c1 - c0 + 1
    count = span[:, 0] * span[:, 1]
    seg = np.repeat(np.arange(m), count)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    cx = c0[seg, 0] + k % span[seg, 0]
    cy = c0[seg, 1] + k // span[seg, 0]
    order = np.lexsort((cy, cx))
    cx, cy, seg = cx[order], cy[order], seg[order]
    for d in range(1, len(seg)):
        same = (cx[d:] == cx[:-d]) & (cy[d:] == cy[:-d])
        if not same.any():
            break
        i, j = seg[:-d][same], seg[d:][same]
        gap = np.abs(i - j)
        far = gap > 1
        if closed:
            far &= gap < m - 1
        i, j = i[far], j[far]
        if np.any(_segments_meet(a[i], b[i], a[j], b[j])):
            return False
    return True


def fan_triangulate(polygon: np.ndarray) -> np.ndarray | None:
    """Triangulate a polygon by fanning from its centroid.

    Returns (T, 3, 2) triangle vertices, or None when the polygon is not
    star-shaped around the centroid (some fan triangle is inverted).
    """
    poly = np.asarray(polygon, dtype=float)
    if np.allclose(poly[0], poly[-1]):
        poly = poly[:-1]
    if shoelace_area(poly) < 0:
        poly = poly[::-1]
    c = poly.mean(axis=0)
    a = poly
    b = np.roll(poly, -1, axis=0)
    cross = (a[:, 0] - c[0]) * (b[:, 1] - c[1]) - (a[:, 1] - c[1]) * (b[:, 0] - c[0])
    if np.any(cross <= 0):
        return None
    tris = np.empty((len(poly), 3, 2))
    tris[:, 0] = c
    tris[:, 1] = a
    tris[:, 2] = b
    return tris


def ear_clip(polygon: np.ndarray) -> np.ndarray:
    """Ear-clipping triangulation of a simple polygon, (T, 3, 2)."""
    poly = np.asarray(polygon, dtype=float)
    if np.allclose(poly[0], poly[-1]):
        poly = poly[:-1]
    if shoelace_area(poly) < 0:
        poly = poly[::-1]
    idx = list(range(len(poly)))
    tris = []
    guard = 0
    while len(idx) > 3 and guard < 10 * len(poly):
        guard += 1
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = poly[i0], poly[i1], poly[i2]
            if _cross2(b - a, c - a) <= 0:
                continue  # reflex corner, not an ear
            others = [j for j in idx if j not in (i0, i1, i2)]
            if others and np.any(points_in_polygon(poly[others], np.array([a, b, c, a]))):
                continue
            tris.append((a, b, c))
            del idx[k]
            clipped = True
            break
        if not clipped:
            break
    tris.append(tuple(poly[j] for j in idx[:3]))
    return np.array(tris)


def triangulate(polygon: np.ndarray) -> np.ndarray:
    tris = fan_triangulate(polygon)
    if tris is None:
        tris = ear_clip(polygon)
    return tris


def subdivide_triangles(tris: np.ndarray) -> np.ndarray:
    """Split each triangle into four congruent children (midpoint rule)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    out = np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ]
    )
    return out


# Degree-5 symmetric triangle rule (7 points), barycentric coordinates.
_TRI_W = np.array(
    [0.225]
    + [0.1323941527885062] * 3
    + [0.1259391805448271] * 3
)
_a1 = 0.0597158717897698
_b1 = 0.4701420641051151
_a2 = 0.7974269853530873
_b2 = 0.1012865073234563
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_a1, _b1, _b1],
        [_b1, _a1, _b1],
        [_b1, _b1, _a1],
        [_a2, _b2, _b2],
        [_b2, _a2, _b2],
        [_b2, _b2, _a2],
    ]
)


def triangle_quadrature(tris: np.ndarray):
    """Quadrature nodes and weights for a batch of triangles.

    Returns (nodes (T*7, 2), weights (T*7,)); weights include triangle areas.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    areas = 0.5 * np.abs(_cross2(b - a, c - a))
    nodes = np.einsum("qk,tkd->tqd", _TRI_BARY, tris)
    weights = areas[:, None] * _TRI_W[None, :]
    return nodes.reshape(-1, 2), weights.reshape(-1)


def gauss_legendre_grid(u0, u1, v0, v1, cells_u, cells_v, order=4):
    """Tensor Gauss-Legendre nodes/weights on a rectangle split into cells."""
    x, w = np.polynomial.legendre.leggauss(order)
    ue = np.linspace(u0, u1, cells_u + 1)
    ve = np.linspace(v0, v1, cells_v + 1)
    hu = (ue[1:] - ue[:-1]) / 2
    hv = (ve[1:] - ve[:-1]) / 2
    cu = (ue[1:] + ue[:-1]) / 2
    cv = (ve[1:] + ve[:-1]) / 2
    un = (cu[:, None] + hu[:, None] * x[None, :]).reshape(-1)
    vn = (cv[:, None] + hv[:, None] * x[None, :]).reshape(-1)
    uw = (hu[:, None] * w[None, :]).reshape(-1)
    vw = (hv[:, None] * w[None, :]).reshape(-1)
    uu, vv = np.meshgrid(un, vn, indexing="ij")
    ww = np.outer(uw, vw)
    return uu.reshape(-1), vv.reshape(-1), ww.reshape(-1)
