"""Chart polylines: paths, loops, region boundaries, and loop surgery.

Paths live in unwrapped chart coordinates: on a periodic axis a loop may
close "modulo a period" (a latitude circle runs v from 0 to 2*pi) and is
then fine for transport but, not being a closed chart polygon, cannot bound
a region.  Region boundaries must close exactly in the chart and be simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import _chartgeom
from .surface import Surface

_CLOSE_TOL = 1e-9

_GENERATOR_PARAMS = {
    "line": ("u0", "v0", "u1", "v1"),
    "arc": ("cu", "cv", "r", "t0", "t1"),
    "circle": ("cu", "cv", "r"),
    "latitude_circle": ("u",),
    "chart_rectangle": ("u0", "v0", "u1", "v1"),
}


@dataclass(frozen=True, eq=False)
class Path:
    """A sampled chart polyline."""

    points: np.ndarray  # (N, 2) float, unwrapped chart coordinates
    max_step: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("a path needs an (N, 2) array with at least two samples")
        steps = np.hypot(*np.diff(pts, axis=0).T)
        if np.any(steps > self.max_step + 1e-12):
            raise ValueError("consecutive samples exceed the declared max_step")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


@dataclass(frozen=True, eq=False)
class Loop(Path):
    """A closed path.  ``chart_closed`` distinguishes exact chart closure
    from closure modulo a chart period (non-contractible in the chart)."""

    chart_closed: bool = True

    @property
    def base(self):
        return self.points[0]


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """A simple, exactly closed, positively oriented chart polygon.

    Simple means no two non-adjacent boundary segments meet, touching
    included: a loop through the same sample twice is rejected.  The check
    (``_chartgeom.polyline_is_simple``) buckets segments on a uniform grid,
    so it costs O(n log n) in the number of samples.
    """

    loop: Loop
    signed_area: float = field(default=0.0)

    def __post_init__(self):
        if not self.loop.chart_closed:
            raise ValueError("a region boundary must close exactly in the chart")
        area = _chartgeom.shoelace_area(self.loop.points)
        if area < 0:
            raise ValueError("region boundary must be positively oriented")
        if not _chartgeom.polyline_is_simple(self.loop.points, closed=True):
            raise ValueError("region boundary must be a simple polygon")
        object.__setattr__(self, "signed_area", float(area))

    @property
    def points(self) -> np.ndarray:
        return self.loop.points


def default_max_step(s: Surface) -> float:
    return 1e-2 * s.domain.extent


def _refine(points: np.ndarray, max_step: float) -> np.ndarray:
    """Insert evenly spaced samples until chart steps stay below max_step."""
    pts = np.asarray(points, dtype=float)
    out = [pts[:1]]
    for a, b in zip(pts[:-1], pts[1:]):
        dist = float(np.hypot(*(b - a)))
        n = max(1, int(math.ceil(dist / max_step - 1e-12)))
        frac = np.arange(1, n + 1)[:, None] / n
        out.append(a + frac * (b - a))
    return np.concatenate(out)


def _check_in_domain(s: Surface, pts: np.ndarray) -> None:
    if not s.domain.contains(pts[:, 0], pts[:, 1]):
        raise ValueError(f"path leaves the chart domain of {s.name!r}")


def path_from_waypoints(s: Surface, waypoints, max_step: float | None = None) -> Path:
    """Polyline through the given chart waypoints, refined to max_step."""
    ms = max_step if max_step is not None else default_max_step(s)
    pts = _refine(np.asarray(waypoints, dtype=float), ms)
    _check_in_domain(s, pts)
    return Path(pts, ms)


def loop_from_waypoints(s: Surface, waypoints, max_step: float | None = None) -> Loop:
    ms = max_step if max_step is not None else default_max_step(s)
    pts = _refine(np.asarray(waypoints, dtype=float), ms)
    _check_in_domain(s, pts)
    return _close_loop(s, pts, ms)


def _close_loop(s: Surface, pts: np.ndarray, ms: float) -> Loop:
    gap = pts[-1] - pts[0]
    if np.hypot(*gap) <= _CLOSE_TOL:
        pts = pts.copy()
        pts[-1] = pts[0]
        return Loop(pts, ms, chart_closed=True)
    # closure modulo declared chart periods
    d = s.domain
    ok = True
    for axis, periodic, lo, hi in ((0, d.periodic_u, d.u_min, d.u_max), (1, d.periodic_v, d.v_min, d.v_max)):
        g = gap[axis]
        if abs(g) <= _CLOSE_TOL:
            continue
        period = hi - lo
        if periodic and abs(g - period * round(g / period)) <= _CLOSE_TOL:
            ok = False  # closes only modulo a period
            continue
        raise ValueError("loop endpoints do not match, even modulo chart periods")
    return Loop(pts, ms, chart_closed=ok)


def sample_path(s: Surface, generator: str, params, max_step: float | None = None):
    """Sample a named path generator.

    Generators: ``line`` (u0 v0 u1 v1), ``waypoints`` (u0 v0 u1 v1 ...),
    ``arc`` (cu cv radius t0 t1), ``circle`` (cu cv radius),
    ``latitude_circle`` (u0), ``chart_rectangle`` (u0 v0 u1 v1).
    The last three return loops, the rest open paths.
    """
    ms = max_step if max_step is not None else default_max_step(s)
    if isinstance(params, Mapping):
        if generator == "waypoints":
            params = np.asarray(params["points"], dtype=float).reshape(-1)
        else:
            order = _GENERATOR_PARAMS.get(generator)
            if order is None:
                raise ValueError(f"unknown path generator {generator!r}")
            extra = set(params) - set(order)
            if extra:
                raise ValueError(f"unknown parameter(s) for {generator!r}: {sorted(extra)}")
            try:
                params = [params[k] for k in order]
            except KeyError as missing:
                raise ValueError(f"generator {generator!r} needs parameter {missing}") from None
    q = [float(x) for x in params]
    if generator == "line":
        u0, v0, u1, v1 = q
        return path_from_waypoints(s, [(u0, v0), (u1, v1)], ms)
    if generator == "waypoints":
        if len(q) % 2 or len(q) < 4:
            raise ValueError("waypoints generator needs an even list of at least 4 numbers")
        way = np.array(q).reshape(-1, 2)
        if np.hypot(*(way[-1] - way[0])) <= _CLOSE_TOL:
            return loop_from_waypoints(s, way, ms)
        return path_from_waypoints(s, way, ms)
    if generator == "arc":
        cu, cv, radius, t0, t1 = q
        n = max(8, int(math.ceil(abs(t1 - t0) * radius / ms)))
        t = np.linspace(t0, t1, n + 1)
        pts = np.stack([cu + radius * np.cos(t), cv + radius * np.sin(t)], axis=1)
        _check_in_domain(s, pts)
        return Path(pts, ms)
    if generator == "circle":
        cu, cv, radius = q
        n = max(16, int(math.ceil(2 * math.pi * radius / ms)))
        t = np.linspace(0.0, 2 * math.pi, n + 1)
        pts = np.stack([cu + radius * np.cos(t), cv + radius * np.sin(t)], axis=1)
        pts[-1] = pts[0]
        _check_in_domain(s, pts)
        return Loop(pts, ms, chart_closed=True)
    if generator == "latitude_circle":
        (u0,) = q
        d = s.domain
        if not d.periodic_v:
            raise ValueError("latitude_circle needs a periodic v axis")
        n = max(16, int(math.ceil((d.v_max - d.v_min) / ms)))
        v = np.linspace(d.v_min, d.v_max, n + 1)
        pts = np.stack([np.full_like(v, u0), v], axis=1)
        _check_in_domain(s, pts)
        return Loop(pts, ms, chart_closed=False)
    if generator == "chart_rectangle":
        u0, v0, u1, v1 = q
        u0, u1 = min(u0, u1), max(u0, u1)
        v0, v1 = min(v0, v1), max(v0, v1)
        way = [(u0, v0), (u1, v0), (u1, v1), (u0, v1), (u0, v0)]
        return loop_from_waypoints(s, way, ms)
    raise ValueError(
        f"unknown path generator {generator!r}; known generators: line, waypoints, "
        "arc, circle, latitude_circle, chart_rectangle"
    )


def chart_rectangle(s: Surface, u0, v0, u1, v1, max_step: float | None = None) -> RegionBoundary:
    loop = sample_path(s, "chart_rectangle", [u0, v0, u1, v1], max_step)
    return RegionBoundary(loop)


def region_from_loop(loop: Loop) -> RegionBoundary:
    """Wrap a loop as a region boundary, reversing it if negatively oriented."""
    if _chartgeom.shoelace_area(loop.points) < 0:
        loop = reverse_path(loop)
    return RegionBoundary(loop)


# ---------------------------------------------------------------------------
# measures and elementary surgery
# ---------------------------------------------------------------------------


def segment_lengths(s: Surface, points: np.ndarray) -> np.ndarray:
    """Metric lengths of polyline segments (midpoint-rule metric)."""
    pts = np.asarray(points, dtype=float)
    d = np.diff(pts, axis=0)
    mid = (pts[:-1] + pts[1:]) / 2
    E, F, G = s.jet(mid[:, 0], mid[:, 1], np)[:3]
    q = E * d[:, 0] ** 2 + 2 * F * d[:, 0] * d[:, 1] + G * d[:, 1] ** 2
    return np.sqrt(np.maximum(q, 0.0))


def path_length(s: Surface, p: Path | np.ndarray) -> float:
    pts = p.points if isinstance(p, Path) else np.asarray(p, dtype=float)
    return float(np.sum(segment_lengths(s, pts)))


def arclengths(s: Surface, p: Path | np.ndarray) -> np.ndarray:
    """Cumulative metric arclength at each sample, starting at zero."""
    pts = p.points if isinstance(p, Path) else np.asarray(p, dtype=float)
    out = np.zeros(len(pts))
    out[1:] = np.cumsum(segment_lengths(s, pts))
    return out


def refine_path(s: Surface, p: Path, max_step: float) -> Path:
    pts = _refine(p.points, max_step)
    if isinstance(p, Loop):
        return Loop(pts, max_step, chart_closed=p.chart_closed)
    return Path(pts, max_step)


def reverse_path(p: Path) -> Path:
    if isinstance(p, Loop):
        return Loop(p.points[::-1].copy(), p.max_step, chart_closed=p.chart_closed)
    return Path(p.points[::-1].copy(), p.max_step)


def is_simple(p: Path) -> bool:
    """No two non-adjacent chart segments meet.  A loop that closes only
    modulo a chart period has no closing chart segment and is checked as
    an open polyline."""
    closed = isinstance(p, Loop) and p.chart_closed
    return _chartgeom.polyline_is_simple(p.points, closed=closed)


def compose(first: Loop, second: Loop) -> Loop:
    """The loop traversing ``first`` and then ``second``.

    Both loops must be based at the same chart point.
    """
    if np.hypot(*(first.points[-1] - second.points[0])) > _CLOSE_TOL:
        raise ValueError("loops must share their base point to compose")
    pts = np.concatenate([first.points, second.points[1:]])
    closed = first.chart_closed and second.chart_closed
    return Loop(pts, max(first.max_step, second.max_step), chart_closed=closed)


def add_detour(l: Loop, spur: Path, at_index: int | None = None) -> Loop:
    """Splice an out-and-back excursion along ``spur`` into the loop.

    The spur must start at a loop sample.  Transport out and back cancels,
    so the holonomy is unchanged; the vehicle's about-face at the spur tip
    never enters the statue's angle record.
    """
    if at_index is None:
        d = np.hypot(*(l.points - spur.points[0]).T)
        at_index = int(np.argmin(d))
    if np.hypot(*(l.points[at_index] - spur.points[0])) > _CLOSE_TOL:
        raise ValueError("spur must start at a sample of the loop")
    back = spur.points[::-1]
    pts = np.concatenate([l.points[: at_index + 1], spur.points[1:], back[1:], l.points[at_index + 1 :]])
    return Loop(pts, max(l.max_step, spur.max_step), chart_closed=l.chart_closed)


def rebase(l: Loop, new_base_index: int) -> Loop:
    """Start the loop at another of its samples (cyclic rotation)."""
    if not l.chart_closed:
        raise ValueError("can only rebase a loop that closes exactly in the chart")
    n = len(l.points) - 1  # distinct samples
    k = int(new_base_index) % n
    ring = l.points[:-1]
    pts = np.concatenate([ring[k:], ring[:k], ring[k : k + 1]])
    return Loop(pts, l.max_step, chart_closed=True)


def subdivide_region(r: RegionBoundary, chord: Path) -> tuple[RegionBoundary, RegionBoundary]:
    """Split a region along a chord running between two boundary samples."""
    ring = r.points[:-1]
    d0 = np.hypot(*(ring - chord.points[0]).T)
    d1 = np.hypot(*(ring - chord.points[-1]).T)
    i, j = int(np.argmin(d0)), int(np.argmin(d1))
    if d0[i] > _CLOSE_TOL or d1[j] > _CLOSE_TOL:
        raise ValueError("chord endpoints must lie on boundary samples")
    if i == j:
        raise ValueError("chord endpoints must be distinct boundary samples")
    interior = chord.points[1:-1]
    if len(interior) and not np.all(_chartgeom.points_in_polygon(interior, r.points)):
        raise ValueError("chord must stay inside the region")
    if i > j:
        i, j = j, i
        chord = reverse_path(chord)
    ms = max(r.loop.max_step, chord.max_step)
    pts1 = np.concatenate([ring[i : j + 1], chord.points[::-1][1:]])
    wrap = np.concatenate([ring[j:], ring[: i + 1]])
    pts2 = np.concatenate([wrap, chord.points[1:]])
    r1 = region_from_loop(Loop(pts1, ms, chart_closed=True))
    r2 = region_from_loop(Loop(pts2, ms, chart_closed=True))
    return r1, r2
