"""Parallel transport, real-valued loop holonomy, and the two-wheel chariot.

Transport is integrated in the chart-aligned orthonormal gauge: a parallel
vector's frame angle obeys d(theta) = -omega along the path, so transporting
reduces to integrating the connection one-form segment by segment.  The
metric norm is preserved identically and the unwrapped angle is the paper
quantity: a full turn is 2*pi, not 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesics, paths, surface
from .paths import Loop, Path
from .surface import ChartPoint, Surface, TangentVector


@dataclass(frozen=True)
class TransportResult:
    total_rotation: float      # unwrapped, counterclockwise-positive
    angle_trace: np.ndarray    # columns (arclength, unwrapped frame angle)
    final_vector: TangentVector
    refine_gap: float = 0.0    # change at the last quadrature refinement
    levels: int = 1


@dataclass(frozen=True)
class ChariotConfig:
    width_w: float
    step: float | None = None  # defaults to width_w / 8

    def __post_init__(self):
        if not self.width_w > 0:
            raise ValueError("width_w must be positive")
        if self.step is not None and not self.step > 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class ChariotResult(TransportResult):
    width: float = 0.0
    heading: np.ndarray | None = None   # unwrapped frame angle of travel
    d_left: np.ndarray | None = None    # cumulative left wheel distance
    d_right: np.ndarray | None = None
    left_track: np.ndarray | None = None
    right_track: np.ndarray | None = None
    center_track: np.ndarray | None = None


def parallel_transport(
    s: Surface,
    p: Path,
    v0,
    tol: float = 1e-9,
    max_levels: int = 12,
) -> TransportResult:
    """Transport v0 along p, refining the quadrature until the total angle
    settles to ``tol``."""
    pts = p.points
    if not np.all(s.domain.strictly_inside(pts[:, 0], pts[:, 1])):
        raise ValueError("path leaves the chart domain (or touches its margin)")
    base = ChartPoint(float(pts[0, 0]), float(pts[0, 1]))
    norm0, theta0 = surface._norm_and_angle(s, base, v0)

    panels = 1
    inc = surface.connection_increments(s, pts, panels)
    total = float(inc.sum())
    gap = math.inf
    levels = 1
    while panels < 2 ** max_levels:
        panels *= 2
        inc = surface.connection_increments(s, pts, panels)
        finer = float(inc.sum())
        gap = abs(finer - total)
        total = finer
        levels += 1
        if gap <= tol:
            break
    if float(np.max(np.abs(inc), initial=0.0)) >= math.pi:
        raise ValueError(
            "path sampling too coarse: a single segment transports by >= pi"
        )
    angles = theta0 + np.concatenate([[0.0], np.cumsum(inc)])
    arcs = paths.arclengths(s, pts)
    theta_end = float(angles[-1])
    end = ChartPoint(float(pts[-1, 0]), float(pts[-1, 1]))
    w_end = surface.vector_from_frame(
        s, end, norm0 * math.cos(theta_end), norm0 * math.sin(theta_end)
    )
    return TransportResult(
        total_rotation=total,
        angle_trace=np.column_stack([arcs, angles]),
        final_vector=TangentVector(end, float(w_end[0]), float(w_end[1])),
        refine_gap=gap,
        levels=levels,
    )


def holonomy_transport(s: Surface, l: Loop, tol: float = 1e-9) -> TransportResult:
    """Transport of the first frame vector around a loop (full result)."""
    if not isinstance(l, Loop):
        raise TypeError("loop_holonomy needs a Loop")
    base = ChartPoint(float(l.points[0, 0]), float(l.points[0, 1]))
    e1, _ = surface.frame_at(s, base)
    v0 = TangentVector(base, float(e1[0]), float(e1[1]))
    return parallel_transport(s, l, v0, tol=tol)


def loop_holonomy(s: Surface, l: Loop, tol: float = 1e-9) -> float:
    """Unwrapped rotation (real number, not mod 2*pi) around a closed loop.

    Independent of the initial vector: the rotation is a property of the
    loop alone.
    """
    return holonomy_transport(s, l, tol=tol).total_rotation


def _refine_by_metric_step(s: Surface, pts: np.ndarray, step: float) -> np.ndarray:
    seg = paths.segment_lengths(s, pts)
    counts = np.maximum(1, np.ceil(seg / step - 1e-12).astype(int))
    pieces = [pts[:1]]
    for i, n in enumerate(counts):
        t = np.linspace(0.0, 1.0, n + 1)[1:, None]
        pieces.append(pts[i] + t * (pts[i + 1] - pts[i]))
    return np.concatenate(pieces, axis=0)


def _node_directions(pts: np.ndarray, closed: bool) -> np.ndarray:
    d = np.empty_like(pts)
    d[1:-1] = pts[2:] - pts[:-2]
    if closed:
        gap = pts[-1] - pts[0]  # zero for chart-closed, one period otherwise
        d[0] = pts[1] - (pts[-2] - gap)
        d[-1] = (pts[1] + gap) - pts[-2]
    else:
        # one-sided second-order stencils at the ends
        d[0] = -3.0 * pts[0] + 4.0 * pts[1] - pts[2]
        d[-1] = 3.0 * pts[-1] - 4.0 * pts[-2] + pts[-3]
    return d


def finite_chariot(s: Surface, p: Path, cfg: ChariotConfig) -> ChariotResult:
    """Statue angle of a chariot of finite wheel separation driven along p.

    Wheels sit at metric distance width_w/2 along geodesics perpendicular to
    the path (left = positive normal side); the statue angle is the heading
    plus the accumulated wheel-distance difference (d_left - d_right) over
    the width.  As the width shrinks this converges to parallel transport.
    """
    w = cfg.width_w
    step = cfg.step if cfg.step is not None else w / 8.0
    pts = _refine_by_metric_step(s, p.points, step)
    closed = isinstance(p, Loop)
    dirs = _node_directions(pts, closed)

    E, F, G = (
        np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
        for t in s.jet(pts[:, 0], pts[:, 1], np)[:3]
    )
    a, b = surface.to_frame(E, F, G, dirs[:, 0], dirs[:, 1])
    heading = np.unwrap(np.arctan2(b, a))

    left_track, _ = geodesics.shoot_batch(s, pts, heading + 0.5 * math.pi, 0.5 * w)
    right_track, _ = geodesics.shoot_batch(s, pts, heading - 0.5 * math.pi, 0.5 * w)
    # a wheel must roll forward: its displacement has to keep a positive
    # metric dot with the center's, else the offset curve has folded
    seg_c = np.diff(pts, axis=0)
    Em, Fm, Gm = (0.5 * (t[1:] + t[:-1]) for t in (E, F, G))
    for track, side in ((left_track, "left"), (right_track, "right")):
        seg_w = np.diff(track, axis=0)
        dots = (
            Em * seg_w[:, 0] * seg_c[:, 0]
            + Fm * (seg_w[:, 0] * seg_c[:, 1] + seg_w[:, 1] * seg_c[:, 0])
            + Gm * seg_w[:, 1] * seg_c[:, 1]
        )
        if np.any(dots < 0.0):
            raise ValueError(
                f"chariot width {w} too large: {side} wheel track folds back on itself"
            )

    d_left = np.concatenate([[0.0], np.cumsum(paths.segment_lengths(s, left_track))])
    d_right = np.concatenate([[0.0], np.cumsum(paths.segment_lengths(s, right_track))])
    statue = heading + (d_left - d_right) / w
    arcs = paths.arclengths(s, pts)

    end = ChartPoint(float(pts[-1, 0]), float(pts[-1, 1]))
    theta_end = float(statue[-1])
    w_end = surface.vector_from_frame(s, end, math.cos(theta_end), math.sin(theta_end))
    return ChariotResult(
        total_rotation=float(statue[-1] - statue[0]),
        angle_trace=np.column_stack([arcs, statue]),
        final_vector=TangentVector(end, float(w_end[0]), float(w_end[1])),
        refine_gap=0.0,
        levels=1,
        width=w,
        heading=heading,
        d_left=d_left,
        d_right=d_right,
        left_track=left_track,
        right_track=right_track,
        center_track=pts,
    )


def chariot_convergence(s: Surface, p: Path, widths) -> list[tuple[float, float]]:
    """Error of the finite chariot against continuum transport per width."""
    base = ChartPoint(float(p.points[0, 0]), float(p.points[0, 1]))
    e1, _ = surface.frame_at(s, base)
    continuum = parallel_transport(s, p, TangentVector(base, float(e1[0]), float(e1[1])))
    out = []
    for w in widths:
        res = finite_chariot(s, p, ChariotConfig(width_w=float(w)))
        out.append((float(w), abs(res.total_rotation - continuum.total_rotation)))
    return out
