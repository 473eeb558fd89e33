"""Geodesics by shooting, two-point connection, and variational relaxation.

A geodesic is a path along which a parallel-transported direction keeps a
constant angle to the velocity; equivalently the pointer of a differential
chariot does not rotate relative to the vehicle.  The integrator tracks the
state (u, v, psi) where psi is the frame angle of the unit velocity, so unit
speed is automatic and the equation stays well conditioned near chart margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import paths, surface
from .paths import Path
from .surface import ChartPoint, Surface, TangentVector


class ChartExitError(ValueError):
    """A trajectory left the chart domain before reaching its target length."""

    def __init__(self, message: str, point=None, traversed: float = 0.0):
        super().__init__(message)
        self.point = point
        self.traversed = traversed


@dataclass(frozen=True)
class GeodesicShot:
    start: ChartPoint
    direction: TangentVector  # unit metric norm
    length: float             # actually traversed (may be short on domain exit)
    result_path: Path
    cumulative: np.ndarray    # arclength at each sample
    headings: np.ndarray      # frame angle of the velocity at each sample
    velocities: np.ndarray    # chart components of the unit velocity
    step: float
    exited: bool = False
    iterations: int | None = None   # secant shots taken by connect_geodesic
    residual: float | None = None   # connect_geodesic's final endpoint miss


def _rhs(s: Surface, u, v, psi, xp):
    # velocity = cos(psi) e1 + sin(psi) e2; psi parallel: d(psi) = -omega.
    # This fuses surface.connection_form and surface.from_frame over one jet
    # call, because it is the scalar hot loop of every shot.
    E, F, G, Eu, Ev, Fu, Fv, Gu, Gv = s.jet(u, v, xp)
    det = E * G - F * F
    W = xp.sqrt(det)
    sc = W / E
    wu = 0.5 * sc * (-F * Eu + E * (2.0 * Fu - Ev)) / det
    wv = 0.5 * sc * (-F * Ev + E * Gu) / det
    rE = xp.sqrt(E)
    c = xp.cos(psi)
    sn = xp.sin(psi)
    du = c / rE - sn * F / (rE * W)
    dv = sn * rE / W
    return du, dv, -(wu * du + wv * dv)


def _rk4(s: Surface, u, v, psi, h, xp):
    """One classical RK4 step of (u, v, psi): scalars with xp=math, lanes with xp=np."""
    hh = 0.5 * h
    a1, b1, c1 = _rhs(s, u, v, psi, xp)
    a2, b2, c2 = _rhs(s, u + hh * a1, v + hh * b1, psi + hh * c1, xp)
    a3, b3, c3 = _rhs(s, u + hh * a2, v + hh * b2, psi + hh * c2, xp)
    a4, b4, c4 = _rhs(s, u + h * a3, v + h * b3, psi + h * c3, xp)
    h6 = h / 6.0
    return (
        u + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        v + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        psi + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
    )


def _scalar_bounds(s: Surface):
    # inlined strictly_inside for the hot scalar loop; None disables an axis
    d = s.domain
    ub = None if d.periodic_u else (d.u_min + d.margin_u - 1e-12, d.u_max - d.margin_u + 1e-12)
    vb = None if d.periodic_v else (d.v_min + d.margin_v - 1e-12, d.v_max - d.margin_v + 1e-12)
    return ub, vb


def _integrate(s: Surface, u0, v0, psi0, h, n):
    ub, vb = _scalar_bounds(s)
    us, vs, ps = [u0], [v0], [psi0]
    u, v, psi = u0, v0, psi0
    for _ in range(n):
        u, v, psi = _rk4(s, u, v, psi, h, math)
        # truncate on exit: the lists end at the last sample inside
        if ub is not None and not ub[0] <= u <= ub[1]:
            return us, vs, ps, True
        if vb is not None and not vb[0] <= v <= vb[1]:
            return us, vs, ps, True
        us.append(u)
        vs.append(v)
        ps.append(psi)
    return us, vs, ps, False


def _velocities(s: Surface, pts: np.ndarray, psis: np.ndarray) -> np.ndarray:
    E, F, G = s.jet(pts[:, 0], pts[:, 1], np)[:3]
    return np.column_stack(surface.from_frame(E, F, G, np.cos(psis), np.sin(psis)))


def _shot_step(s: Surface, length: float, step) -> float:
    if step is not None:
        return float(step)
    return max(min(0.01 * s.feature_scale, length / 16.0), length / 4096.0)


def _shoot_angle(s: Surface, start, psi0: float, length: float, step=None) -> GeodesicShot:
    u0, v0 = float(start[0]), float(start[1])
    if not s.domain.strictly_inside(u0, v0):
        raise ValueError("start point lies outside the chart domain")
    if not length > 0:
        raise ValueError("length must be positive")
    h = _shot_step(s, length, step)
    n = max(4, int(math.ceil(length / h - 1e-12)))
    h = length / n
    return _make_shot(s, h, *_integrate(s, u0, v0, psi0, h, n))


def _make_shot(
    s: Surface, h: float, us, vs, ps, exited: bool, iterations=None, residual=None
) -> GeodesicShot:
    """GeodesicShot from an _integrate trajectory taken with step h."""
    u0, v0 = us[0], vs[0]
    if len(us) < 2:
        raise _first_step_exit(u0, v0)
    pts = np.column_stack([us, vs])
    psis = np.asarray(ps)
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    rp = Path(pts, max_step=float(steps.max()) * (1.0 + 1e-9))
    cum = h * np.arange(len(us), dtype=float)
    vel = _velocities(s, pts, psis)
    d0 = TangentVector(ChartPoint(u0, v0), float(vel[0, 0]), float(vel[0, 1]))
    return GeodesicShot(
        start=ChartPoint(u0, v0),
        direction=d0,
        length=h * (len(us) - 1),
        result_path=rp,
        cumulative=cum,
        headings=psis,
        velocities=vel,
        step=h,
        exited=exited,
        iterations=iterations,
        residual=residual,
    )


def _first_step_exit(u0: float, v0: float) -> ChartExitError:
    return ChartExitError(
        "geodesic leaves the chart domain on its first step", ChartPoint(u0, v0), 0.0
    )


def shoot_geodesic(s: Surface, start, direction, length: float, step=None) -> GeodesicShot:
    """Integrate a geodesic of the given metric length from an initial direction.

    On domain exit the shot is returned with the partial length actually
    traversed and ``exited`` set.
    """
    u0, v0 = float(start[0]), float(start[1])
    _, psi0 = surface._norm_and_angle(s, (u0, v0), direction)
    return _shoot_angle(s, (u0, v0), psi0, length, step=step)


def shoot_batch(s: Surface, starts: np.ndarray, psis: np.ndarray, length: float, n_steps: int = 8):
    """Endpoints (and final angles) of many equal-length geodesic shots.

    Vectorized fixed-step integration used for chariot wheel tracks, where
    thousands of very short shots are needed.
    """
    u = np.array(starts[:, 0], dtype=float)
    v = np.array(starts[:, 1], dtype=float)
    psi = np.array(psis, dtype=float)
    h = length / n_steps
    inside = s.domain.strictly_inside
    for _ in range(n_steps):
        u, v, psi = _rk4(s, u, v, psi, h, np)
        # raise on exit, naming the first lane that left
        if not inside(u, v):
            k = next(i for i in range(len(u)) if not inside(u[i], v[i]))
            raise ChartExitError(
                "offset geodesic leaves the chart domain",
                ChartPoint(float(u[k]), float(v[k])),
            )
    return np.column_stack([u, v]), psi


def _wrap_delta(s: Surface, a, b):
    """Chart displacement from a to the nearest periodic image of b."""
    du = float(b[0]) - float(a[0])
    dv = float(b[1]) - float(a[1])
    dom = s.domain
    if dom.periodic_u:
        P = dom.u_max - dom.u_min
        du -= P * round(du / P)
    if dom.periodic_v:
        P = dom.v_max - dom.v_min
        dv -= P * round(dv / P)
    return du, dv


def connect_geodesic(
    s: Surface,
    a,
    b,
    step=None,
    tol: float = 1e-11,
    max_iter: int = 80,
    initial_angle=None,
) -> GeodesicShot:
    """Geodesic between two chart points by secant shooting.

    The initial guess is the chart straight line (to the nearest periodic
    image of b); the returned arc is the one homotopic to that guess.  An
    explicit ``initial_angle`` selects a different branch.

    Each shot fixes the start, the departure angle and the length, and
    measures the metric miss at the endpoint along and across the arrival
    direction.  The along part corrects the length; the across part
    corrects the angle through a secant estimate of d(miss)/d(angle),
    starting from the flat-plane value (the length).  The secant runs on a
    coarse grid (step at least L/32) until the miss is below
    ``tol * max(1, L)``, then on the fine grid from ``step`` until it is
    below again.  The secant slope is carried across the switch, but no
    difference is taken between shots on different grids.  The returned
    shot is the converged iterate itself, with ``iterations`` (shots taken)
    and ``residual`` (final miss) filled in.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    ua, va = float(a[0]), float(a[1])
    if not s.domain.strictly_inside(ua, va):
        raise ValueError("start point lies outside the chart domain")
    du, dv = _wrap_delta(s, a, b)
    if s.sphere_radius is not None:
        # antipodal pairs do not single out a great circle
        adu, adv = _wrap_delta(s, (math.pi - ua, va + math.pi), b)
        if math.hypot(adu, adv) < 1e-3:
            raise ValueError("endpoints within 1e-3 of antipodal: arc not unique")
    if initial_angle is not None:
        # pick the periodic image of b whose departure direction agrees best
        # with the requested angle, so the caller can choose winding branches
        per = _periods(s)
        best = None
        for ku in range(-1, 2) if math.isfinite(per[0]) else (0,):
            for kv in range(-1, 2) if math.isfinite(per[1]) else (0,):
                cand = (du + ku * (per[0] if ku else 0.0), dv + kv * (per[1] if kv else 0.0))
                if math.hypot(*cand) < 1e-12:
                    continue
                ang = surface.frame_angle(s, (ua, va), cand)
                gap = abs((ang - float(initial_angle) + math.pi) % (2 * math.pi) - math.pi)
                if best is None or gap < best[0]:
                    best = (gap, cand)
        du, dv = best[1]
    tu, tv = ua + du, va + dv
    line = np.column_stack([np.linspace(ua, tu, 65), np.linspace(va, tv, 65)])
    L = float(paths.segment_lengths(s, line).sum())
    if L < 1e-12:
        raise ValueError("endpoints coincide")
    psi = (
        float(initial_angle)
        if initial_angle is not None
        else surface.frame_angle(s, (ua, va), (du, dv))
    )
    fine = _shot_step(s, L, step)
    coarse = max(fine, L / 32.0)
    h0 = coarse
    prev_psi = prev_perp = None
    jac = None
    for it in range(1, max_iter + 1):
        n = max(4, int(math.ceil(L / h0 - 1e-12)))
        h = L / n
        us, vs, ps, exited = _integrate(s, ua, va, psi, h, n)
        # miss to the target in the orthonormal frame at the endpoint, then
        # split along and across the arrival velocity cos(psi) e1 + sin(psi) e2
        E, F, G = s.jet(us[-1], vs[-1], math)[:3]
        ma, mb = surface.to_frame(E, F, G, tu - us[-1], tv - vs[-1], math)
        c, sn = math.cos(ps[-1]), math.sin(ps[-1])
        lon = ma * c + mb * sn
        perp = mb * c - ma * sn
        err = math.hypot(lon, perp)
        if err < tol * max(1.0, L):
            if h0 <= fine * (1.0 + 1e-12):
                break
            # converged on the coarse grid; polish on the fine one.  The
            # slope jac carries over, but no secant difference spans two grids.
            h0 = fine
            prev_psi = prev_perp = None
            continue
        if exited:
            if len(us) < 2:
                raise _first_step_exit(ua, va)
            L = (len(us) - 1) * h
            continue
        if jac is None:
            jac = L
        elif prev_psi is not None:
            dpsi = psi - prev_psi
            if abs(dpsi) > 1e-14:
                est = -(perp - prev_perp) / dpsi
                if est > 0.05 * L:
                    jac = est
        prev_psi, prev_perp = psi, perp
        dpsi = perp / jac
        dpsi = max(-0.8, min(0.8, dpsi))
        dlon = max(-0.5 * L, min(0.5 * L, lon))
        psi += dpsi
        L += dlon
    else:
        raise ValueError(
            f"geodesic connection did not converge (residual {err:.3e})"
        )
    return _make_shot(s, h, us, vs, ps, exited, iterations=it, residual=err)


def geodesic_polygon(s: Surface, vertices, step=None):
    """Closed loop of geodesic arcs through the given chart vertices.

    Returns (loop, shots, vertex_indices); vertex_indices[k] is the sample
    index of vertex k in the loop's point array.
    """
    verts = [np.array([float(p[0]), float(p[1])]) for p in vertices]
    if len(verts) < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    shots = []
    for k in range(len(verts)):
        shots.append(connect_geodesic(s, verts[k], verts[(k + 1) % len(verts)], step=step))
    pieces = []
    indices = [0]
    offset = np.zeros(2)
    for k, shot in enumerate(shots):
        pts = shot.result_path.points.copy()
        pts[0] = verts[k]
        nxt = verts[(k + 1) % len(verts)]
        # connect may target a periodic image; keep the polyline continuous
        per = _periods(s)
        finite = np.isfinite(per)
        shift = np.zeros(2)
        shift[finite] = np.round((pts[-1] - nxt)[finite] / per[finite]) * per[finite]
        pts[-1] = nxt + shift
        pts = pts + offset
        offset = pts[-1] - nxt
        pieces.append(pts[:-1] if k + 1 < len(shots) else pts)
        indices.append(indices[-1] + len(pts) - 1)
    all_pts = np.concatenate(pieces, axis=0)
    steps = np.linalg.norm(np.diff(all_pts, axis=0), axis=1)
    ms = float(steps.max()) * (1.0 + 1e-9)
    loop = paths._close_loop(s, all_pts, ms)
    return loop, shots, indices[:-1]


def _periods(s: Surface) -> np.ndarray:
    dom = s.domain
    pu = (dom.u_max - dom.u_min) if dom.periodic_u else math.inf
    pv = (dom.v_max - dom.v_min) if dom.periodic_v else math.inf
    return np.array([pu, pv])


def _chord_profile(s: Surface, pts: np.ndarray):
    """Statue rotation rate, left normal and spacing at interior samples.

    The rate compares the frame-angle turn between consecutive chords with the
    parallel-transport increment between chord midpoints; the residual per
    unit length is the (negated) discrete geodesic curvature.
    """
    mids = 0.5 * (pts[:-1] + pts[1:])
    delta = np.diff(pts, axis=0)
    m = len(mids)
    a, b = surface.to_frame(*s.jet(mids[:, 0], mids[:, 1], np)[:3], delta[:, 0], delta[:, 1])
    theta = np.arctan2(b, a)
    ds = np.hypot(a, b)
    zig = np.empty((2 * m - 1, 2))
    zig[0::2] = mids
    zig[1::2] = pts[1:-1]
    inc = surface.connection_increments(s, zig, panels=1)
    alpha = inc[0::2] + inc[1::2]
    dtheta = np.diff(theta)
    dtheta = (dtheta + math.pi) % (2.0 * math.pi) - math.pi
    ds_avg = 0.5 * (ds[:-1] + ds[1:])
    rho = -(dtheta - alpha) / ds_avg
    # unit left normal of the central chord: rotate its frame components
    dc = pts[2:] - pts[:-2]
    E, F, G = s.jet(pts[1:-1, 0], pts[1:-1, 1], np)[:3]
    a, b = surface.to_frame(E, F, G, dc[:, 0], dc[:, 1])
    nor = np.column_stack(surface.from_frame(E, F, G, -b, a)) / np.hypot(a, b)[:, None]
    return rho, nor, ds_avg


def rotation_rate_profile(s: Surface, path_or_shot) -> np.ndarray:
    """Statue rotation rate per unit length at interior samples.

    Positive values mean the transported direction gains angle on the path
    direction (the path is curving clockwise); identically zero characterizes
    a geodesic.  For a GeodesicShot the stored unit velocities give a
    higher-order stencil; for a bare polyline chord directions are used.
    """
    if isinstance(path_or_shot, GeodesicShot):
        shot = path_or_shot
        pts = shot.result_path.points
        psis = shot.headings
        h = shot.step
        wu, wv = surface.connection_form(s, pts[:, 0], pts[:, 1], np)
        wdot = (
            np.broadcast_to(np.asarray(wu, dtype=float), psis.shape) * shot.velocities[:, 0]
            + np.broadcast_to(np.asarray(wv, dtype=float), psis.shape) * shot.velocities[:, 1]
        )
        num = psis[2:] - psis[:-2] + (h / 3.0) * (wdot[:-2] + 4.0 * wdot[1:-1] + wdot[2:])
        return -num / (2.0 * h)
    pts = getattr(path_or_shot, "points", None)
    if pts is None:
        pts = np.asarray(path_or_shot, dtype=float)
    return _chord_profile(s, pts)[0]


@dataclass
class RelaxationReport:
    iterations: int
    length_history: list
    final_max_rotation_rate: float
    final_path: Path
    converged: bool
    rotation_history: list = field(default_factory=list)


def relax_to_geodesic(
    s: Surface,
    p: Path,
    step_gain=None,
    tol: float = 1e-6,
    max_iter: int = 60000,
) -> RelaxationReport:
    """Relax a fixed-endpoint path into a geodesic.

    Each interior sample is displaced along the path normal by
    -step_gain * (statue rotation rate); steps that would increase the length
    trigger gain halving.  Stops when the maximum rotation rate drops below
    ``tol``.
    """
    pts = np.array(p.points, dtype=float)
    if len(pts) < 3:
        raise ValueError("path needs interior samples to relax")
    seg = paths.segment_lengths(s, pts)
    mean_spacing = float(seg.mean())
    base_gain = float(step_gain) if step_gain is not None else 0.1 * mean_spacing
    min_seg = 0.05 * mean_spacing
    inside = s.domain.strictly_inside
    cur_len = float(seg.sum())
    lengths = [cur_len]
    rot_hist: list = []
    gain = base_gain
    rho, nor, _ = _chord_profile(s, pts)
    max_rho = float(np.max(np.abs(rho)))
    rot_hist.append(max_rho)
    converged = max_rho < tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        cand = None
        while gain > 1e-7 * base_gain:
            trial = pts.copy()
            trial[1:-1] -= gain * rho[:, None] * nor
            if np.all(inside(trial[1:-1, 0], trial[1:-1, 1])):
                seg = paths.segment_lengths(s, trial)
                if float(seg.min()) > min_seg:
                    new_len = float(seg.sum())
                    if new_len <= cur_len + 1e-10:
                        cand = trial
                        break
            gain *= 0.5
        if cand is None:
            break
        pts = cand
        cur_len = new_len
        lengths.append(cur_len)
        rho, nor, _ = _chord_profile(s, pts)
        max_rho = float(np.max(np.abs(rho)))
        rot_hist.append(max_rho)
        converged = max_rho < tol
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    ms = max(float(steps.max()) * (1.0 + 1e-9), p.max_step)
    final = Path(pts, max_step=ms)
    return RelaxationReport(
        iterations=it,
        length_history=lengths,
        final_max_rotation_rate=max_rho,
        final_path=final,
        converged=converged,
        rotation_history=rot_hist,
    )


def second_variation_probe(s: Surface, g: GeodesicShot, amplitude: float):
    """Length change of a geodesic under a half-sine normal bump to each side.

    Returns (delta_left, delta_right) against the discrete length of the
    geodesic's own polyline; a locally minimal geodesic gives nonnegative
    deltas, a saddle yields a negative one.
    """
    pts = g.result_path.points
    arcs = g.cumulative
    L = float(arcs[-1])
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    bump = np.sin(np.pi * arcs / L)
    # unit left normal: the heading turned a quarter turn in the frame
    psi = g.headings
    E, F, G = s.jet(pts[:, 0], pts[:, 1], np)[:3]
    nor = np.column_stack(surface.from_frame(E, F, G, -np.sin(psi), np.cos(psi)))
    base = float(paths.segment_lengths(s, pts).sum())
    deltas = []
    for sign in (1.0, -1.0):
        cand = pts + sign * amplitude * bump[:, None] * nor
        if not np.all(s.domain.strictly_inside(cand[:, 0], cand[:, 1])):
            raise ChartExitError("perturbed path leaves the chart domain")
        deltas.append(float(paths.segment_lengths(s, cand).sum()) - base)
    return deltas[0], deltas[1]
