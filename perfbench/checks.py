"""Independent checks of the program's output files.

Every reference here is computed from closed forms or plain numpy
quadrature written for this benchmark; nothing calls into ``surfgeo``.
Each check takes the directory one scenario wrote and returns a list of
problems (empty when the outputs are right).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# reading the CLI's files
# ---------------------------------------------------------------------------


def read_summary(directory: Path, name: str = "summary.txt") -> dict:
    out = {}
    for line in (directory / name).read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def num(summary: dict, key: str) -> float:
    return float(summary[key])


def read_csv(path: Path):
    """(header, rows as float arrays, trailer lines starting with '#')."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    trailer = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header)), trailer


def _close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


# ---------------------------------------------------------------------------
# reference curvature integrals over chart rectangles
# ---------------------------------------------------------------------------


def sphere_cap_band(u0, u1, v0, v1) -> float:
    """Integral of K dA over a sphere chart rectangle (any radius)."""
    return (math.cos(u0) - math.cos(u1)) * (v1 - v0)


def hill_density(h, sigma, u, v):
    """K * sqrt(det g) of the graph z = h exp(-(u^2+v^2)/sigma^2)."""
    s2 = sigma * sigma
    f = h * np.exp(-(u * u + v * v) / s2)
    fu = -2.0 * u / s2 * f
    fv = -2.0 * v / s2 * f
    fuu = (-2.0 / s2 + 4.0 * u * u / (s2 * s2)) * f
    fvv = (-2.0 / s2 + 4.0 * v * v / (s2 * s2)) * f
    fuv = 4.0 * u * v / (s2 * s2) * f
    g = 1.0 + fu * fu + fv * fv
    return (fuu * fvv - fuv * fuv) / (g * g) * np.sqrt(g)


def ellipsoid_density(a, b, c, u, v):
    """K * |x_u x x_v| on the ellipsoid x = (a su cv, b su sv, c cu)."""
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    x, y, z = a * su * cv, b * su * sv, c * cu
    K = 1.0 / (a * a * b * b * c * c * (x * x / a**4 + y * y / b**4 + z * z / c**4) ** 2)
    xu = np.stack([a * cu * cv, b * cu * sv, -c * su], axis=-1)
    xv = np.stack([-a * su * sv, b * su * cv, np.zeros_like(su)], axis=-1)
    dA = np.linalg.norm(np.cross(xu, xv), axis=-1)
    return K * dA


def gauss_legendre_rect(density, u0, u1, v0, v1, n: int = 60) -> float:
    x, w = np.polynomial.legendre.leggauss(n)
    uu = 0.5 * (u1 - u0) * (x + 1.0) + u0
    vv = 0.5 * (v1 - v0) * (x + 1.0) + v0
    U, V = np.meshgrid(uu, vv, indexing="ij")
    W = np.outer(w, w) * 0.25 * (u1 - u0) * (v1 - v0)
    return float(np.sum(density(U, V) * W))


def midpoint_rect(density, u0, u1, v0, v1, grid: int) -> float:
    du, dv = (u1 - u0) / grid, (v1 - v0) / grid
    uu = u0 + du * (np.arange(grid) + 0.5)
    vv = v0 + dv * (np.arange(grid) + 0.5)
    U, V = np.meshgrid(uu, vv, indexing="ij")
    return float(np.sum(density(U, V)) * du * dv)


def check_gaussbonnet(d: Path, spec: dict) -> list:
    """spec: kind, params, rect (u0, v0, u1, v1), grid."""
    probs = []
    _, rows, _ = read_csv(d / "gaussbonnet.csv")
    summ = read_summary(d)
    grid = spec["grid"]
    if rows.shape[0] != 2 or int(num(summ, "refined_grid")) != 2 * grid:
        return [f"{d.name}: expected a grid/2*grid ladder, got {rows.shape[0]} rows"]
    u0, v0, u1, v1 = spec["rect"]
    p = spec["params"]
    if spec["kind"] == "sphere":
        ref = sphere_cap_band(u0, u1, v0, v1)

        def density(U, V):
            return np.sin(U)
    elif spec["kind"] == "hill":
        def density(U, V):
            return hill_density(p["h"], p["sigma"], U, V)
        ref = gauss_legendre_rect(density, u0, u1, v0, v1)
    else:
        def density(U, V):
            return ellipsoid_density(p["a"], p["b"], p["c"], U, V)
        ref = gauss_legendre_rect(density, u0, u1, v0, v1)
    residuals = []
    for (hol, integral, residual), g in zip(rows, (grid, 2 * grid)):
        if not _close(hol, ref, 1e-7, 1e-9):
            probs.append(f"{d.name}: holonomy {hol:.10g} at grid {g} != reference {ref:.10g}")
        # the program's midpoint sum takes a holonomy-based K per cell; the same
        # sum with the exact K misses the reference by the discretization error
        # alone, and the program's sum must sit within a quarter of that error
        mid = midpoint_rect(density, u0, u1, v0, v1, g)
        disc = abs(mid - ref)
        if not abs(integral - mid) <= 0.25 * disc + 1e-6 * abs(ref) + 1e-9:
            probs.append(
                f"{d.name}: integral {integral:.10g} at grid {g} misses {ref:.10g} by more than "
                f"the midpoint rule's error {disc:.3g}"
            )
        own = abs(hol - integral)
        if not _close(residual, own, 1e-6, 1e-9):
            probs.append(f"{d.name}: residual column {residual:.10g} != |holonomy - integral|")
        residuals.append(own)
    if not residuals[0] >= 2.0 * residuals[1]:
        probs.append(f"{d.name}: residual shrinks only {residuals[0] / residuals[1]:.3g}x per doubling")
    return probs


# ---------------------------------------------------------------------------
# flat-map distortion
# ---------------------------------------------------------------------------

# connect_geodesic's returned length is off by up to ~6e-5 relative on arcs
# that pass near a pole (while its endpoint miss stays ~1e-13); elsewhere
# the error is ~1e-10, so 1e-4 is the tightest tolerance all pairs meet.
TRUE_DIST_REL_TOL = 1e-4


def pairs_in_summary(d: Path) -> int:
    summ = read_summary(d)
    return int(num(summ, "n_samples")) + int(num(summ, "n_skipped"))


def check_mapcheck(d: Path, spec: dict) -> list:
    """spec: projection, r, nominal_scale, pairs."""
    probs = []
    _, rows, trailer = read_csv(d / "mapcheck.csv")
    summ = read_summary(d)
    r, ns = spec["r"], spec["nominal_scale"]
    n_samples, n_skipped = int(num(summ, "n_samples")), int(num(summ, "n_skipped"))
    if n_samples + n_skipped != spec["pairs"]:
        probs.append(f"{d.name}: samples {n_samples} + skipped {n_skipped} != {spec['pairs']}")
    if rows.shape[0] != n_samples:
        probs.append(f"{d.name}: {rows.shape[0]} CSV rows for {n_samples} samples")
    if not rows.size:
        return probs + [f"{d.name}: no samples"]
    lat1, lon1, lat2, lon2, true_d, map_d, ratio = rows.T
    cosang = np.sin(lat1) * np.sin(lat2) + np.cos(lat1) * np.cos(lat2) * np.cos(lon2 - lon1)
    want_true = r * np.arccos(np.clip(cosang, -1.0, 1.0))
    bad = np.abs(true_d - want_true) > TRUE_DIST_REL_TOL * want_true + 1e-8 * r
    if np.any(bad):
        probs.append(f"{d.name}: {int(bad.sum())} true_dist values off the great-circle distance")
    k = ns * r
    if spec["projection"] == "mercator":
        y1 = k * np.log(np.tan(0.25 * math.pi + 0.5 * lat1))
        y2 = k * np.log(np.tan(0.25 * math.pi + 0.5 * lat2))
    else:
        y1, y2 = k * lat1, k * lat2
    want_map = np.hypot(k * (lon2 - lon1), y2 - y1)
    bad = np.abs(map_d - want_map) > 1e-7 * want_map + 1e-8 * k
    if np.any(bad):
        probs.append(f"{d.name}: {int(bad.sum())} map_dist values off the projection formula")
    bad = np.abs(ratio - map_d / (ns * true_d)) > 2e-8 * ratio
    if np.any(bad):
        probs.append(f"{d.name}: {int(bad.sum())} ratios != map_dist / true_dist")
    spread = float(ratio.max() / ratio.min())
    if not spread > 1.0 or not _close(num(summ, "spread"), spread, 1e-7):
        probs.append(f"{d.name}: spread {summ.get('spread')} (CSV gives {spread:.9g})")
    if not trailer or f"skipped={n_skipped}" not in trailer[0]:
        probs.append(f"{d.name}: CSV trailer disagrees with the summary")
    return probs


# ---------------------------------------------------------------------------
# chariot, transport, relaxation, holonomy of regions
# ---------------------------------------------------------------------------


def latitude_rotation(u0: float) -> float:
    """Unwrapped transport rotation around the colatitude-u0 circle, v rising.

    Measured against the chart frame, which itself turns once: the cap
    holonomy 2 pi (1 - cos u0) less 2 pi.
    """
    return -2.0 * math.pi * math.cos(u0)


def hill_line_rotation(h, sigma, p0, p1, n: int = 40001) -> float:
    """Transport rotation along a straight chart segment of the hill graph.

    Extrinsic route: the frame e1 = x_u/|x_u|, e2 = n x e1 is built from the
    embedding in R^3, and a parallel vector's frame angle obeys
    theta' = -<de1/dt, e2>, integrated with the trapezoid rule.
    """
    t = np.linspace(0.0, 1.0, n)
    u = p0[0] + t * (p1[0] - p0[0])
    v = p0[1] + t * (p1[1] - p0[1])
    s2 = sigma * sigma
    f = h * np.exp(-(u * u + v * v) / s2)
    xu = np.stack([np.ones_like(u), np.zeros_like(u), -2.0 * u / s2 * f], axis=-1)
    xv = np.stack([np.zeros_like(u), np.ones_like(u), -2.0 * v / s2 * f], axis=-1)
    nrm = np.cross(xu, xv)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    e1 = xu / np.linalg.norm(xu, axis=-1, keepdims=True)
    e2 = np.cross(nrm, e1)
    de1 = np.gradient(e1, t, axis=0, edge_order=2)
    rate = -np.sum(de1 * e2, axis=-1)
    return float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t)))


def check_width_ladder(dirs: list, widths: list, ref: float, what: str) -> list:
    """Statue rotation converges to ref at second order as the width halves."""
    errs = [abs(num(read_summary(d), "statue_rotation") - ref) for d in dirs]
    probs = []
    for (wa, ea), (wb, eb) in zip(zip(widths, errs), zip(widths[1:], errs[1:])):
        if not ea >= 3.0 * eb:
            probs.append(f"{what}: error {ea:.3g} at width {wa} -> {eb:.3g} at {wb} (ratio < 3)")
    if not errs[-1] <= 1e-3 * max(1.0, abs(ref)):
        probs.append(f"{what}: finest width misses {ref:.10g} by {errs[-1]:.3g}")
    return probs


def check_chariot_csv(d: Path) -> list:
    """Wheel distances start at 0, never decrease, and end at the summary's."""
    _, rows, _ = read_csv(d / "chariot.csv")
    summ = read_summary(d)
    dl, dr = rows[:, 2], rows[:, 3]
    probs = []
    if dl[0] != 0.0 or dr[0] != 0.0 or np.any(np.diff(dl) < 0) or np.any(np.diff(dr) < 0):
        probs.append(f"{d.name}: wheel distances are not cumulative")
    if not (_close(dl[-1], num(summ, "d_left"), 1e-8) and _close(dr[-1], num(summ, "d_right"), 1e-8)):
        probs.append(f"{d.name}: CSV wheel distances disagree with the summary")
    return probs


def check_wheel_law(d: Path, width: float, clockwise_turn: float) -> list:
    """On the plane, d_l - d_r = width x (clockwise turn of the arc)."""
    _, rows, _ = read_csv(d / "chariot.csv")
    diff = rows[-1, 2] - rows[-1, 3]
    want = width * clockwise_turn
    if not abs(diff - want) <= 1e-6:
        return [f"{d.name}: d_l - d_r = {diff:.10g}, want width x turn = {want:.10g}"]
    return []


def check_transport(d: Path, ref: float) -> list:
    got = num(read_summary(d), "total_rotation")
    _, rows, _ = read_csv(d / "transport.csv")
    probs = []
    if not _close(got, ref, 1e-8, 1e-9):
        probs.append(f"{d.name}: total_rotation {got:.10g} != closed form {ref:.10g}")
    if not _close(rows[-1, 1] - rows[0, 1], got, 1e-8, 1e-9):
        probs.append(f"{d.name}: angle trace does not add up to total_rotation")
    return probs


# relax_to_geodesic accepts a step that lengthens the path by up to 1e-10
# (its round-off slack); the CSV rounds lengths to 9 significant digits
RELAX_LENGTH_SLACK = 1e-10


def check_relax(d: Path, tol: float) -> list:
    _, rows, _ = read_csv(d / "relax.csv")
    summ = read_summary(d)
    lengths, rates = rows[:, 1], rows[:, 2]
    probs = []
    rise = np.diff(lengths) - (RELAX_LENGTH_SLACK + 1e-8 * lengths[1:])
    if np.any(rise > 0):
        probs.append(f"{d.name}: length history rises at {int((rise > 0).sum())} step(s)")
    final = num(summ, "final_max_rotation_rate")
    if summ.get("converged") != "true" or not final < tol or not rates[-1] < tol:
        probs.append(f"{d.name}: final rotation rate {final:.10g} not below tol {tol}")
    if not _close(lengths[-1], num(summ, "final_length"), 1e-8):
        probs.append(f"{d.name}: CSV final length disagrees with the summary")
    return probs


def check_obstruction(d: Path, ref: float) -> list:
    """Zero holonomy for flat regions (no obstruction), the closed form else."""
    summ = read_summary(d, "obstruction.txt")
    hol = num(summ, "holonomy")
    obstructed = summ["obstructed"] == "true"
    if ref == 0.0:
        if not abs(hol) <= 1e-12 or obstructed:
            return [f"{d.name}: flat region has holonomy {hol:.10g} (obstructed={obstructed})"]
        return []
    if not _close(hol, ref, 1e-8, 1e-9) or not obstructed:
        return [f"{d.name}: holonomy {hol:.10g} != {ref:.10g} (obstructed={obstructed})"]
    return []


# ---------------------------------------------------------------------------
# traced totals
# ---------------------------------------------------------------------------


def check_count(layer: dict, key: str, want: int, source: str) -> list:
    if layer[key] != want:
        return [f"traced {key} = {layer[key]}, but {source} gives {want}"]
    return []
