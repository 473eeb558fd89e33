"""Scenario runner: every computation as a subcommand with file outputs.

Each subcommand assembles the same JSON-shaped scenario dict that ``run``
reads from a config file, so flag-driven and config-driven invocations share
one executor. Outputs are CSV (header row, ``%.9g`` floats, LF endings), a
``summary.txt`` of headline numbers, and optional SVG figures; identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import curvature, geodesics, paths, projection, surface, svgplot, transport


class ConfigError(ValueError):
    """A scenario config that parses but fails validation."""


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _g(x) -> str:
    return "%.9g" % float(x)


def _fmt_row(row) -> list[str]:
    out = []
    for x in row:
        if isinstance(x, bool):
            out.append("true" if x else "false")
        elif isinstance(x, (int, np.integer)):
            out.append(str(int(x)))
        elif isinstance(x, str):
            out.append(x)
        else:
            out.append(_g(x))
    return out


class _Output:
    """Collects CSV/summary/SVG artifacts for one scenario run."""

    def __init__(self, directory: FsPath, formats, degrees: bool):
        self.directory = directory
        self.formats = formats
        self.degrees = degrees
        self.files: list[FsPath] = []

    def angle(self, x: float) -> float:
        return math.degrees(x) if self.degrees else float(x)

    def write_csv(self, name: str, header, rows, trailer: str | None = None):
        if "csv" not in self.formats:
            return
        path = self.directory / name
        lines = [",".join(header)]
        lines += [",".join(_fmt_row(r)) for r in rows]
        if trailer is not None:
            lines.append(trailer)
        path.write_text("\n".join(lines) + "\n")
        self.files.append(path)

    def write_summary(self, items: dict):
        path = self.directory / "summary.txt"
        lines = []
        for key, val in items.items():
            lines.append(f"{key} = {_fmt_row([val])[0]}")
        path.write_text("\n".join(lines) + "\n")
        self.files.append(path)

    def write_svg(self, name: str, series, kind: str, title: str, xlabel="", ylabel=""):
        if "svg" not in self.formats:
            return
        path = self.directory / name
        path.write_text(svgplot.emit_svg_plot(series, kind, title, xlabel, ylabel))
        self.files.append(path)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing field {key!r} in {where}")
    return block[key]


def _build_surface(spec) -> surface.Surface:
    if not isinstance(spec, dict):
        raise ConfigError("surface block must be an object")
    kind = _require(spec, "kind", "surface block")
    params = spec.get("params", {})
    try:
        return surface.builtin_surface(kind, params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"surface block: {exc}") from exc


def _build_path(s: surface.Surface, spec, where: str):
    if isinstance(spec, list):
        spec = {"generator": "waypoints", "params": {"points": spec}}
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object or waypoint list")
    gen = _require(spec, "generator", where)
    params = spec.get("params", {})
    step = spec.get("max_step")
    try:
        if gen == "geodesic_polygon":
            loop, _, _ = geodesics.geodesic_polygon(
                s, _require(params, "vertices", where), step=step
            )
            return loop
        return paths.sample_path(s, gen, params, step)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


class _Blocks:
    """Named paths/loops/regions declared by a scenario."""

    def __init__(self, s: surface.Surface, cfg: dict):
        self.s = s
        self.named = {}
        for block in ("paths", "loops"):
            for name, spec in (cfg.get(block) or {}).items():
                self.named[name] = _build_path(s, spec, f"{block}[{name}]")
        self.regions = {}
        for name, spec in (cfg.get("regions") or {}).items():
            p = _build_path(s, spec, f"regions[{name}]")
            if not isinstance(p, paths.Loop):
                raise ConfigError(f"regions[{name}] does not describe a closed loop")
            self.regions[name] = paths.region_from_loop(p)

    def path(self, name: str):
        if name not in self.named:
            raise ConfigError(f"unknown path name {name!r}")
        return self.named[name]

    def loop(self, name: str):
        p = self.path(name)
        if not isinstance(p, paths.Loop):
            raise ConfigError(f"path {name!r} is not a loop")
        return p

    def region(self, name: str):
        if name in self.regions:
            return self.regions[name]
        if name in self.named:
            return paths.region_from_loop(self.loop(name))
        raise ConfigError(f"unknown region name {name!r}")


def _points_list(cmd: dict, key: str = "points"):
    pts = _require(cmd, key, "command block")
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ConfigError(f"command field {key!r} must be a list of (u, v) pairs")
    return arr


# ---------------------------------------------------------------------------
# command executors
# ---------------------------------------------------------------------------


def _cmd_transport(s, blocks, cmd, out: _Output, seed):
    tol = float(cmd.get("tol", 1e-9))
    if "loop" in cmd:
        track = blocks.loop(cmd["loop"])
    elif "path" in cmd:
        track = blocks.path(cmd["path"])
    else:
        raise ConfigError("transport needs a 'loop' or 'path' field")
    if "vector" in cmd:
        a, b = (float(x) for x in cmd["vector"])
        v0 = surface.vector_from_frame(s, track.points[0], a, b)
        res = transport.parallel_transport(s, track, v0, tol=tol)
    elif isinstance(track, paths.Loop):
        res = transport.holonomy_transport(s, track, tol=tol)
    else:
        e1, _ = surface.frame_at(s, track.points[0])
        res = transport.parallel_transport(s, track, e1, tol=tol)
    rows = [(sv, out.angle(th)) for sv, th in res.angle_trace]
    out.write_csv("transport.csv", ["arclength", "angle_unwrapped"], rows)
    wrapped = (res.total_rotation + math.pi) % (2.0 * math.pi) - math.pi
    out.write_summary(
        {
            "command": "transport",
            "surface": s.name,
            "closed": isinstance(track, paths.Loop),
            "path_length": float(res.angle_trace[-1, 0]),
            "total_rotation": out.angle(res.total_rotation),
            "total_rotation_wrapped": out.angle(wrapped),
            "refine_gap": res.refine_gap,
            "refine_levels": res.levels,
        }
    )
    out.write_svg(
        "transport.svg", [("track", track.points)], "path_overlay", "transport track"
    )


def _cmd_chariot(s, blocks, cmd, out: _Output, seed):
    track = blocks.path(_require(cmd, "path", "command block"))
    width = float(_require(cmd, "width", "command block"))
    cfg = transport.ChariotConfig(width, cmd.get("step"))
    res = transport.finite_chariot(s, track, cfg)
    rows = [
        (sv, out.angle(th), dl, dr)
        for (sv, th), dl, dr in zip(res.angle_trace, res.d_left, res.d_right)
    ]
    out.write_csv("chariot.csv", ["arclength", "angle_unwrapped", "d_l", "d_r"], rows)
    out.write_summary(
        {
            "command": "chariot",
            "surface": s.name,
            "width": width,
            "statue_rotation": out.angle(res.total_rotation),
            "d_left": float(res.d_left[-1]),
            "d_right": float(res.d_right[-1]),
            "wheel_difference": float(res.d_left[-1] - res.d_right[-1]),
            "heading_change": out.angle(res.heading[-1] - res.heading[0]),
        }
    )
    out.write_svg(
        "chariot.svg",
        [
            ("center", res.center_track),
            ("left wheel", res.left_track),
            ("right wheel", res.right_track),
        ],
        "path_overlay",
        "chariot wheel tracks",
    )


def _cmd_geodesic(s, blocks, cmd, out: _Output, seed):
    if "connect" in cmd:
        pts = _points_list(cmd, "connect")
        if len(pts) != 2:
            raise ConfigError("'connect' takes exactly two (u, v) points")
        shot = geodesics.connect_geodesic(s, pts[0], pts[1], step=cmd.get("step"))
    else:
        start = cmd.get("start")
        if start is None:
            raise ConfigError("geodesic needs 'start' + 'angle'/'direction', or 'connect'")
        start = [float(start[0]), float(start[1])]
        length = float(_require(cmd, "length", "command block"))
        if "angle" in cmd:
            psi = float(cmd["angle"])
            direction = (
                math.cos(psi) * surface.frame_at(s, start)[0]
                + math.sin(psi) * surface.frame_at(s, start)[1]
            )
        elif "direction" in cmd:
            direction = [float(x) for x in cmd["direction"]]
        else:
            raise ConfigError("geodesic needs an 'angle' or a 'direction'")
        shot = geodesics.shoot_geodesic(s, start, direction, length, step=cmd.get("step"))
    pts = shot.result_path.points
    arcs = paths.arclengths(s, shot.result_path)
    rows = [
        (i * shot.step, u, v, c)
        for i, ((u, v), c) in enumerate(zip(pts, arcs))
    ]
    out.write_csv("geodesic.csv", ["t", "u", "v", "cumulative_length"], rows)
    summary = {
        "command": "geodesic",
        "surface": s.name,
        "length": shot.length,
        "step": shot.step,
        "initial_heading": out.angle(shot.headings[0]),
        "final_heading": out.angle(shot.headings[-1]),
        "end_u": float(pts[-1, 0]),
        "end_v": float(pts[-1, 1]),
        "exited_domain": shot.exited,
    }
    if shot.iterations is not None:
        summary["iterations"] = shot.iterations
        summary["residual"] = shot.residual
    out.write_summary(summary)
    out.write_svg("geodesic.svg", [("geodesic", pts)], "path_overlay", "geodesic track")


def _cmd_relax(s, blocks, cmd, out: _Output, seed):
    track = blocks.path(_require(cmd, "path", "command block"))
    rep = geodesics.relax_to_geodesic(
        s,
        track,
        step_gain=cmd.get("gain"),
        tol=float(cmd.get("tol", 1e-6)),
        max_iter=int(cmd.get("max_iter", 60000)),
    )
    rows = [
        (i, ln, rt)
        for i, (ln, rt) in enumerate(zip(rep.length_history, rep.rotation_history))
    ]
    out.write_csv("relax.csv", ["iteration", "length", "max_rotation_rate"], rows)
    out.write_summary(
        {
            "command": "relax",
            "surface": s.name,
            "iterations": rep.iterations,
            "converged": rep.converged,
            "initial_length": rep.length_history[0],
            "final_length": rep.length_history[-1],
            "final_max_rotation_rate": rep.final_max_rotation_rate,
        }
    )
    out.write_svg(
        "relax.svg",
        [("initial", track.points), ("relaxed", rep.final_path.points)],
        "path_overlay",
        "path relaxation",
    )


def _curvature_points(cmd) -> np.ndarray:
    if "points" in cmd:
        return _points_list(cmd)
    if "grid" in cmd:
        gspec = cmd["grid"]
        for key in ("u0", "v0", "u1", "v1", "n"):
            _require(gspec, key, "grid spec")
        n = int(gspec["n"])
        if n < 2:
            raise ConfigError("grid spec needs n >= 2")
        uu = np.linspace(float(gspec["u0"]), float(gspec["u1"]), n)
        vv = np.linspace(float(gspec["v0"]), float(gspec["v1"]), n)
        return np.array([(u, v) for u in uu for v in vv])
    raise ConfigError("curvature needs 'points' or 'grid'")


def _cmd_curvature(s, blocks, cmd, out: _Output, seed):
    pts = _curvature_points(cmd)
    scales = cmd.get("scales")
    rows = []
    max_err = 0.0
    for u, v in pts:
        est = curvature.curvature_at(s, (u, v), scales=scales, aspect=float(cmd.get("aspect", 1.0)))
        extr = curvature.quadratic_fit_curvature(s, (u, v)).curvature
        max_err = max(max_err, est.error_estimate)
        rows.append((u, v, est.extrapolated, extr, est.error_estimate))
    out.write_csv(
        "curvature.csv", ["u", "v", "K_intrinsic", "K_extrinsic", "error_estimate"], rows
    )
    out.write_summary(
        {
            "command": "curvature",
            "surface": s.name,
            "n_points": len(rows),
            "max_error_estimate": max_err,
        }
    )


def _cmd_gaussbonnet(s, blocks, cmd, out: _Output, seed):
    region = blocks.region(_require(cmd, "region", "command block"))
    grid = int(cmd.get("grid", 12))
    res = curvature.gauss_bonnet_check(s, region, grid=grid)
    rows = [(res.holonomy, res.integral, res.residual)]
    summary = {
        "command": "gaussbonnet",
        "surface": s.name,
        "grid": grid,
        "holonomy": out.angle(res.holonomy),
        "integral": out.angle(res.integral),
        "residual": res.residual,
    }
    if cmd.get("refine"):
        fine = curvature.gauss_bonnet_check(s, region, grid=2 * grid)
        rows.append((fine.holonomy, fine.integral, fine.residual))
        summary["refined_grid"] = 2 * grid
        summary["refined_residual"] = fine.residual
        summary["residual_ratio"] = res.residual / max(fine.residual, 1e-300)
    out.write_csv("gaussbonnet.csv", ["holonomy", "integral", "residual"], rows)
    out.write_summary(summary)


def _cmd_polygon(s, blocks, cmd, out: _Output, seed):
    verts = _points_list(cmd, "vertices")
    res = curvature.polygon_angle_excess(s, verts, step=cmd.get("step"))
    rows = [
        (i, u, v, out.angle(ext), out.angle(math.pi - ext))
        for i, ((u, v), ext) in enumerate(zip(verts, res.exterior_angles))
    ]
    out.write_csv(
        "polygon.csv", ["vertex", "u", "v", "exterior_angle", "interior_angle"], rows
    )
    interior_sum = sum(math.pi - e for e in res.exterior_angles)
    excess = interior_sum - (len(verts) - 2) * math.pi
    out.write_summary(
        {
            "command": "polygon",
            "surface": s.name,
            "n_vertices": len(verts),
            "exterior_angle_sum": out.angle(res.exterior_angle_sum),
            "holonomy": out.angle(res.holonomy),
            "angle_excess": out.angle(excess),
            "closure_gap": abs(res.exterior_angle_sum + res.holonomy - 2.0 * math.pi),
        }
    )
    out.write_svg(
        "polygon.svg", [("polygon", res.loop.points)], "path_overlay", "geodesic polygon"
    )


def _cmd_mapcheck(s, blocks, cmd, out: _Output, seed):
    name = _require(cmd, "projection", "command block")
    pairs = int(cmd.get("pairs", 200))
    m = projection.builtin_projection(name, s, float(cmd.get("nominal_scale", 1.0)))
    rep = projection.distortion_report(m, s, pairs, seed)
    rows = []
    for smp in rep.samples:
        (ua, va), (ub, vb) = smp.point_a, smp.point_b
        rows.append(
            (
                out.angle(0.5 * math.pi - ua),
                out.angle(va),
                out.angle(0.5 * math.pi - ub),
                out.angle(vb),
                smp.true_distance,
                smp.map_distance,
                smp.ratio,
            )
        )
    trailer = (
        f"# summary: samples={len(rep.samples)} skipped={len(rep.skipped)} "
        f"min_ratio={_g(rep.min_ratio)} max_ratio={_g(rep.max_ratio)} "
        f"spread={_g(rep.spread)}"
    )
    out.write_csv(
        "mapcheck.csv",
        ["lat1", "lon1", "lat2", "lon2", "true_dist", "map_dist", "ratio"],
        rows,
        trailer=trailer,
    )
    out.write_summary(
        {
            "command": "mapcheck",
            "surface": s.name,
            "projection": name,
            "n_samples": len(rep.samples),
            "n_skipped": len(rep.skipped),
            "min_ratio": rep.min_ratio,
            "max_ratio": rep.max_ratio,
            "spread": rep.spread,
        }
    )
    out.write_svg(
        "mapcheck.svg",
        [(name, [x.ratio for x in rep.samples])],
        "ratio_histogram",
        "map distance distortion",
    )


def _cmd_egregium(s, blocks, cmd, out: _Output, seed):
    pts = _points_list(cmd)
    recs = curvature.egregium_check(
        s, pts, scales=cmd.get("scales"), stencil_radius=cmd.get("stencil_radius")
    )
    rows = [
        (u, v, r.intrinsic, r.extrinsic, r.relative_gap)
        for (u, v), r in zip(pts, recs)
    ]
    out.write_csv(
        "egregium.csv", ["u", "v", "K_intrinsic", "K_extrinsic", "relative_gap"], rows
    )
    out.write_summary(
        {
            "command": "egregium",
            "surface": s.name,
            "n_points": len(rows),
            "max_relative_gap": max(r.relative_gap for r in recs),
        }
    )


_COMMANDS = {
    "transport": _cmd_transport,
    "chariot": _cmd_chariot,
    "geodesic": _cmd_geodesic,
    "relax": _cmd_relax,
    "curvature": _cmd_curvature,
    "gaussbonnet": _cmd_gaussbonnet,
    "polygon": _cmd_polygon,
    "mapcheck": _cmd_mapcheck,
    "egregium": _cmd_egregium,
}

_TOP_KEYS = {"surface", "paths", "loops", "regions", "command", "output", "seed"}


def _run_config(cfg: dict, base_dir=None, degrees: bool = False) -> list:
    if not isinstance(cfg, dict):
        raise ConfigError("scenario config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    s = _build_surface(_require(cfg, "surface", "config"))
    cmd = _require(cfg, "command", "config")
    if not isinstance(cmd, dict):
        raise ConfigError("command block must be an object")
    name = _require(cmd, "name", "command block")
    if name not in _COMMANDS:
        raise ConfigError(
            f"unknown command {name!r}; known: {', '.join(sorted(_COMMANDS))}"
        )
    blocks = _Blocks(s, cfg)
    output = cfg.get("output") or {}
    directory = FsPath(output.get("directory", "out"))
    if base_dir is not None and not directory.is_absolute():
        directory = FsPath(base_dir) / directory
    formats = output.get("formats", ["csv"])
    bad = set(formats) - {"csv", "svg"}
    if bad:
        raise ConfigError(f"unknown output format(s): {', '.join(sorted(bad))}")
    directory.mkdir(parents=True, exist_ok=True)
    out = _Output(directory, formats, degrees)
    seed = int(cfg.get("seed", 0))
    _COMMANDS[name](s, blocks, cmd, out, seed)
    return out.files


def run_scenario(config_text: str, base_dir=None, degrees: bool = False) -> int:
    """Parse and execute one scenario; returns a process exit status."""
    try:
        cfg = json.loads(config_text)
    except json.JSONDecodeError as exc:
        print(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    return _execute(lambda: cfg, base_dir=base_dir, degrees=degrees)


def _execute(make_cfg, base_dir=None, degrees: bool = False) -> int:
    """Run the config ``make_cfg()`` builds; report errors as exit statuses."""
    try:
        files = _run_config(make_cfg(), base_dir=base_dir, degrees=degrees)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for f in files:
        print(f)
    return 0


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


_GEN_ALIASES = {"rect": "chart_rectangle"}


def _parse_kv(text: str, what: str) -> dict:
    params = {}
    if not text:
        return params
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"bad {what} parameter {part!r} (want key=value)")
        key, val = part.split("=", 1)
        try:
            params[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad {what} value {val!r} for {key.strip()!r}") from exc
    return params


def _parse_pairs(text: str, what: str) -> list:
    pts = []
    for chunk in text.split(";"):
        comps = chunk.split(",")
        if len(comps) != 2:
            raise ConfigError(f"bad {what} point {chunk!r} (want u,v)")
        pts.append([float(comps[0]), float(comps[1])])
    return pts


def _parse_surface(text: str) -> dict:
    kind, _, rest = text.partition(":")
    return {"kind": kind.strip(), "params": _parse_kv(rest, "surface")}


def _parse_pathspec(text: str) -> dict:
    gen, _, rest = text.partition(":")
    gen = _GEN_ALIASES.get(gen.strip(), gen.strip())
    if gen in ("waypoints", "geodesic_polygon"):
        key = "points" if gen == "waypoints" else "vertices"
        return {"generator": gen, "params": {key: _parse_pairs(rest, gen)}}
    params = _parse_kv(rest, gen)
    spec = {"generator": gen, "params": params}
    if "max_step" in params:  # sampling control, not a generator parameter
        spec["max_step"] = params.pop("max_step")
    return spec


def _add_common(sp):
    sp.add_argument("--surface", default="sphere:r=1", metavar="KIND:K=V,...",
                    help="surface spec, e.g. sphere:r=1 or torus:R=2,r=0.7")
    sp.add_argument("--out", default="out", metavar="DIR", help="output directory")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")
    sp.add_argument("--degrees", action="store_true",
                    help="report angle-valued outputs in degrees")
    sp.add_argument("--svg", action="store_true", help="also write SVG figures")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surfgeo",
        description="parallel transport, geodesics, curvature and flat-map "
        "distortion on parametrized surfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transport", help="parallel-transport a frame vector along a track")
    _add_common(sp)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--loop", metavar="SPEC", help="closed track, e.g. latitude_circle:u=1.0472")
    g.add_argument("--path", metavar="SPEC", help="open track, e.g. line:u0=0,v0=0,u1=1,v1=1")
    sp.add_argument("--vector", metavar="A,B", help="initial frame components (default 1,0)")
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("chariot", help="finite-width chariot along a track")
    _add_common(sp)
    sp.add_argument("--path", required=True, metavar="SPEC")
    sp.add_argument("--width", required=True, type=float)
    sp.add_argument("--step", type=float)

    sp = sub.add_parser("geodesic", help="shoot or connect a geodesic")
    _add_common(sp)
    sp.add_argument("--start", metavar="U,V")
    sp.add_argument("--angle", type=float, help="initial frame heading in radians")
    sp.add_argument("--direction", metavar="DU,DV", help="initial chart velocity")
    sp.add_argument("--length", type=float)
    sp.add_argument("--connect", metavar="U,V;U,V", help="endpoints to join")
    sp.add_argument("--step", type=float)

    sp = sub.add_parser("relax", help="curve-shortening relaxation toward a geodesic")
    _add_common(sp)
    sp.add_argument("--path", required=True, metavar="SPEC")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=60000)
    sp.add_argument("--gain", type=float)

    sp = sub.add_parser("curvature", help="holonomy-based curvature at points or a grid")
    _add_common(sp)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", metavar="U,V;U,V;...")
    g.add_argument("--grid", metavar="U0,V0,U1,V1,N")
    sp.add_argument("--scales", metavar="S1,S2,...")
    sp.add_argument("--aspect", type=float, default=1.0)

    sp = sub.add_parser("gaussbonnet", help="boundary holonomy vs integrated curvature")
    _add_common(sp)
    sp.add_argument("--region", required=True, metavar="SPEC",
                    help="e.g. rect:u0=0.001,v0=0,u1=1.5708,v1=1.5708")
    sp.add_argument("--grid", type=int, default=12)
    sp.add_argument("--refine", action="store_true", help="repeat at twice the grid")

    sp = sub.add_parser("polygon", help="geodesic polygon angle excess")
    _add_common(sp)
    sp.add_argument("--vertices", required=True, metavar="U,V;U,V;U,V;...")
    sp.add_argument("--step", type=float)

    sp = sub.add_parser("mapcheck", help="flat-map distance distortion report")
    _add_common(sp)
    sp.add_argument("--map", required=True, choices=["mercator", "equirectangular"])
    sp.add_argument("--pairs", type=int, default=200)

    sp = sub.add_parser("egregium", help="intrinsic vs extrinsic curvature comparison")
    _add_common(sp)
    sp.add_argument("--points", required=True, metavar="U,V;U,V;...")

    sp = sub.add_parser("run", help="run a JSON scenario config")
    _add_common(sp)
    sp.add_argument("config", metavar="CONFIG.json")
    return ap


def _cfg_from_args(args) -> dict:
    cmd: dict = {"name": args.command}
    pth: dict = {}

    def attach(spec_text, role):
        pth[role] = _parse_pathspec(spec_text)
        cmd[role if role != "track" else "path"] = role

    if args.command == "transport":
        if args.loop:
            pth["track"] = _parse_pathspec(args.loop)
            cmd["loop"] = "track"
        else:
            pth["track"] = _parse_pathspec(args.path)
            cmd["path"] = "track"
        if args.vector:
            cmd["vector"] = [float(x) for x in args.vector.split(",")]
        cmd["tol"] = args.tol
    elif args.command == "chariot":
        attach(args.path, "track")
        cmd["width"] = args.width
        if args.step is not None:
            cmd["step"] = args.step
    elif args.command == "geodesic":
        if args.connect:
            cmd["connect"] = _parse_pairs(args.connect, "connect")
        else:
            if not args.start or args.length is None:
                raise ConfigError("geodesic needs --connect, or --start with --length")
            cmd["start"] = [float(x) for x in args.start.split(",")]
            cmd["length"] = args.length
            if args.angle is not None:
                cmd["angle"] = args.angle
            elif args.direction:
                cmd["direction"] = [float(x) for x in args.direction.split(",")]
            else:
                raise ConfigError("geodesic needs --angle or --direction")
        if args.step is not None:
            cmd["step"] = args.step
    elif args.command == "relax":
        attach(args.path, "track")
        cmd["tol"] = args.tol
        cmd["max_iter"] = args.max_iter
        if args.gain is not None:
            cmd["gain"] = args.gain
    elif args.command == "curvature":
        if args.points:
            cmd["points"] = _parse_pairs(args.points, "points")
        else:
            vals = [float(x) for x in args.grid.split(",")]
            if len(vals) != 5:
                raise ConfigError("--grid wants u0,v0,u1,v1,n")
            cmd["grid"] = dict(zip(("u0", "v0", "u1", "v1", "n"), vals))
        if args.scales:
            cmd["scales"] = [float(x) for x in args.scales.split(",")]
        cmd["aspect"] = args.aspect
    elif args.command == "gaussbonnet":
        spec = _parse_pathspec(args.region)
        cfg_regions = {"region": spec}
        cmd["region"] = "region"
        cmd["grid"] = args.grid
        if args.refine:
            cmd["refine"] = True
        return {
            "surface": _parse_surface(args.surface),
            "regions": cfg_regions,
            "command": cmd,
            "seed": args.seed,
            "output": _output_block(args),
        }
    elif args.command == "polygon":
        cmd["vertices"] = _parse_pairs(args.vertices, "vertices")
        if args.step is not None:
            cmd["step"] = args.step
    elif args.command == "mapcheck":
        cmd["projection"] = args.map
        cmd["pairs"] = args.pairs
    elif args.command == "egregium":
        cmd["points"] = _parse_pairs(args.points, "points")
    return {
        "surface": _parse_surface(args.surface),
        "paths": pth,
        "command": cmd,
        "seed": args.seed,
        "output": _output_block(args),
    }


def _output_block(args) -> dict:
    formats = ["csv"]
    if args.svg:
        formats.append("svg")
    return {"directory": args.out, "formats": formats}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "run":
        try:
            text = FsPath(args.config).read_text()
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        return run_scenario(text, degrees=args.degrees)
    return _execute(lambda: _cfg_from_args(args), degrees=args.degrees)


if __name__ == "__main__":
    sys.exit(main())
