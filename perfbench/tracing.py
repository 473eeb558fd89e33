"""Spans and counters around surfgeo's public module-level functions.

The tracer replaces module attributes with wrappers for the length of a
traced round and restores them afterwards; the program itself carries no
instrumentation. Callers inside surfgeo reach these functions through the
module attribute or the module's globals, so the wrappers see every call.
Spans are kept in memory as (name, parent, scenario, start, end, jet calls
at start, jet calls at end) and written out when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from surfgeo import cli, curvature, geodesics, paths, projection, surface, svgplot, transport

SPANNED = {
    surface: ("builtin_surface", "connection_increments", "area_of_region"),
    paths: ("sample_path", "region_from_loop", "segment_lengths"),
    geodesics: ("connect_geodesic", "shoot_geodesic", "shoot_batch", "geodesic_polygon",
                "relax_to_geodesic"),
    transport: ("parallel_transport", "holonomy_transport", "loop_holonomy", "finite_chariot"),
    curvature: ("curvature_at", "gauss_bonnet_check"),
    projection: ("builtin_projection", "distortion_report", "holonomy_obstruction"),
    cli: ("run_scenario",),
    svgplot: ("emit_svg_plot",),
}

# per-layer self-time metric -> the span whose self time it sums
SELF_TIMES = {
    "surface.connection_increments_self_s": "surface.connection_increments",
    "surface.area_of_region_self_s": "surface.area_of_region",
    "paths.region_build_self_s": "paths.region_from_loop",
    "paths.segment_lengths_self_s": "paths.segment_lengths",
    "geodesics.connect_self_s": "geodesics.connect_geodesic",
    "geodesics.shoot_batch_self_s": "geodesics.shoot_batch",
    "geodesics.relax_self_s": "geodesics.relax_to_geodesic",
    "transport.parallel_transport_self_s": "transport.parallel_transport",
    "transport.finite_chariot_self_s": "transport.finite_chariot",
    "curvature.curvature_at_self_s": "curvature.curvature_at",
    "curvature.gauss_bonnet_self_s": "curvature.gauss_bonnet_check",
    "projection.distortion_report_self_s": "projection.distortion_report",
    "cli.self_s": "cli.run_scenario",
    "svgplot.emit_self_s": "svgplot.emit_svg_plot",
}

NAME, PARENT, SCENARIO, START, END, JET0, JET1 = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.scenario = ""
        self._stack: list = []
        self._saved: dict = {}
        self._wrappers: dict = {}
        self._counted: dict = {}
        # result hooks: add a count, or return a replacement result
        self._after = {
            "surface.builtin_surface": lambda a, r: self.counted(r),
            "geodesics.shoot_batch": lambda a, r: self._add("shoot_batch_lanes", len(a[1]), r),
            "geodesics.relax_to_geodesic": lambda a, r: self._add("relax_iterations", r.iterations, r),
            "transport.parallel_transport": lambda a, r: self._add("refine_levels", r.levels, r),
        }

    def _add(self, key: str, n: int, result):
        self.counts[key] += int(n)
        return result

    # -- jet counting -------------------------------------------------------

    def counted(self, s):
        """The same surface with a jet that counts calls and points.

        ``dataclasses.replace`` re-runs the surface's metric validation; the
        jet calls it makes are not part of the workload and are not counted.
        """
        if id(s) in self._counted:
            return self._counted[id(s)][1]
        counts = self.counts
        jet = s.jet

        def counting_jet(u, v, xp):
            counts["jet_calls"] += 1
            counts["jet_points"] += 1 if xp is math else np.broadcast(u, v).size
            return jet(u, v, xp)

        before = (counts["jet_calls"], counts["jet_points"])
        out = dataclasses.replace(s, jet=counting_jet)
        counts["jet_calls"], counts["jet_points"] = before
        self._counted[id(s)] = (s, out)  # holding s keeps its id from being reused
        return out

    # -- spans --------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        after = self._after.get(qual)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [qual, stack[-1] if stack else -1, self.scenario,
                   time.perf_counter(), 0.0, counts["jet_calls"], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[qual + ":raised"] += 1
                raise
            finally:
                stack.pop()
                rec[END] = time.perf_counter()
                rec[JET1] = counts["jet_calls"]
            return after(args, result) if after is not None else result

        return traced

    def install(self):
        for mod, names in SPANNED.items():
            for fname in names:
                qual = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
                self._saved[(mod, fname)] = getattr(mod, fname)
                if qual not in self._wrappers:
                    self._wrappers[qual] = self._wrap(qual, getattr(mod, fname))
                setattr(mod, fname, self._wrappers[qual])

    def uninstall(self):
        for (mod, fname), fn in self._saved.items():
            setattr(mod, fname, fn)
        self._saved.clear()

    def reset(self):
        """Start a new round: drop spans and counts (the lists are shared)."""
        del self.spans[:]
        self.counts.clear()

    # -- per-round figures --------------------------------------------------

    def round_metrics(self) -> dict:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self_s, calls, jets = Counter(), Counter(), Counter()
        for i, rec in enumerate(self.spans):
            self_s[rec[NAME]] += rec[END] - rec[START] - child[i]
            calls[rec[NAME]] += 1
            jets[rec[NAME]] += rec[JET1] - rec[JET0]
        c = self.counts
        connects = calls["geodesics.connect_geodesic"]
        out = {
            "surface.jet_calls": c["jet_calls"],
            "surface.jet_points": c["jet_points"],
            "surface.jet_points_per_call": c["jet_points"] / max(c["jet_calls"], 1),
            "geodesics.connect_calls": connects,
            "geodesics.connect_failed": c["geodesics.connect_geodesic:raised"],
            "geodesics.jet_calls_per_connect": jets["geodesics.connect_geodesic"] / max(connects, 1),
            "geodesics.shoot_batch_lanes": c["shoot_batch_lanes"],
            "geodesics.relax_iterations": c["relax_iterations"],
            "transport.refine_levels": c["refine_levels"],
            "curvature.curvature_at_calls": calls["curvature.curvature_at"],
        }
        for metric, span in SELF_TIMES.items():
            out[metric] = float(self_s[span])
        return out

    def span_lines(self, round_index: int) -> list:
        t0 = self.spans[0][START] if self.spans else 0.0
        return [
            json.dumps({"round": round_index, "id": i, "parent": r[PARENT], "name": r[NAME],
                        "scenario": r[SCENARIO], "start_s": r[START] - t0,
                        "dur_s": r[END] - r[START], "jet_calls": r[JET1] - r[JET0]})
            for i, r in enumerate(self.spans)
        ]


def write_spans(path: Path, lines: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
